// Package rma simulates the Remote Memory Access programming model of the
// paper (Listing 1) on a virtual distributed machine.
//
// Every simulated process (rank) exposes a window of 64-bit words. Processes
// access each other's windows with Put, Get, Accumulate, FAO, CAS and Flush,
// exactly the operation set the paper's locks are written against. Timing is
// virtual: operations charge a topology-dependent latency and serialize per
// target rank (NIC/memory occupancy), driven by the deterministic
// discrete-event scheduler in package sim (or its refsim reference
// implementation, selected by Config.Engine).
//
// Memory effects apply at operation issue (a legal linearization point), so
// protocol correctness is exact; timing is modeled.
package rma

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"rmalocks/internal/fault"
	"rmalocks/internal/sim"
	"rmalocks/internal/sim/refsim"
	"rmalocks/internal/topology"
	"rmalocks/internal/trace"
)

// Nil is the null rank/pointer value ∅ of the paper.
const Nil int64 = -1

// barrierCost is the virtual cost of one barrier (ns).
const barrierCost = 2000

// Op selects the operation applied by Accumulate and FAO.
type Op int

const (
	// OpSum atomically adds the operand to the target word.
	OpSum Op = iota
	// OpReplace atomically replaces the target word with the operand.
	OpReplace
)

func (o Op) String() string {
	switch o {
	case OpSum:
		return "SUM"
	case OpReplace:
		return "REPLACE"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// schedHandle abstracts the per-process scheduler handle behind the
// operations the RMA layer needs, so one Machine can run on either the
// fast-path scheduler (sim) or the reference one (refsim). Both engines
// expose the same Horizon semantics, which keeps lazy publication (see
// Proc.sync) — and therefore every interleaving — byte-identical between
// them. What only the fast one offers, sim.Handle.Poll, is deliberately not
// here: Proc.Poll asks for it by type and otherwise runs the loop it stands
// for, which is how the reference engine stays the oracle.
type schedHandle interface {
	ID() int
	Clock() int64
	Horizon() int64
	Advance(d int64)
	Barrier()
	Block()
	WakeAt(clock int64)
	Abort(err error)
}

// engine abstracts a whole scheduler run.
type engine interface {
	MaxClock() int64
	Release()
}

// Engine names accepted by Config.Engine.
const (
	// EngineFast is the token-owned fast-path scheduler (internal/sim),
	// the default.
	EngineFast = "fast"
	// EngineRef is the reference scheduler (internal/sim/refsim), used by
	// the differential determinism suite.
	EngineRef = "ref"
)

// engines is the one list of engine names: Config.Engine accepts these and
// "" (EngineFast), and every layer that takes a name from outside — a
// flag, a job spec — checks it with CheckEngine.
var engines = []string{EngineFast, EngineRef}

// CheckEngine returns an error unless name is "" or an engine name.
func CheckEngine(name string) error {
	if name == "" || slices.Contains(engines, name) {
		return nil
	}
	return fmt.Errorf("rma: unknown engine %q (have %s)", name, strings.Join(engines, ", "))
}

// Machine is a simulated distributed machine: topology, latency model, and
// one RMA window per rank. Construct it, let locks and data structures
// allocate window words with Alloc and register initializers with OnInit,
// then call Run to execute one simulated program.
type Machine struct {
	topo *topology.Topology
	lat  LatencyModel

	words int // window words per rank
	// sc is the pooled per-run scratch this machine holds between its
	// first Run and Release; mem, busy, watchers and procBuf are its
	// slices, kept here so the op paths reach them without another hop.
	sc         *scratch
	released   bool
	mem        []int64
	busy       []int64     // per-rank target busy-until (virtual ns)
	watchers   [][]watcher // per target rank, in registration order
	inits      []func(m *Machine)
	seed       int64
	limit      int64 // virtual time limit (0 = none)
	engine     string
	nocoalesce bool
	sink       *trace.Sink
	inj        *fault.Injector // nil when the fault profile perturbs nothing
	nextLockID int
	ran        bool
	stats      Stats
	procBuf    []Proc // flat per-rank Proc slab, indexed by rank
	maxClk     int64
}

// Config carries optional Machine parameters.
type Config struct {
	// Latency is the timing model; DefaultLatency(topo.MaxDistance()) if zero.
	Latency *LatencyModel
	// Seed seeds the per-process RNGs (default 1).
	Seed int64
	// TimeLimit aborts a run once virtual time exceeds it (0 = none).
	TimeLimit int64
	// Engine selects the scheduler implementation: "" or EngineFast for
	// the token-owned fast-path scheduler, EngineRef for the reference
	// one. Both produce byte-identical runs (test-enforced).
	Engine string
	// NoCoalesce sends every charge to the scheduler at once, so a rank
	// gives up the token wherever its clock passes another's. By default
	// publication is lazy: charges accumulate and the scheduler hears of
	// them before the rank's next operation another rank can observe (see
	// Proc.spend). A verification knob — the eager run is the oracle the
	// lazy one must match byte for byte (differential- and fuzz-tested).
	NoCoalesce bool
	// Trace, when non-nil, captures the run's event stream (see
	// internal/trace): RMA op issue/land events, lock protocol events,
	// scheduler blocks and wakes, publication points and token hand-offs,
	// per the sink's class mask. Tracing only observes — it never changes a single
	// virtual-time decision (differential-tested), and a nil sink
	// leaves the hot paths at one nil check.
	Trace *trace.Sink
	// Faults, when non-nil, perturbs the machine deterministically (see
	// internal/fault): RTT jitter, congestion windows on network links,
	// straggler occupancy multipliers and op-issue stalls. The schedule
	// is a pure function of (seed, rank, event index), so faulted runs
	// stay byte-identical across engines; a nil profile leaves charge at
	// one nil check.
	Faults *fault.Profile
}

// NewMachine creates a machine over the given topology with default config.
func NewMachine(topo *topology.Topology) *Machine {
	return NewMachineConfig(topo, Config{})
}

// NewMachineConfig creates a machine with explicit configuration.
func NewMachineConfig(topo *topology.Topology, cfg Config) *Machine {
	lat := DefaultLatency(topo.MaxDistance())
	if cfg.Latency != nil {
		lat = cfg.Latency.extend(topo.MaxDistance())
	}
	if err := lat.validate(topo.MaxDistance()); err != nil {
		panic(err)
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	if err := CheckEngine(cfg.Engine); err != nil {
		panic(err)
	}
	return &Machine{
		topo:       topo,
		lat:        lat,
		seed:       seed,
		limit:      cfg.TimeLimit,
		engine:     cfg.Engine,
		nocoalesce: cfg.NoCoalesce,
		sink:       cfg.Trace,
		inj:        fault.NewInjector(cfg.Faults, seed, topo.Procs()),
	}
}

// Topology returns the machine's topology.
func (m *Machine) Topology() *topology.Topology { return m.topo }

// Procs returns P.
func (m *Machine) Procs() int { return m.topo.Procs() }

// Alloc reserves n consecutive window words on every rank and returns the
// base offset. All allocation must happen before Run.
func (m *Machine) Alloc(n int) int {
	if m.ran {
		panic("rma: Alloc after Run")
	}
	if n <= 0 {
		panic(fmt.Sprintf("rma: Alloc(%d)", n))
	}
	base := m.words
	m.words += n
	return base
}

// OnInit registers f to run (single-threaded) right before the simulated
// program starts; use it to set initial window contents such as ∅ queue
// pointers.
func (m *Machine) OnInit(f func(m *Machine)) { m.inits = append(m.inits, f) }

// Set pokes a window word directly. Only valid inside OnInit callbacks and
// after Run returns (inspection), until Release.
func (m *Machine) Set(rank, offset int, v int64) {
	m.checkLive()
	m.mem[m.index(rank, offset)] = v
}

// At reads a window word directly. Only valid inside OnInit callbacks and
// after Run returns (inspection), until Release.
func (m *Machine) At(rank, offset int) int64 {
	m.checkLive()
	return m.mem[m.index(rank, offset)]
}

// Fill sets the n window words of rank starting at offset to v: the bulk
// form of Set for initializers that write runs of one constant (∅ queue
// pointers, empty hashtable slots). Valid where Set is.
func (m *Machine) Fill(rank, offset, n int, v int64) {
	m.checkLive()
	if n < 0 {
		panic(fmt.Sprintf("rma: Fill of %d words", n))
	}
	if n == 0 {
		return
	}
	lo, hi := m.index(rank, offset), m.index(rank, offset+n-1)
	w := m.mem[lo : hi+1]
	w[0] = v
	for i := 1; i < n; i *= 2 {
		copy(w[i:], w[:i])
	}
}

// Words returns the number of window words allocated per rank.
func (m *Machine) Words() int { return m.words }

// Trace returns the machine's trace sink (nil when tracing is off).
func (m *Machine) Trace() *trace.Sink { return m.sink }

// RegisterLock hands out the next lock id for trace attribution. Lock
// constructors call it before Run; construction order is deterministic,
// so ids are stable across runs and engines.
func (m *Machine) RegisterLock() int {
	id := m.nextLockID
	m.nextLockID++
	return id
}

// Run executes body once per rank as a simulated process and returns when
// all processes finish. It may be called multiple times; window memory is
// re-initialized before each run. The shape-sized buffers (window memory,
// busy horizons, watcher lists, the Proc slab, per-distance counts) belong
// to a pooled scratch the machine takes on its first Run and holds until
// Release.
func (m *Machine) Run(body func(p *Proc)) error {
	m.checkLive()
	p := m.topo.Procs()
	if m.words == 0 {
		m.words = 1 // allow op-less smoke programs
	}
	m.reset(p)
	for _, f := range m.inits {
		f(m)
	}
	m.ran = true
	simCfg := sim.Config{Procs: p, TimeLimit: m.limit, BarrierCost: barrierCost, Trace: m.sink}
	wrap := func(h schedHandle) {
		// Procs live in one flat slab indexed by rank (no per-rank boxing).
		// The re-initialization clears everything a previous run on this
		// scratch left in the slot except the rank's generator state (see
		// procRand), which Rand() re-opens lazily: most workload profiles
		// never draw, and at 10^6 ranks eager ~5KB generators would dwarf
		// the flat scheduler state.
		proc := &m.procBuf[h.ID()]
		*proc = Proc{
			m:    m,
			rank: h.ID(),
			h:    h,
			gen:  proc.gen,
		}
		if m.sink != nil {
			// Per-class buffers, resolved once: a disabled class leaves
			// its pointer nil, so each emission site costs one check.
			proc.opBuf = m.sink.Buf(proc.rank, trace.ClassOp)
			proc.lockBuf = m.sink.Buf(proc.rank, trace.ClassLock)
			proc.chargeBuf = m.sink.Buf(proc.rank, trace.ClassCharge)
		}
		body(proc)
		proc.flush() // the exit happens at the rank's effective clock; may yield
	}
	var eng engine
	var err error
	switch m.engine {
	case EngineRef:
		sched := refsim.New(simCfg)
		err = sched.Run(func(h *refsim.Handle) { wrap(h) })
		eng = sched
	default:
		sched := sim.New(simCfg)
		err = sched.Run(func(h *sim.Handle) { wrap(h) })
		eng = sched
	}
	m.maxClk = eng.MaxClock()
	eng.Release()
	return err
}

// scratch owns every buffer of a run whose size depends only on the
// machine's shape (ranks × window words, ranks, distance classes). A
// machine takes one in reset and returns it in Release, so a sweep worker
// running one machine per cell stops allocating — and seeding — the same
// state over and over. Between runs a scratch is confined to whoever holds
// it: the pool, or exactly one machine.
type scratch struct {
	mem      []int64
	busy     []int64
	watchers [][]watcher
	procs    []Proc // each slot keeps its rank's generator state (Proc.gen)
	perDist  []OpCount
}

// scratchPool recycles scratches across machines, like sim's corePool for
// scheduler cores. It is a sync.Pool, so an idle process gives the memory
// back to the collector instead of pinning the largest shape it ever ran.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// reset prepares the per-run buffers: it takes a scratch from the pool on
// the machine's first run (later runs keep the one it holds) and sizes and
// zeroes every buffer for p ranks, whatever shape left them behind.
func (m *Machine) reset(p int) {
	if m.sc == nil {
		m.sc = scratchPool.Get().(*scratch)
	}
	sc := m.sc
	// The window slab grows with 1/8 head-room: consecutive cells of a
	// grid differ slightly in window width (RMA-RW's is a few words wider
	// than foMPI's), and an exact fit would strand the slab at every such
	// step. The other buffers are sized by the rank count alone.
	need := p * m.words
	sc.mem = zeroed(sc.mem, need, need/8)
	sc.busy = zeroed(sc.busy, p, 0)
	sc.perDist = zeroed(sc.perDist, m.topo.MaxDistance()+1, 0)
	// An aborted run leaves its parked waiters registered; drop them over
	// the previous shape's whole length so a list that falls out of range
	// now is empty when a wider shape brings it back.
	for i, ws := range sc.watchers {
		clear(ws)
		sc.watchers[i] = ws[:0]
	}
	sc.watchers = extended(sc.watchers, p)
	// Proc slots are re-initialized by Run's wrap, all but the generator
	// state of the ranks already there.
	sc.procs = extended(sc.procs, p)
	m.mem, m.busy, m.watchers, m.procBuf = sc.mem, sc.busy, sc.watchers, sc.procs
	m.stats = Stats{PerDistance: sc.perDist}
}

// zeroed returns a with length n and every element zero, reusing its
// backing array when large enough and allocating spare extra capacity
// when not.
func zeroed[T any](a []T, n, spare int) []T {
	if cap(a) < n {
		return make([]T, n, n+spare)
	}
	a = a[:n]
	clear(a)
	return a
}

// extended returns a with length n and its elements kept, moving them to a
// larger backing array only when it must.
func extended[T any](a []T, n int) []T {
	if cap(a) < n {
		b := make([]T, n)
		copy(b, a[:cap(a)])
		return b
	}
	return a[:n]
}

// Release returns the machine's scratch to the pool once the run's results
// have been read: window contents (At), Stats and anything else that looks
// into the machine. The machine must not be used afterwards — At, Set,
// Fill, Stats and Run panic rather than read another machine's window.
// Release is idempotent, and optional: a machine that is never released
// falls to the garbage collector with its scratch.
func (m *Machine) Release() {
	m.released = true
	sc := m.sc
	if sc == nil {
		return
	}
	m.sc, m.mem, m.busy, m.watchers, m.procBuf = nil, nil, nil, nil, nil
	m.stats.PerDistance = nil
	scratchPool.Put(sc)
}

func (m *Machine) checkLive() {
	if m.released {
		panic("rma: machine released")
	}
}

// MaxClock returns the makespan (maximum virtual time, ns) of the last run.
func (m *Machine) MaxClock() int64 { return m.maxClk }

// Stats returns aggregate operation statistics of the last run. Its
// PerDistance slice is the machine's own: read it before the next Run or
// Release.
func (m *Machine) Stats() Stats {
	m.checkLive()
	return m.stats
}

func (m *Machine) index(rank, offset int) int {
	if rank < 0 || rank >= m.topo.Procs() {
		panic(fmt.Sprintf("rma: rank %d out of range [0,%d)", rank, m.topo.Procs()))
	}
	if offset < 0 || offset >= m.words {
		panic(fmt.Sprintf("rma: offset %d out of range [0,%d)", offset, m.words))
	}
	return rank*m.words + offset
}

// charge computes the virtual duration of one op from origin clock to
// completion, updates the target's busy-until, and returns the duration
// plus the virtual time at which the operation lands at the target. The
// origin clock is the process's effective clock (published plus pending
// charges), so lazy publication never skews latency or occupancy.
// d is the topological distance from origin to target, computed once per
// op by the caller. The caller must have synced (Proc.sync): busy-until
// updates are only in virtual-time order if every origin is the
// scheduler's (clock, id) minimum when it makes one.
func (m *Machine) charge(origin *Proc, target, d int, atomic bool) (dur, land int64) {
	var rtt, occ int64
	if atomic {
		rtt, occ = m.lat.AtomicRTT[d], m.lat.AtomicOcc[d]
	} else {
		rtt, occ = m.lat.DataRTT[d], m.lat.DataOcc[d]
	}
	clock := origin.Now()
	issue := clock
	if m.inj != nil {
		// Deterministic fault injection: stall defers the op's issue
		// (the rank is descheduled), jitter/congestion widen the round
		// trip, stragglers widen target occupancy. All perturbations are
		// additive-only, and the memory effect still applies at the
		// unperturbed issue time.
		var stall int64
		rtt, occ, stall = m.inj.Perturb(origin.rank, origin.fidx, clock, d, target, rtt, occ)
		origin.fidx++
		issue += stall
	}
	// Split the round trip into outbound and return wire time; the return
	// half rounds up so the two always sum to the configured RTT (an odd
	// RTT must not lose a nanosecond to truncation).
	wireOut := rtt / 2
	wireBack := rtt - wireOut
	start := issue + wireOut
	if b := m.busy[target]; b > start {
		start = b
	}
	m.busy[target] = start + occ
	land = start + occ
	complete := land + wireBack
	dur = complete - clock
	if dur < 1 {
		dur = 1
	}
	return dur, land
}

// watcher is a process blocked in SpinUntil on the word at offset of some
// target's window. A target's watchers form one flat list (Machine.watchers)
// with the offset in the entry, not a map keyed by offset: a write scans
// its target's waiters on other words too, but those are few (the locks
// park a rank on its own queue node or on one counter word), and a spinning
// rank costs one list entry instead of a map plus a slice.
type watcher struct {
	p      *Proc
	offset int
	cond   func(int64) bool
}

// addWatcher registers a SpinUntil waiter on target's word at w.offset.
func (m *Machine) addWatcher(target int, w watcher) {
	m.watchers[target] = append(m.watchers[target], w)
}

// wake re-schedules every watcher of the given word whose condition is
// satisfied by the new value, in registration order; the wake-up clock is
// the landing time of the triggering write plus the watcher's read latency
// for the word.
func (m *Machine) wake(target, offset int, newVal, land int64) {
	ws := m.watchers[target]
	if len(ws) == 0 {
		return
	}
	remaining := ws[:0]
	for _, w := range ws {
		if w.offset == offset && w.cond(newVal) {
			detect := m.lat.DataRTT[m.topo.Distance(w.p.rank, target)]
			w.p.h.WakeAt(land + detect)
			continue
		}
		remaining = append(remaining, w)
	}
	clear(ws[len(remaining):]) // release the woken waiters' cond closures
	m.watchers[target] = remaining
}
