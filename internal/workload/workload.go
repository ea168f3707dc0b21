// Package workload is the unified workload subsystem: it decouples the
// three axes every benchmark in this repository varies —
//
//   - which lock scheme runs (any locks.Mutex / locks.RWMutex),
//   - what the critical section does (the Workload interface),
//   - how contention arrives (the Profile interface: uniform,
//     Zipf-skewed, bursty, time-varying reader/writer ratio),
//
// — behind one generic harness (Run) that produces unified
// throughput/latency reports via internal/stats. internal/sweep turns a
// grid of coordinates into Specs for it: cmd/workbench's grids and the
// paper's figures (internal/bench) both run that way.
//
// Everything is driven by the machine's per-process seeded RNG, so a run
// is a deterministic function of (Spec, MachineSpec.Seed).
package workload

import (
	"rmalocks/internal/dht"
	"rmalocks/internal/rma"
)

// Workload supplies the critical-section body of a benchmark iteration
// plus its setup and result extraction. Implementations allocate any
// window state in Setup (before Machine.Run) and must draw randomness
// only from p.Rand().
type Workload interface {
	// Name is a short stable identifier ("empty", "sharedop", …).
	Name() string
	// Setup allocates and initializes window state; called once per run,
	// before Machine.Run.
	Setup(m *rma.Machine)
	// Body runs while the lock selected by in.Lock is held (shared if
	// !in.Write, exclusive otherwise; always exclusive for plain mutex
	// schemes).
	Body(p *rma.Proc, in Intent)
	// Extract adds workload-specific results to the report after a run
	// (e.g. elements stored in a hashtable).
	Extract(m *rma.Machine, r *Report)
}

// Empty is the empty-critical-section workload (the paper's ECSB/LB/WARB
// bodies): the lock protocol itself is the entire cost.
type Empty struct{}

func (Empty) Name() string                  { return "empty" }
func (Empty) Setup(*rma.Machine)            {}
func (Empty) Body(*rma.Proc, Intent)        {}
func (Empty) Extract(*rma.Machine, *Report) {}

// SharedOp performs one remote memory access to a shared word on a
// random rank (the paper's SOB, modelling fine-grained graph
// processing): writers Put, readers Get.
type SharedOp struct {
	off int
}

func (*SharedOp) Name() string { return "sharedop" }

func (w *SharedOp) Setup(m *rma.Machine) { w.off = m.Alloc(1) }

func (w *SharedOp) Body(p *rma.Proc, in Intent) {
	target := p.Rand().Intn(p.Machine().Procs())
	if in.Write {
		p.Put(1, target, w.off)
	} else {
		p.Get(target, w.off)
	}
	p.Flush(target)
}

func (*SharedOp) Extract(*rma.Machine, *Report) {}

// CounterCompute increments a shared counter on rank 0 and then computes
// locally for ComputeNs plus a uniform draw in [0, JitterNs) (the
// paper's WCSB: a workload-heavy critical section).
type CounterCompute struct {
	// ComputeNs is the base local compute time (default 1000 ns).
	ComputeNs int64
	// JitterNs adds a uniform draw in [0, JitterNs) (default 3000 ns).
	JitterNs int64

	off int
}

func (*CounterCompute) Name() string { return "counter" }

func (w *CounterCompute) Setup(m *rma.Machine) { w.off = m.Alloc(1) }

func (w *CounterCompute) Body(p *rma.Proc, in Intent) {
	base, jitter := w.ComputeNs, w.JitterNs
	if base <= 0 {
		base = 1000
	}
	if jitter <= 0 {
		jitter = 3000
	}
	p.Accumulate(1, 0, w.off, rma.OpSum)
	p.Flush(0)
	p.Compute(base + p.Rand().Int63n(jitter))
}

func (w *CounterCompute) Extract(m *rma.Machine, r *Report) {
	r.Extra["counter"] = float64(m.At(0, w.off))
}

// DHTOps runs key-value operations against the distributed hashtable of
// the paper's §5.3: a write intent inserts a uniformly random key, a
// read intent looks one up. With ShardByLock ("dht"), lock k of the set
// guards the volume of rank k (a sharded store whose per-volume
// contention follows the profile's lock distribution), so only the
// first min(locks, P) ranks host a volume. Without it ("dhtvol") it is
// the paper's DHT benchmark: every operation targets the volume of
// rank 0, which hosts it and runs no cycles; the run has no warm-up
// phase unless the Spec asks for one, and the volume has an overflow
// cell for every insert the run can make (Spec.fill, Spec.first).
type DHTOps struct {
	// Slots and Cells give the per-volume geometry (defaults 512, and
	// 4096 sharded; without Cells the DHT benchmark sizes its volume to
	// the run).
	Slots, Cells int
	// Keyspace bounds the random keys (default 1<<30).
	Keyspace int64
	// ShardByLock maps lock index to volume rank. Only sound when the
	// profile's lock-set size is at most the process count, so no two
	// locks guard the same volume.
	ShardByLock bool

	// Table is the underlying hashtable, populated by Setup.
	Table *dht.Table

	// The run's own geometry and operation family, which Spec.fill sets
	// on every run, so a value reused for another Spec keeps nothing of
	// the last: volumes is how many ranks host a volume (the volumes a
	// run can touch, and no more), cells each volume's overflow cells,
	// and atomic selects the lock-free CAS/FAO family, which
	// SchemeFoMPIA runs; otherwise the Plain family is used and the
	// surrounding lock provides exclusion.
	volumes, cells int
	atomic         bool
}

func (w *DHTOps) Name() string {
	if w.ShardByLock {
		return "dht"
	}
	return "dhtvol"
}

// hostedDHT returns w if it is the paper's DHT benchmark, the
// single-volume DHTOps, and nil otherwise.
func hostedDHT(w Workload) *DHTOps {
	if d, ok := w.(*DHTOps); ok && !d.ShardByLock {
		return d
	}
	return nil
}

func (w *DHTOps) Setup(m *rma.Machine) {
	slots, cells := w.Slots, w.cells
	if slots <= 0 {
		slots = 512
	}
	if cells <= 0 {
		cells = 4096
	}
	if w.Keyspace <= 0 {
		w.Keyspace = 1 << 30
	}
	w.Table = dht.New(m, w.volumes, slots, cells)
}

func (w *DHTOps) volume(p *rma.Proc, in Intent) int {
	if w.ShardByLock {
		return in.Lock % p.Machine().Procs()
	}
	return 0
}

func (w *DHTOps) Body(p *rma.Proc, in Intent) {
	vol := w.volume(p, in)
	key := p.Rand().Int63n(w.Keyspace)
	switch {
	case in.Write && w.atomic:
		w.Table.AtomicInsert(p, vol, key)
	case in.Write:
		w.Table.PlainInsert(p, vol, key)
	case w.atomic:
		w.Table.AtomicLookup(p, vol, key)
	default:
		w.Table.PlainLookup(p, vol, key)
	}
}

func (w *DHTOps) Extract(m *rma.Machine, r *Report) {
	stored := 0
	for vol := 0; vol < w.volumes; vol++ {
		stored += w.Table.Count(m, vol)
	}
	r.Extra["stored"] = float64(stored)
	r.Extra["overflows"] = float64(w.Table.Overflows)
}

// WorkloadNames lists the named critical-section workloads for CLI
// dispatch.
var WorkloadNames = []string{"empty", "sharedop", "counter", "dht", "dhtvol"}

// LockSet is the lock-set size a run of the named workload takes when a
// grid asks for locks at P ranks: the sharded DHT needs a volume per
// lock, and the DHT benchmark's one volume takes one lock.
func LockSet(name string, locks, p int) int {
	switch {
	case name == "dht" && locks > p:
		return p
	case name == "dhtvol":
		return 1
	}
	return locks
}

// HasAtomicFamily reports whether the named workload has an atomic
// operation family, the only thing SchemeFoMPIA runs: the hashtable's.
func HasAtomicFamily(name string) bool {
	w, err := ByName(name)
	_, ok := w.(*DHTOps)
	return err == nil && ok
}

// ByName builds one of the named workloads with default geometry. Fresh
// value per call: workloads carry per-run state.
func ByName(name string) (Workload, error) {
	switch name {
	case "empty":
		return Empty{}, nil
	case "sharedop":
		return &SharedOp{}, nil
	case "counter":
		return &CounterCompute{}, nil
	case "dht":
		return &DHTOps{ShardByLock: true}, nil
	case "dhtvol":
		return &DHTOps{}, nil
	default:
		return nil, errUnknown("workload", name, WorkloadNames)
	}
}
