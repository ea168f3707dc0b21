package rma

import (
	"fmt"
	"math/rand"

	"rmalocks/internal/sim"
	"rmalocks/internal/trace"
)

// Proc is the per-process handle of a simulated program: it carries the
// process rank and implements the RMA operation set of the paper's
// Listing 1. All methods must be called only by the process itself: from
// the body function passed to Machine.Run, or from a Retry it handed to
// Poll.
type Proc struct {
	m    *Machine
	rank int
	h    schedHandle
	// rng is the rank's random source once this run has drawn from it
	// (nil until then, see Rand); gen is the generator state behind it,
	// which stays in the rank's slot of the scratch's Proc slab from run
	// to run. Both are touched only by the rank itself.
	rng *rand.Rand
	gen *procRand
	// pending is virtual time charged but not yet published to the
	// scheduler (lazy publication, see spend). The process's effective
	// clock is h.Clock() + pending.
	pending int64
	// stepAt is the effective clock, plus one, at which the Retry try in
	// progress began, 0 outside one: a try keeps to the step contract (see
	// Poll) exactly while Now() still reads that.
	stepAt int64
	// poll is the Retry of the Poll in progress while the scheduler makes
	// its tries (see poller), nil otherwise.
	poll Retry
	// fidx is the rank's running charge-event index, the event axis of
	// the deterministic fault schedule (see internal/fault). charge is
	// called in the same per-rank order on every engine, so the index —
	// and therefore the schedule — is engine-invariant. Only advanced
	// when fault injection is on.
	fidx uint64
	// Per-class trace buffers (nil when tracing or the class is off):
	// opBuf receives RMA op issue/land events, lockBuf the lock
	// protocol events emitted via the TraceXxx helpers, chargeBuf the
	// publication points (flush).
	opBuf, lockBuf, chargeBuf *trace.Buf
}

// Rank returns the process's rank, 0-based.
func (p *Proc) Rank() int { return p.rank }

// Machine returns the machine this process runs on.
func (p *Proc) Machine() *Machine { return p.m }

// Now returns the process's effective virtual clock in nanoseconds,
// including charges not yet published to the scheduler.
func (p *Proc) Now() int64 { return p.h.Clock() + p.pending }

// Rand returns the process's deterministic random source, opened on first
// use in a run. The seed derivation is fixed (machine seed and rank only),
// so the stream is byte-identical no matter when — or whether — other
// ranks draw, and no matter what ran on the machine's scratch before: the
// values are those of rand.New(rand.NewSource(seed)).
func (p *Proc) Rand() *rand.Rand {
	if p.rng == nil {
		if p.gen == nil {
			p.gen = new(procRand)
		}
		p.rng = p.gen.open(p.m.seed*1000003 + int64(p.rank))
	}
	return p.rng
}

// randLogCap bounds a generator's replay log in words: 8KB, the order of
// the ~5KB source it stands in for.
const randLogCap = 1024

// procRand is one rank's generator state, kept across runs because seeding
// math/rand's source (607 words through a LCG) costs more than everything
// else a short cell does with it, while every cell of a grid asks rank r
// for the same seed. It logs the source's raw Uint64 output; a run that
// opens it with the seed it already has replays the log and then carries
// on drawing from the live source, which stands exactly len(log) draws
// past that seed. It is a rand.Source64 whose Int63 masks Uint64 just as
// math/rand's own source does, and rand.Rand derives every other draw
// (Int63n, Intn, Float64, Zipf) from those two, so a replayed stream is
// bit-identical to a freshly seeded one.
type procRand struct {
	src  rand.Source64 // the live math/rand source
	seed int64
	log  []uint64 // src's output since seeding, complete unless over
	pos  int      // next log word to replay; == len(log) when drawing live
	over bool     // src has drawn past the log's cap: re-seed before reuse
	rnd  rand.Rand
}

// open readies the generator for a run that seeds it with seed: replay
// when the log still describes that seed's stream from the start,
// re-seed in place otherwise.
func (g *procRand) open(seed int64) *rand.Rand {
	if g.src == nil {
		g.src = rand.NewSource(seed).(rand.Source64)
		g.seed = seed
	} else if g.seed != seed || g.over {
		g.Seed(seed)
	}
	g.pos = 0
	g.rnd = *rand.New(g) // a fresh Rand: Read keeps state of its own
	return &g.rnd
}

// Seed implements rand.Source.
func (g *procRand) Seed(seed int64) {
	g.src.Seed(seed)
	g.seed, g.log, g.pos, g.over = seed, g.log[:0], 0, false
}

// Uint64 implements rand.Source64.
func (g *procRand) Uint64() uint64 {
	if g.pos < len(g.log) {
		v := g.log[g.pos]
		g.pos++
		return v
	}
	v := g.src.Uint64()
	if len(g.log) < randLogCap {
		g.log = append(g.log, v)
		g.pos++
	} else {
		g.over = true
	}
	return v
}

// Int63 implements rand.Source.
func (g *procRand) Int63() int64 { return int64(g.Uint64() &^ (1 << 63)) }

// spend charges d nanoseconds of virtual time. Publication is lazy: the
// charge only accumulates in p.pending, and the scheduler hears of it at
// the rank's next operation another rank can observe (sync), or where the
// published clock itself is read (flush). Until then the rank keeps the
// token whatever its effective clock: nothing it does in between — Flush,
// Compute, back-off — touches state another rank reads, so running it
// early is invisible, and the observable operations still happen in
// (effective clock, rank) order because sync makes the rank the scheduler's
// minimum first.
//
// The time limit is the one thing a charge can run into without an
// observable operation following (a pure-Compute loop). The charge that
// would cross it publishes what came before it, so the rank waits its turn
// exactly as an eager run's would, and then goes to the scheduler alone:
// the run dies on the same rank at the same clock as with NoCoalesce.
func (p *Proc) spend(d int64) {
	if d < 1 {
		d = 1 // match sim.Advance's minimum step
	}
	if p.m.nocoalesce {
		p.h.Advance(d)
		return
	}
	if lim := p.m.limit; lim > 0 && p.Now()+d > lim {
		if p.poll != nil {
			p.cut(dying{p: p, d: d})
		}
		p.flush()
		p.h.Advance(d)
		return
	}
	p.pending += d
}

// sync runs at the top of every operation another rank can observe — a
// window access, the busy-until update of charge, a wake — and holds the
// one horizon check of the layer: an effective clock past the horizon
// means some rank is due first, so the pending time is published and the
// token handed over until this rank is the (clock, id) minimum again. On
// return the rank may issue at Now() as if every charge had gone to the
// scheduler at once.
func (p *Proc) sync() {
	if p.stepAt != 0 && p.stepAt != p.Now()+1 {
		panic(fmt.Sprintf("rma: rank %d: a Retry try issued an observable operation after charging time (one per try, first)", p.rank))
	}
	if p.h.Clock()+p.pending > p.h.Horizon() {
		p.flush()
	}
}

// flush publishes the pending virtual time whatever the horizon, making
// the scheduler's clock for this rank exact: before it blocks, enters a
// barrier, aborts or exits — the points where the scheduler, or a waking
// rank, reads that clock. It yields the token when the published clock
// crosses the horizon, except right after sync, which leaves the effective
// clock at or below it (SpinUntil relies on that).
func (p *Proc) flush() {
	if d := p.take(); d != 0 {
		p.h.Advance(d)
	}
}

// take empties pending into the caller's hands, who owes it to the
// scheduler.
func (p *Proc) take() int64 {
	d := p.pending
	if d != 0 {
		p.pending = 0
		if p.chargeBuf != nil {
			p.chargeBuf.Emit(trace.EvFlush, p.h.Clock()+d, d, 0, 0)
		}
	}
	return d
}

// traceOp records one RMA operation issue in the trace stream: the
// issue clock is the effective clock (identical whether charges are
// published lazily or at once), land the virtual time the operation
// applies at the target.
func (p *Proc) traceOp(op int64, target int, land int64) {
	if p.opBuf != nil {
		p.opBuf.Emit(trace.EvOp, p.Now(), op, int64(target), land)
	}
}

func wmode(write bool) int64 {
	if write {
		return 1
	}
	return 0
}

// TraceAcquireStart records the start of a lock acquisition (lock ids
// come from Machine.RegisterLock). The TraceXxx helpers are the
// instrumentation surface the lock implementations call around their
// protocols; with tracing off each is one nil check.
func (p *Proc) TraceAcquireStart(id int, write bool) {
	if p.lockBuf != nil {
		p.lockBuf.Emit(trace.EvAcqStart, p.Now(), int64(id), wmode(write), 0)
	}
}

// TraceAcquired records critical-section entry, tagging the event with
// the rank's leaf machine element so analyses can attribute handoff
// locality without re-deriving the topology.
func (p *Proc) TraceAcquired(id int, write bool) {
	if p.lockBuf != nil {
		elem := p.m.topo.Element(p.rank, p.m.topo.Levels())
		p.lockBuf.Emit(trace.EvAcquired, p.Now(), int64(id), wmode(write), int64(elem))
	}
}

// TraceRelease records the start of a lock release.
func (p *Proc) TraceRelease(id int, write bool) {
	if p.lockBuf != nil {
		p.lockBuf.Emit(trace.EvRelease, p.Now(), int64(id), wmode(write), 0)
	}
}

// TraceAcquireTimeout records a bounded acquire giving up: it resolves
// the rank's pending acq-start for the lock without an acquisition
// (trace.Validate enforces the pairing).
func (p *Proc) TraceAcquireTimeout(id int, write bool) {
	if p.lockBuf != nil {
		p.lockBuf.Emit(trace.EvAcqTimeout, p.Now(), int64(id), wmode(write), 0)
	}
}

// Abort terminates the whole run with err: every rank unwinds and Run
// returns an error wrapping err (errors.Is-visible), identically on both
// engines (conformance-tested). It never returns. Use it for
// fatal protocol conditions a rank detects mid-run, e.g. exhausted
// bounded-acquire retries under a fault profile configured to abort.
func (p *Proc) Abort(err error) {
	if p.poll != nil {
		p.cut(dying{p: p, err: err})
	}
	p.flush() // the error carries the published clock, and ranks due earlier fail first
	p.h.Abort(err)
	panic("rma: scheduler Abort returned") // unreachable: Abort unwinds
}

// Put atomically places src in target's window at offset.
func (p *Proc) Put(src int64, target, offset int) {
	p.sync()
	i := p.m.index(target, offset)
	d := p.m.topo.Distance(p.rank, target)
	p.m.mem[i] = src
	p.m.stats.count(opPut, d)
	dur, land := p.m.charge(p, target, d, false)
	p.traceOp(trace.OpPut, target, land)
	p.m.wake(target, offset, src, land)
	p.spend(dur)
}

// Get atomically fetches and returns the word at target's window offset.
// Per the paper, the value is only guaranteed after a subsequent Flush; in
// this simulation it is already the linearized value at issue time.
func (p *Proc) Get(target, offset int) int64 {
	p.sync()
	i := p.m.index(target, offset)
	d := p.m.topo.Distance(p.rank, target)
	v := p.m.mem[i]
	p.m.stats.count(opGet, d)
	dur, land := p.m.charge(p, target, d, false)
	p.traceOp(trace.OpGet, target, land)
	p.spend(dur)
	return v
}

// Accumulate atomically applies op with operand oprd to the word at
// target's window offset.
func (p *Proc) Accumulate(oprd int64, target, offset int, op Op) {
	p.sync()
	i := p.m.index(target, offset)
	d := p.m.topo.Distance(p.rank, target)
	var nv int64
	switch op {
	case OpSum:
		nv = p.m.mem[i] + oprd
	case OpReplace:
		nv = oprd
	default:
		panic(fmt.Sprintf("rma: unknown op %v", op))
	}
	p.m.mem[i] = nv
	p.m.stats.count(opAcc, d)
	dur, land := p.m.charge(p, target, d, true)
	p.traceOp(trace.OpAcc, target, land)
	p.m.wake(target, offset, nv, land)
	p.spend(dur)
}

// FAO atomically applies op with operand oprd to the word at target's
// window offset and returns the word's previous value.
func (p *Proc) FAO(oprd int64, target, offset int, op Op) int64 {
	p.sync()
	i := p.m.index(target, offset)
	d := p.m.topo.Distance(p.rank, target)
	prev := p.m.mem[i]
	var nv int64
	switch op {
	case OpSum:
		nv = prev + oprd
	case OpReplace:
		nv = oprd
	default:
		panic(fmt.Sprintf("rma: unknown op %v", op))
	}
	p.m.mem[i] = nv
	p.m.stats.count(opFAO, d)
	dur, land := p.m.charge(p, target, d, true)
	p.traceOp(trace.OpFAO, target, land)
	p.m.wake(target, offset, nv, land)
	p.spend(dur)
	return prev
}

// CAS atomically compares the word at target's window offset with cmp and,
// if equal, replaces it with src; it returns the word's previous value.
func (p *Proc) CAS(src, cmp int64, target, offset int) int64 {
	p.sync()
	i := p.m.index(target, offset)
	d := p.m.topo.Distance(p.rank, target)
	prev := p.m.mem[i]
	changed := prev == cmp
	if changed {
		p.m.mem[i] = src
	}
	p.m.stats.count(opCAS, d)
	dur, land := p.m.charge(p, target, d, true)
	p.traceOp(trace.OpCAS, target, land)
	if changed {
		p.m.wake(target, offset, src, land)
	}
	p.spend(dur)
	return prev
}

// Flush completes all pending RMA calls targeted at target. Operations in
// this simulation complete synchronously, so Flush only charges a small
// bookkeeping cost; it is kept so protocols read exactly like the paper.
func (p *Proc) Flush(target int) {
	p.m.stats.count(opFlush, 0)
	p.traceOp(trace.OpFlush, target, 0)
	p.spend(flushCost)
}

// FlushAll completes all pending RMA calls of the process.
func (p *Proc) FlushAll() {
	p.m.stats.count(opFlush, 0)
	p.traceOp(trace.OpFlush, -1, 0)
	p.spend(flushCost)
}

// flushCost is the virtual cost (ns) of a Flush; small but nonzero so that
// spin loops always advance virtual time.
const flushCost = 10

// SpinUntil waits until the word at target's window offset satisfies cond
// and returns the satisfying value. It models an MCS-style spin: the
// waiting process polls a (usually local or intra-node) word, which on
// real hardware costs nothing until the granting write arrives; here the
// process blocks and resumes at the landing time of that write plus one
// read latency. Use it for grant flags and status words that one write
// decides; a genuine contention loop (a spinlock's CAS retries, a drain
// that re-reads a counter) is a Poll.
func (p *Proc) SpinUntil(target, offset int, cond func(int64) bool) int64 {
	p.notInTry("SpinUntil")
	p.sync()
	idx := p.m.index(target, offset)
	v := p.m.mem[idx]
	if cond(v) {
		// Fast path: one ordinary read observes the satisfying value.
		d := p.m.topo.Distance(p.rank, target)
		p.m.stats.count(opGet, d)
		dur, land := p.m.charge(p, target, d, false)
		p.traceOp(trace.OpGet, target, land)
		p.spend(dur)
		return v
	}
	// Publish pending time before blocking: while we are blocked, the
	// granting write computes our wake-up clock against the published
	// clock. After the sync above this flush cannot yield, so the
	// register/block pair below still happens in the same scheduler slice
	// as the check — no granting write can slip in between (no lost
	// wake-up).
	p.flush()
	for {
		p.m.addWatcher(target, watcher{p: p, offset: offset, cond: cond})
		p.h.Block()
		// A satisfying write landed (our wake clock includes the read
		// latency). Re-validate: later writes may have landed before we
		// were scheduled again.
		v = p.m.mem[idx]
		if cond(v) {
			return v
		}
	}
}

// Compute charges d nanoseconds of local computation (e.g., critical
// section work) to the process's virtual clock.
func (p *Proc) Compute(d int64) {
	p.spend(d)
}

// Barrier synchronizes all processes of the machine: everyone blocks until
// the last arrives, then all clocks jump to the maximum plus a fixed cost.
func (p *Proc) Barrier() {
	p.notInTry("Barrier")
	p.flush() // arrival clocks must be exact before synchronizing; may yield
	p.h.Barrier()
}

// Retry is one try of something a process repeats until it succeeds: a
// spinlock's CAS, one read of a word it waits to change.
type Retry interface {
	// Try makes one try and reports whether it succeeded. The step
	// contract: it issues at most one operation another rank can observe
	// (Put, Get, Accumulate, FAO, CAS), before anything that charges time
	// (Flush, Compute, back-off), and never calls SpinUntil, Barrier or
	// Poll. A loop body with two such operations is a Retry with two
	// phases that makes one per try. What a try needs from one call to the
	// next it keeps in its receiver.
	Try() bool
}

// RetryFunc makes a Retry of a function.
type RetryFunc func() bool

// Try implements Retry.
func (f RetryFunc) Try() bool { return f() }

// Poll waits until r succeeds. It means exactly
//
//	for !r.Try() {
//	}
//
// and is how the lock protocols spell a retry loop, because on the default
// engine the loop need not run on the process's own stack: once a failed
// try has charged the process past its horizon, the scheduler makes the
// later tries in its place, each at the instant the process is the
// (clock, rank) minimum — where sync would have resumed the loop — and
// switches into the process only after the one that succeeds (see
// sim.Handle.Poll). The step contract is what makes that possible: the
// try's one observable operation comes first, where the process is the
// minimum and need not wait, and nothing after it can yield. Whatever the
// tries do — operations, charges, fault draws, trace events, their clocks
// — is what the loop does, so the reference engine and NoCoalesce, which
// run the loop as written, stay the oracle. A try that breaks the contract
// panics with the rank on every engine and in both modes.
func (p *Proc) Poll(r Retry) {
	p.notInTry("Poll")
	if p.try(r) {
		return
	}
	h, fast := p.h.(*sim.Handle)
	if !fast || p.m.nocoalesce {
		for !p.try(r) {
		}
		return
	}
	p.poll = r
	h.Poll((*poller)(p))
	p.poll = nil
}

// try makes one try of r under the step contract, which sync and notInTry
// enforce.
func (p *Proc) try(r Retry) bool {
	p.stepAt = p.Now() + 1
	done := r.Try()
	p.stepAt = 0
	return done
}

func (p *Proc) notInTry(what string) {
	if p.stepAt != 0 {
		panic(fmt.Sprintf("rma: rank %d: %s inside a Retry try", p.rank, what))
	}
}

// poller is a Proc as the scheduler's sim.Stepper: p.poll under lazy
// publication.
type poller Proc

// Step makes tries of p.poll for as long as the loop would go on without
// giving the token up: where the sync of the next try would find somebody
// due first, it hands the scheduler the pending time in that sync's place.
func (q *poller) Step() (d int64, done bool) {
	p := (*Proc)(q)
	defer func() {
		if r := recover(); r != nil {
			if r != (cutShort{}) {
				panic(r)
			}
			p.stepAt = 0
			d, done = p.take(), false
		}
	}()
	for {
		if d := p.pending; d != 0 && p.h.Clock()+d > p.h.Horizon() {
			return p.take(), false
		}
		if p.try(p.poll) {
			return 0, true
		}
	}
}

// cutShort unwinds a try that the scheduler may be making on another rank's
// stack, at a point where the loop would publish its pending time and wait
// for its turn with something left to do that ends the run.
type cutShort struct{}

// cut ends the try in progress and leaves last as the process's next try:
// Step hands the pending time to the scheduler, and last runs when the
// process is the minimum again — unless the run has died of another rank by
// then, as it would have for the loop.
func (p *Proc) cut(last Retry) {
	p.poll = last
	panic(cutShort{})
}

// dying is the last try of a process that ran into the end of the run inside
// one: the charge that crosses the time limit, alone (see spend), or an
// Abort.
type dying struct {
	p   *Proc
	d   int64
	err error
}

func (x dying) Try() bool {
	if x.err != nil {
		x.p.h.Abort(x.err)
	}
	x.p.h.Advance(x.d)
	panic("rma: a charge past the time limit returned")
}
