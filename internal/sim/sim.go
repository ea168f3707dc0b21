// Package sim implements a deterministic discrete-event scheduler for
// simulated distributed processes.
//
// Each simulated process is a coroutine with a virtual clock (nanoseconds).
// The scheduler admits exactly one process at a time: the one with the
// minimum (clock, id) pair. A process runs until it calls Advance (charging
// virtual time for an operation it just performed), Block, Barrier, or
// exits, at which point the token is handed to the new minimum. Execution
// is therefore a fully deterministic sequential interleaving in
// virtual-time order, independent of the host's core count and of the Go
// scheduler.
//
// # The trampoline
//
// Scheduler.Run is a trampoline on its caller's goroutine, and every rank
// body runs inside an iter.Pull coroutine created the first time the rank
// is dispatched. A rank that gives up the token picks the next (clock, id)
// minimum itself, records it in Scheduler.running and yields; the
// trampoline regains control and resumes the recorded rank. A hand-off is
// therefore two coroutine switches on one OS thread — no runnable queue,
// no wake-up of another P, no futex. iter.Pull coroutines are asymmetric
// (a yield can only return to whoever resumed it), which is why the next
// rank is recorded and resumed from the trampoline instead of being
// switched to directly.
//
// Because exactly one of {the trampoline, one rank} executes at any
// instant, and every switch between them is a coroutine switch (a
// happens-before edge the race detector understands), the scheduler has no
// mutex, no channels and no atomics. The price is a confinement rule: all
// Handle methods must be called on behalf of the rank that currently holds
// the token — by its own body, or by its Stepper while the scheduler runs
// that on the dispatching rank's stack (see Poll) — (WakeAt: for the
// holder, on a blocked rank's handle), and Scheduler.Err, MaxClock and
// Release only after Run has returned. Builds with -race check the rule at
// every slow path and panic with both rank ids.
//
// Teardown: a failure (time limit, deadlock, Abort, a panicking body)
// records the error, and the failing rank unwinds with an abortSignal
// panic that its coroutine wrapper recovers. The trampoline then stops
// every coroutine that started and has not finished: the stopped rank's
// pending yield returns false, which it turns into the same abortSignal,
// so its deferred functions run and its coroutine ends before Run returns.
//
// # Polls
//
// A rank that retries an operation until it succeeds need not be switched
// into for every failed try. Handle.Poll parks it with its retry step, and
// whoever dispatches next runs that step inline whenever the rank is the
// (clock, id) minimum: as the token holder, at the rank's clock, in the
// rank's turn — so everything the step does happens exactly when the
// rank's own loop would have done it — but on the dispatcher's stack. A
// failed step costs a re-queue and the next pop, in a spinning herd
// usually an append to the pending queue's run and a take from its head
// (see procHeap); the two coroutine switches are paid once, when the step
// succeeds.
//
// # Token ownership and the fast path
//
// Everything the token holder does to its own virtual clock is invisible
// to the other processes until the token is handed over. When a process is
// dispatched it caches a horizon — the largest clock it can reach while
// provably remaining the minimum (the pending minimum's clock adjusted for
// the (clock, id) tie-break, clamped to the time limit). As long as an
// Advance stays at or below the horizon it is a queue-free, switch-free
// clock increment: two compares and an add, zero allocations. Only a
// genuine handoff (crossing the horizon) touches the pending queue and
// yields.
// The refsim subpackage preserves the original global-mutex, goroutine-
// per-rank scheduler; the differential determinism suite in
// internal/workload checks both engines produce byte-identical results.
//
// # Memory-flat proc state
//
// Per-process state is struct-of-arrays, indexed by rank id: clocks,
// horizons and scheduling flags live in flat slices, the pending-process
// queue (see procHeap) traffics in int32 rank ids, and a Handle caches
// pointers into the clock/horizon slices so the fast path stays a plain
// increment. Coroutines are created lazily, driven by dispatch: a rank
// that has never run is represented implicitly by its (0, id) key — the
// virtual start entries [nextStart, Procs) — and its table entry is
// dropped again when its body returns. A 10^6-rank machine whose ranks run
// one after another therefore pays for coroutine stacks only as ranks
// genuinely interleave, and the flat state costs ~77 bytes per rank.
//
// The iter import needs a Go 1.23 toolchain; it sits in coro.go behind a
// go1.23 build constraint because go.mod stays at go 1.21 (benchmark/go.mod
// replaces this module and declares 1.21).
//
// The package knows nothing about RMA; package rma layers windows, latency
// and contention modeling on top of it.
package sim

import (
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sync"

	"rmalocks/internal/trace"
)

// ErrTimeLimit is returned by Run when a process's virtual clock exceeded
// the configured limit, which almost always indicates livelock or deadlock
// in the simulated protocol.
var ErrTimeLimit = errors.New("sim: virtual time limit exceeded")

// ErrDeadlock is returned by Run when no process can make progress:
// every live process is blocked — in a barrier, or waiting on a window
// word no running process will change.
var ErrDeadlock = errors.New("sim: deadlock: no runnable process; every live process is blocked")

// MaxProcs is the largest supported process count: rank ids are int32
// throughout the scheduler core (heap entries, handles).
const MaxProcs = math.MaxInt32

// abortSignal is panicked inside a rank's coroutine when the simulation is
// torn down early; Handle.run recovers it.
type abortSignal struct{}

// Per-rank scheduling flags (the state slice of the SoA layout).
const (
	stInHeap uint8 = 1 << iota
	stBlocked
	stExited
	// stStepping: the rank is inside Poll. While it is also queued its step
	// (Scheduler.steps) stands in for its coroutine: dispatch runs it
	// inline.
	stStepping
)

// Handle is a per-process handle passed to the process body. Its methods
// must only be called from inside that process's body while it holds the
// token (except WakeAt, which the current token holder calls on a
// blocked process's handle).
// Handles live in one flat slice owned by the scheduler; clock and
// horizon cache pointers into the scheduler's SoA state so the Advance
// fast path needs no bounds checks or extra indirection.
type Handle struct {
	s  *Scheduler
	id int32
	// hs points at s.hot[id]: the process's virtual clock and its
	// fast-path horizon, packed in one 16-byte pair so the Advance fast
	// path touches a single cache line (same load count as a pointer to
	// a per-proc struct, without the per-proc allocation).
	hs *hotState
	// tb is the proc's ClassCharge trace buffer; nil unless charge
	// tracing is enabled. Only the slow paths emit through it: the
	// Advance fast path stays byte-for-byte untouched by tracing — a
	// fast-path advance is exactly the publication that no other process
	// can observe, so the charge stream loses nothing by recording only
	// slow-path publications and the dispatches they lead to (here) and
	// rma's publication points (EvFlush).
	tb *trace.Buf
}

// ID returns the process id (the simulated rank).
func (h *Handle) ID() int { return int(h.id) }

// Clock returns the process's current virtual time in nanoseconds.
func (h *Handle) Clock() int64 { return h.hs.clock }

// Horizon returns the largest virtual clock the calling process can
// advance to while provably keeping the execution token: any Advance that
// leaves the clock at or below Horizon() is guaranteed not to reschedule.
// Package rma, which publishes charged time lazily, reads it before every
// operation another rank can observe: a clock past the horizon means some
// rank is due first (see rma.Proc.sync). Valid only while the calling
// process holds the token; a WakeAt may shrink it.
func (h *Handle) Horizon() int64 { return h.hs.horizon }

// Scheduler coordinates the virtual clocks of a fixed set of processes.
// All per-rank state is struct-of-arrays, indexed by rank id. It is not
// safe for concurrent use and needs no lock: only the trampoline or the
// one rank it resumed ever runs (see the package comment).
type Scheduler struct {
	n int32
	// SoA per-rank state. hot packs each rank's (clock, horizon) pair —
	// the only fields the Advance fast path and the heap order touch —
	// in one flat slice; scheduling flags live beside it in state.
	hot   []hotState
	state []uint8
	// coros holds the coroutine of every rank that has started and not
	// yet finished; entries are zero outside that window (and so outside
	// Run), which is what lets the table be pooled without clearing.
	coros []coro
	// steps holds the retry step of every rank inside Poll; like coros it
	// is all-nil outside Run.
	steps   []Stepper
	handles []Handle
	heap    procHeap
	// running is the current token holder (horizon cache owner); -1
	// before the first dispatch. A rank that yields has already set it
	// to its successor: it is the trampoline's "resume this one next".
	running int32
	// nextStart is the first rank that has never been dispatched: ranks
	// [nextStart, n) are implicitly pending at (clock 0, id), merged with
	// the queue by topKey. Dispatching one creates its coroutine,
	// so coroutines materialize only as the simulation genuinely
	// interleaves.
	nextStart int32
	live      int
	arrived   []int32     // processes blocked in the current barrier
	syncCost  int64       // virtual cost charged by a barrier
	timeLimit int64       // 0 = unlimited
	tsink     *trace.Sink // non-nil only when ClassSched tracing is on
	body      func(h *Handle)
	core      *schedCore
	err       error
}

// Config holds scheduler construction parameters.
type Config struct {
	// Procs is the number of simulated processes (at most MaxProcs).
	Procs int
	// TimeLimit aborts the run with ErrTimeLimit once any process's
	// virtual clock exceeds it. Zero means no limit.
	TimeLimit int64
	// BarrierCost is the virtual time charged to every process by a
	// barrier, on top of synchronizing clocks to the maximum.
	BarrierCost int64
	// Trace, when non-nil, receives scheduler events (ClassSched:
	// block/wake/barrier) and slow-path clock publications and
	// dispatches (ClassCharge). The sink is restarted for this run. The Advance
	// fast path is byte-for-byte identical traced or not
	// (BenchmarkAdvanceUncontended vs BenchmarkAdvanceTraced pin it).
	Trace *trace.Sink
}

// corePool recycles scheduler cores — the SoA state slices, the coroutine
// table and the heap/arrived backing arrays — across scheduler instances,
// so hot sweep loops that build one machine per cell stop re-allocating
// them. Release returns a scheduler's core to the pool.
var corePool sync.Pool

// coro is one started rank's coroutine: the trampoline calls next to
// resume it until its next yield (false once its body has returned) and
// stop to unwind it; the rank itself calls yield to switch back (see park).
type coro struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

type schedCore struct {
	hot     []hotState
	state   []uint8
	coros   []coro
	steps   []Stepper
	handles []Handle
	arrived []int32
	queue   []int32
}

// New creates a scheduler for cfg.Procs processes, drawing the core from
// the package free list when one is available.
func New(cfg Config) *Scheduler {
	if cfg.Procs <= 0 {
		panic(fmt.Sprintf("sim: Procs must be positive, got %d", cfg.Procs))
	}
	if cfg.Procs > MaxProcs {
		panic(fmt.Sprintf("sim: Procs %d exceeds MaxProcs %d (rank ids are int32)", cfg.Procs, MaxProcs))
	}
	n := cfg.Procs
	s := &Scheduler{
		n:         int32(n),
		live:      n,
		syncCost:  cfg.BarrierCost,
		timeLimit: cfg.TimeLimit,
		running:   -1,
	}
	core, _ := corePool.Get().(*schedCore)
	if core == nil {
		core = &schedCore{}
	}
	s.core = core
	s.hot = resizeHot(core.hot, n)
	s.state = resizeState(core.state, n)
	s.coros = resizeNil(core.coros, n)
	s.steps = resizeNil(core.steps, n)
	s.handles = resizeHandles(core.handles, n)
	s.arrived = core.arrived[:0]
	var tsink *trace.Sink
	if cfg.Trace != nil {
		cfg.Trace.Start(n)
		if cfg.Trace.Has(trace.ClassSched) {
			s.tsink = cfg.Trace
		}
		tsink = cfg.Trace
	}
	for i := range s.handles {
		h := &s.handles[i]
		h.s = s
		h.id = int32(i)
		h.hs = &s.hot[i]
		h.tb = nil // pooled handles may carry a previous run's trace buffer
		if tsink != nil {
			h.tb = tsink.Buf(i, trace.ClassCharge)
		}
	}
	s.heap.init(s.hot, n, core.queue)
	return s
}

// hotState is one rank's fast-path pair: its virtual clock and the
// cached horizon (see the package comment).
type hotState struct {
	clock   int64
	horizon int64
}

// resizeHot returns a zeroed slice with room for n entries, reusing its
// backing array when large enough.
func resizeHot(a []hotState, n int) []hotState {
	if cap(a) >= n {
		a = a[:n]
		clear(a)
	} else {
		a = make([]hotState, n)
	}
	return a
}

func resizeState(a []uint8, n int) []uint8 {
	if cap(a) >= n {
		a = a[:n]
		clear(a)
	} else {
		a = make([]uint8, n)
	}
	return a
}

// resizeNil relies on the table being all-zero between runs (see
// Scheduler.coros and steps), over its whole capacity, so growing is the
// only work.
func resizeNil[T any](a []T, n int) []T {
	if cap(a) >= n {
		return a[:n]
	}
	return append(a[:cap(a)], make([]T, n-cap(a))...)
}

func resizeHandles(hs []Handle, n int) []Handle {
	if cap(hs) >= n {
		return hs[:n]
	}
	return make([]Handle, n)
}

// Release resets the scheduler and returns its core to the package free
// list. Only call it after Run has returned (and after any MaxClock
// inspection); the scheduler must not be used afterwards.
func (s *Scheduler) Release() {
	core := s.core
	if core == nil {
		return
	}
	core.hot, core.state = s.hot, s.state
	core.coros, core.steps, core.handles, core.arrived = s.coros, s.steps, s.handles, s.arrived
	core.queue = s.heap.buffer()
	s.hot, s.state, s.coros, s.steps, s.handles, s.arrived = nil, nil, nil, nil, nil, nil
	s.heap = procHeap{}
	s.core = nil
	s.running = -1
	corePool.Put(core)
}

// Run executes body(handle) once per process, each in its own coroutine,
// and returns when all processes have exited (or the simulation aborted).
// Run itself is the trampoline: it resumes the rank recorded in s.running
// until that rank yields (having recorded its successor) or returns.
// Coroutines are created lazily in dispatch order — a rank's coroutine
// starts when its (0, id) key first becomes the minimum. A panic inside a
// body aborts the whole simulation and is returned as an error. Run may
// only be called once per Scheduler.
func (s *Scheduler) Run(body func(h *Handle)) error {
	s.body = body
	// No coroutine outlives Run: after a failure the parked ranks are
	// unwound here, and likewise when a body's runtime.Goexit (t.FailNow
	// in a test body) propagates through next and unwinds this frame.
	defer s.stopAll()
	s.dispatch() // rank 0: the (0, 0) minimum
	for s.err == nil && s.live > 0 {
		s.resume(s.running)
	}
	return s.err
}

// resume switches to rank id until it yields or its body returns, creating
// its coroutine on first dispatch. A finished rank's table entry is
// dropped at once so its coroutine state is collectable while the
// remaining ranks run.
func (s *Scheduler) resume(id int32) {
	c := &s.coros[id]
	if c.next == nil {
		c.next, c.stop = newCoro(s.handles[id].run)
	}
	if _, ok := c.next(); !ok {
		*c = coro{}
	}
}

// stopAll unwinds every coroutine that started and has not finished (a
// parked rank's yield returns false, see park) — a rank parked in Poll
// among them — and drops the steps a failed run left behind; a no-op after
// a clean run.
func (s *Scheduler) stopAll() {
	for id := int32(0); id < s.nextStart; id++ {
		if stop := s.coros[id].stop; stop != nil {
			stop()
			s.coros[id] = coro{}
		}
	}
	clear(s.steps[:s.nextStart])
}

// run is the coroutine body of one simulated process.
func (h *Handle) run(yield func(struct{}) bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abortSignal); ok {
				return // torn down by scheduler
			}
			// The panic is the token holder's: this rank's own, or that of
			// a rank whose step it was running (see Poll), which unwinds
			// this stack in its stead.
			h.s.fail(fmt.Errorf("sim: process %d panicked: %v\n%s", h.s.running, r, debug.Stack()))
		}
	}()
	h.s.coros[h.id].yield = yield
	h.s.body(h)
	h.exit()
}

// park gives the token to the rank recorded in s.running by switching back
// to the trampoline, and returns when this rank is dispatched again. A
// false yield means the trampoline is stopping the coroutine (teardown).
func (h *Handle) park() {
	if !h.s.coros[h.id].yield(struct{}{}) {
		panic(abortSignal{})
	}
}

// Err returns the error recorded by the simulation, if any. Like MaxClock
// it is meant for after Run has returned.
func (s *Scheduler) Err() error { return s.err }

// MaxClock returns the largest virtual clock reached by any process. It is
// meaningful after Run returns (total simulated makespan).
func (s *Scheduler) MaxClock() int64 {
	var max int64
	for i := range s.hot {
		if c := s.hot[i].clock; c > max {
			max = c
		}
	}
	return max
}

// Advance charges d nanoseconds of virtual time to the calling process and
// yields the execution token if another process now has the minimum clock.
// d must be positive for operations inside spin loops, or the simulation
// could livelock; Advance enforces d >= 1.
//
// Fast path: while the new clock stays at or below the cached horizon the
// process provably remains the minimum, so the charge is a plain local
// increment — no heap, no switch, no allocation.
func (h *Handle) Advance(d int64) {
	if d < 1 {
		d = 1
	}
	p := h.hs
	if c := p.clock + d; c <= p.horizon {
		p.clock = c
		return
	}
	h.advanceSlow(d)
}

// advanceSlow is the genuine-handoff path of Advance: re-queue and hand
// the token to the new minimum (possibly ourselves, when only the
// time-limit clamp forced us off the fast path).
func (h *Handle) advanceSlow(d int64) {
	s := h.s
	s.checkAborted()
	h.confined()
	// publish, spelled out: this is every hand-off of every scheme, and
	// publish is too large to be inlined.
	c := h.hs.clock + d
	h.hs.clock = c
	if s.timeLimit > 0 && c > s.timeLimit {
		s.fail(fmt.Errorf("%w (process %d at %d ns)", ErrTimeLimit, h.id, c))
		panic(abortSignal{})
	}
	if h.tb != nil {
		h.tb.Emit(trace.EvAdvance, c, d, 0, 0)
	}
	s.notStepping(h.id, "Advance past the horizon")
	s.push(h.id)
	if s.dispatch() != h.id {
		h.park()
	}
}

// Barrier blocks until every live process has called Barrier, then sets all
// clocks to the maximum arrival time plus the configured barrier cost.
func (h *Handle) Barrier() {
	s := h.s
	id := h.id
	s.checkAborted()
	h.confined()
	s.notStepping(id, "Barrier")
	s.state[id] |= stBlocked
	if s.tsink != nil {
		s.tsink.Buf(int(id), trace.ClassSched).Emit(trace.EvBarrier, h.hs.clock, 0, 0, 0)
	}
	s.arrived = append(s.arrived, id)
	if len(s.arrived) == s.live {
		// Last arriver releases everyone.
		s.releaseBarrier()
	} else if !s.hasRunnable() {
		// Non-arrived live processes are queued or not yet started;
		// with neither, nobody can complete the barrier.
		s.fail(ErrDeadlock)
		panic(abortSignal{})
	}
	if s.dispatch() != id {
		h.park()
	}
}

// Block removes the calling process from scheduling until another process
// calls WakeAt on its handle. Use it for event-driven waiting (e.g., an
// MCS-style spin on a local flag, where polling is free on real hardware
// and the wake time is the landing time of the granting write). If no
// runnable process remains the simulation aborts with ErrDeadlock.
func (h *Handle) Block() {
	s := h.s
	id := h.id
	s.checkAborted()
	h.confined()
	s.notStepping(id, "Block")
	s.state[id] |= stBlocked
	if s.tsink != nil {
		s.tsink.Buf(int(id), trace.ClassSched).Emit(trace.EvBlock, h.hs.clock, 0, 0, 0)
	}
	if !s.hasRunnable() {
		s.fail(ErrDeadlock)
		panic(abortSignal{})
	}
	// A step served by dispatch may have woken the caller again.
	if s.dispatch() != id {
		h.park()
	}
}

// releaseBarrier completes the current barrier: every arrived process's
// clock synchronizes to the maximum arrival time plus the barrier cost,
// and all are re-queued as runnable. Shared by Barrier (last arriver) and
// exit (an exit can complete a pending barrier).
func (s *Scheduler) releaseBarrier() {
	var max int64
	for _, q := range s.arrived {
		if c := s.hot[q].clock; c > max {
			max = c
		}
	}
	max += s.syncCost
	for _, q := range s.arrived {
		s.hot[q].clock = max
		s.state[q] &^= stBlocked
		s.push(q)
	}
	s.arrived = s.arrived[:0]
}

// WakeAt makes the blocked process h runnable again with its virtual
// clock advanced to at least clock. It must be called by the currently
// running process, which keeps the execution token; because the woken
// process may become the new next-minimum, the caller's fast-path
// horizon is re-derived.
func (h *Handle) WakeAt(clock int64) {
	s := h.s
	q := h.id
	// While the simulation is tearing down the target may already have
	// unwound (its blocked flag is stale), so waking it is both unsafe
	// and pointless. Abort like Advance/Barrier/Block do.
	s.checkAborted()
	st := s.state[q]
	if st&stExited != 0 {
		panic(fmt.Sprintf("sim: Wake of exited process %d (its body already returned)", q))
	}
	if st&stBlocked == 0 {
		panic(fmt.Sprintf("sim: Wake of non-blocked process %d", q))
	}
	s.state[q] = st &^ stBlocked
	if clock > s.hot[q].clock {
		s.hot[q].clock = clock
	}
	if s.tsink != nil {
		waker := int64(-1)
		if s.running >= 0 {
			waker = int64(s.running)
		}
		s.tsink.Buf(int(q), trace.ClassSched).Emit(trace.EvWake, s.hot[q].clock, waker, 0, 0)
	}
	s.push(q)
	if r := s.running; r >= 0 {
		s.hot[r].horizon = s.horizonFor(r)
	}
}

// Abort terminates the simulation with err: the error is recorded (first
// failure wins, wrapped with the aborting process and its virtual time,
// errors.Is-visible), every parked process is unwound before Run returns,
// and the calling process unwinds immediately — Abort never returns. Must
// be called by the running process itself. Both engines surface aborts
// identically (conformance-tested).
func (h *Handle) Abort(err error) {
	h.confined()
	h.s.fail(fmt.Errorf("%w (process %d at %d ns)", err, h.id, h.hs.clock))
	panic(abortSignal{})
}

// exit removes the process from the simulation and hands the token on.
func (h *Handle) exit() {
	s := h.s
	if s.err != nil {
		return
	}
	s.state[h.id] |= stExited
	s.live--
	if s.live == 0 {
		return
	}
	// A barrier that was waiting for us can now be complete. Invariant:
	// s.live >= 1 here (the live == 0 case returned above), so a matching
	// arrived count means every remaining live process is in the barrier.
	if len(s.arrived) == s.live {
		s.releaseBarrier()
	}
	if !s.hasRunnable() {
		s.fail(ErrDeadlock)
		return
	}
	s.dispatch()
}

// fail records err (first error wins). Only the running rank can fail the
// simulation; it then unwinds (abortSignal, or by returning from exit) and
// Run's loop ends on s.err and stops every parked rank.
func (s *Scheduler) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// checkAborted unwinds the calling rank once the simulation has failed. A
// rank only runs in that state while its deferred functions execute during
// teardown; the slow paths call this before touching scheduler state.
func (s *Scheduler) checkAborted() {
	if s.err != nil {
		panic(abortSignal{})
	}
}

// hasRunnable reports whether any process is pending dispatch: queued or
// not yet started.
func (s *Scheduler) hasRunnable() bool {
	return s.heap.queued() > 0 || s.nextStart < s.n
}

// topKey returns the minimum pending (clock, id) across the queue and
// the virtual start entries: rank nextStart, pending at clock 0, stands
// for every not-yet-started rank (they all share clock 0, so the smallest
// id is the only candidate).
func (s *Scheduler) topKey() (clock int64, id int32, ok bool) {
	c, top, hok := s.heap.peek()
	if s.nextStart < s.n {
		// Queued ranks are always started, so top != nextStart; the
		// virtual entry wins exactly when (0, nextStart) < (c, top).
		if !hok || c > 0 || (c == 0 && s.nextStart < top) {
			return 0, s.nextStart, true
		}
	}
	return c, top, hok
}

// dispatch removes the new minimum from the pending set (the queue or
// virtual start entries), records it in s.running as the token holder and
// caches its fast-path horizon. The caller then parks (or returns from its
// body) so the trampoline resumes that rank — unless the minimum is the
// caller itself, which simply keeps running. A minimum that is parked in
// Poll is not returned: its step runs here, on the caller's stack, and if
// it fails the rank is queued again and the next minimum is taken. A
// genuine handoff (the token changing hands) emits an EvDispatch event
// into the new holder's stream; Arg1 marks the ones served here without a
// switch into the rank's coroutine.
func (s *Scheduler) dispatch() int32 {
	for {
		// A queued rank has started, so only the virtual start entry can
		// carry id nextStart.
		_, next, _ := s.topKey()
		if next == s.nextStart {
			s.nextStart++
		} else {
			s.popMin()
		}
		s.hot[next].horizon = s.horizonFor(next)
		if s.state[next]&stStepping != 0 {
			if s.inline(next) {
				return next
			}
			continue
		}
		if tb := s.handles[next].tb; tb != nil && next != s.running {
			tb.Emit(trace.EvDispatch, s.hot[next].clock, int64(s.running), 0, 0)
		}
		s.running = next
		return next
	}
}

// inline gives the token to rank next, which is parked in Poll, by running
// its step here instead of switching into its coroutine, and reports
// whether the step succeeded (see serve).
func (s *Scheduler) inline(next int32) bool {
	tb := s.handles[next].tb
	if next == s.running {
		tb = nil // not a handoff
	}
	var ev int
	if tb != nil {
		ev = tb.Len()
		tb.Emit(trace.EvDispatch, s.hot[next].clock, int64(s.running), 1, 0)
	}
	s.running = next
	done := s.serve(next)
	if done && tb != nil {
		tb.At(ev).Arg1 = 0 // the caller switches into the rank after all
	}
	return done
}

// Stepper is the retry step of a rank waiting in Handle.Poll.
type Stepper interface {
	// Step makes one try for its rank, which holds the token. It reports
	// done, or the virtual time d >= 0 the failed try cost. It may run on
	// another rank's stack and therefore must never need to give the token
	// up: through its rank's Handle it may read, WakeAt, Abort, and Advance
	// up to the horizon; Block, Barrier, a nested Poll and an Advance past
	// the horizon panic. A panic inside Step fails the run as its rank's.
	Step() (d int64, done bool)
}

// Poll waits until st reports done, charging the calling process the
// virtual time each failed try cost. It means exactly
//
//	for {
//		d, done := st.Step()
//		if done {
//			return
//		}
//		h.Advance(d) // if d > 0
//	}
//
// but only the tries up to the first charge that crosses the horizon run on
// the caller's stack. The process then parks with its step, and the
// scheduler makes every later try in its place (see dispatch) whenever the
// process is the (clock, id) minimum — the instants at which the loop
// above would have been resumed — and switches back into it after the one
// that succeeds.
func (h *Handle) Poll(st Stepper) {
	s := h.s
	id := h.id
	s.checkAborted()
	h.confined()
	s.notStepping(id, "Poll")
	s.state[id] |= stStepping
	s.steps[id] = st
	if !s.serve(id) && s.dispatch() != id {
		h.park()
	}
}

// serve runs the step of rank id, the token holder, until it succeeds —
// id leaves its Poll, true — or charges id past its horizon: somebody else
// is due first, id is queued at its new clock with the step still in
// place, false. While nobody is due a failed try is followed by the next at
// once, as in the loop.
func (s *Scheduler) serve(id int32) bool {
	st, hs := s.steps[id], &s.hot[id]
	for {
		d, done := st.Step()
		if done {
			s.state[id] &^= stStepping
			s.steps[id] = nil
			return true
		}
		if d <= 0 {
			continue
		}
		if c := hs.clock + d; c <= hs.horizon {
			hs.clock = c
			continue
		}
		s.handles[id].publish(d)
		s.push(id)
		return false
	}
}

// publish adds d to the clock of h's rank on the slow path, failing the run
// when that crosses the time limit (advanceSlow has a copy).
func (h *Handle) publish(d int64) {
	c := h.hs.clock + d
	h.hs.clock = c
	if s := h.s; s.timeLimit > 0 && c > s.timeLimit {
		s.fail(fmt.Errorf("%w (process %d at %d ns)", ErrTimeLimit, h.id, c))
		panic(abortSignal{})
	}
	if h.tb != nil {
		h.tb.Emit(trace.EvAdvance, c, d, 0, 0)
	}
}

// notStepping panics when rank id asks for something that would give the
// token up while its step is running: the step may be on another rank's
// stack, which cannot be parked in its place.
func (s *Scheduler) notStepping(id int32, what string) {
	if s.state[id]&stStepping != 0 {
		panic(fmt.Sprintf("sim: process %d: %s inside a Poll step", id, what))
	}
}

// confined is the -race build's check of the confinement rule: h acts only
// for the token holder.
func (h *Handle) confined() {
	if raceEnabled && h.s.running != h.id {
		panic(fmt.Sprintf("sim: process %d used while process %d holds the token", h.id, h.s.running))
	}
}

// horizonFor derives rank id's fast-path horizon from the pending
// minimum: id keeps the token while (clock, id) stays lexicographically
// at or below the top's, so it may reach the top clock exactly when its
// id wins the tie-break. The time limit is folded in so the fast path
// detects limit crossings with the same single compare. id must not be
// pending.
func (s *Scheduler) horizonFor(id int32) int64 {
	hz := int64(math.MaxInt64)
	if c, top, ok := s.topKey(); ok {
		hz = c
		if id > top {
			hz--
		}
	}
	if s.timeLimit > 0 && hz > s.timeLimit {
		hz = s.timeLimit
	}
	return hz
}

func (s *Scheduler) push(id int32) {
	if s.state[id]&stInHeap != 0 {
		panic(fmt.Sprintf("sim: process %d pushed twice", id))
	}
	s.state[id] |= stInHeap
	s.heap.push(id)
}

func (s *Scheduler) popMin() int32 {
	id := s.heap.pop()
	s.state[id] &^= stInHeap
	return id
}
