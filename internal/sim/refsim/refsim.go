// Package refsim is the reference scheduler: the original global-mutex,
// container/heap implementation of internal/sim, kept as an independent
// oracle for the token-owned fast-path rewrite. Every operation takes the
// scheduler lock and goes through the boxed heap — slow, but so simple it
// is easy to audit.
//
// The differential determinism suite in internal/workload runs every lock
// scheme × contention profile on both engines and requires byte-identical
// reports and equal MaxClock. Horizon is provided for parity with the
// fast engine (package rma's lazy publication reads it); it computes
// under the lock the exact value the fast engine caches, so publication
// decisions — and therefore interleavings — match between engines.
package refsim

import (
	"container/heap"
	"fmt"
	"math"
	"runtime/debug"
	"sync"

	"rmalocks/internal/sim"
	"rmalocks/internal/trace"
)

// abortSignal is panicked inside process goroutines when the simulation is
// torn down early; the Run wrapper recovers it.
type abortSignal struct{}

type proc struct {
	id      int
	clock   int64
	wake    chan struct{}
	inHeap  bool
	heapIdx int
	blocked bool // waiting in a barrier
	exited  bool
	// tb is the proc's ClassCharge trace buffer (nil when disabled),
	// mirroring the fast engine's instrumentation.
	tb *trace.Buf
}

// Handle is a per-process handle passed to the process body. Its methods
// must only be called from that process's goroutine.
type Handle struct {
	s *Scheduler
	p *proc
}

// ID returns the process id (the simulated rank).
func (h *Handle) ID() int { return h.p.id }

// Clock returns the process's current virtual time in nanoseconds.
func (h *Handle) Clock() int64 { return h.p.clock }

// Scheduler coordinates the virtual clocks of a fixed set of processes.
type Scheduler struct {
	mu        sync.Mutex
	procs     []*proc
	heap      procHeap
	live      int
	arrived   []*proc     // processes blocked in the current barrier
	syncCost  int64       // virtual cost charged by a barrier
	timeLimit int64       // 0 = unlimited
	running   *proc       // current token holder (trace attribution)
	tsink     *trace.Sink // non-nil only when ClassSched tracing is on
	err       error
}

// New creates a reference scheduler for cfg.Procs processes. It shares
// sim.Config (and sim's sentinel errors) so the two engines are drop-in
// interchangeable.
func New(cfg sim.Config) *Scheduler {
	if cfg.Procs <= 0 {
		panic(fmt.Sprintf("refsim: Procs must be positive, got %d", cfg.Procs))
	}
	s := &Scheduler{
		procs:     make([]*proc, cfg.Procs),
		live:      cfg.Procs,
		syncCost:  cfg.BarrierCost,
		timeLimit: cfg.TimeLimit,
	}
	for i := range s.procs {
		s.procs[i] = &proc{id: i, wake: make(chan struct{}, 1), heapIdx: -1}
	}
	if cfg.Trace != nil {
		cfg.Trace.Start(cfg.Procs)
		if cfg.Trace.Has(trace.ClassSched) {
			s.tsink = cfg.Trace
		}
		for i, p := range s.procs {
			p.tb = cfg.Trace.Buf(i, trace.ClassCharge)
		}
	}
	return s
}

// Release is a no-op: the reference engine does not pool its procs. It
// exists for interface parity with sim.Scheduler.
func (s *Scheduler) Release() {}

// Run executes body(handle) once per process, each in its own goroutine,
// and returns when all processes have exited (or the simulation aborted).
// A panic inside a body aborts the whole simulation and is returned as an
// error. Run may only be called once per Scheduler.
func (s *Scheduler) Run(body func(h *Handle)) error {
	var wg sync.WaitGroup
	wg.Add(len(s.procs))
	for _, p := range s.procs {
		go func(p *proc) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(abortSignal); ok {
						return // torn down by scheduler
					}
					s.fail(fmt.Errorf("refsim: process %d panicked: %v\n%s", p.id, r, debug.Stack()))
				}
			}()
			h := &Handle{s: s, p: p}
			h.park() // wait for the initial token
			body(h)
			h.exit()
		}(p)
	}
	s.mu.Lock()
	for _, p := range s.procs {
		s.push(p)
	}
	s.sendWake(s.dispatchLocked())
	s.mu.Unlock()
	wg.Wait()
	return s.err
}

// Err returns the error recorded by the simulation, if any.
func (s *Scheduler) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// MaxClock returns the largest virtual clock reached by any process.
func (s *Scheduler) MaxClock() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var max int64
	for _, p := range s.procs {
		if p.clock > max {
			max = p.clock
		}
	}
	return max
}

// Horizon returns the largest clock the calling process can advance to
// while keeping the execution token, computed fresh from the heap top —
// the exact value the fast engine caches at dispatch (including the
// time-limit clamp), so rma's lazy publication behaves identically on
// both engines.
func (h *Handle) Horizon() int64 {
	s := h.s
	s.mu.Lock()
	defer s.mu.Unlock()
	hz := int64(math.MaxInt64)
	if len(s.heap) > 0 {
		top := s.heap[0]
		hz = top.clock
		if h.p.id > top.id {
			hz--
		}
	}
	if s.timeLimit > 0 && hz > s.timeLimit {
		hz = s.timeLimit
	}
	return hz
}

// Advance charges d nanoseconds of virtual time to the calling process and
// yields the execution token if another process now has the minimum clock.
// Advance enforces d >= 1.
func (h *Handle) Advance(d int64) {
	if d < 1 {
		d = 1
	}
	s := h.s
	p := h.p
	s.mu.Lock()
	if s.err != nil {
		s.mu.Unlock()
		panic(abortSignal{})
	}
	p.clock += d
	if s.timeLimit > 0 && p.clock > s.timeLimit {
		s.failLocked(fmt.Errorf("%w (process %d at %d ns)", sim.ErrTimeLimit, p.id, p.clock))
		s.mu.Unlock()
		panic(abortSignal{})
	}
	if p.tb != nil {
		p.tb.Emit(trace.EvAdvance, p.clock, d, 0, 0)
	}
	s.push(p)
	next := s.dispatchLocked()
	if next == p {
		s.mu.Unlock()
		return
	}
	s.sendWake(next)
	s.mu.Unlock()
	h.park()
}

// Barrier blocks until every live process has called Barrier, then sets all
// clocks to the maximum arrival time plus the configured barrier cost.
func (h *Handle) Barrier() {
	s := h.s
	p := h.p
	s.mu.Lock()
	if s.err != nil {
		s.mu.Unlock()
		panic(abortSignal{})
	}
	p.blocked = true
	if s.tsink != nil {
		s.tsink.Buf(p.id, trace.ClassSched).Emit(trace.EvBarrier, p.clock, 0, 0, 0)
	}
	s.arrived = append(s.arrived, p)
	if len(s.arrived) == s.live {
		s.releaseBarrierLocked()
		next := s.dispatchLocked()
		if next == p {
			s.mu.Unlock()
			return
		}
		s.sendWake(next)
		s.mu.Unlock()
		h.park()
		return
	}
	if len(s.heap) == 0 {
		s.failLocked(sim.ErrDeadlock)
		s.mu.Unlock()
		panic(abortSignal{})
	}
	next := s.dispatchLocked()
	s.sendWake(next)
	s.mu.Unlock()
	h.park()
}

// Block removes the calling process from scheduling until another process
// calls WakeAt on its handle.
func (h *Handle) Block() {
	s := h.s
	p := h.p
	s.mu.Lock()
	if s.err != nil {
		s.mu.Unlock()
		panic(abortSignal{})
	}
	p.blocked = true
	if s.tsink != nil {
		s.tsink.Buf(p.id, trace.ClassSched).Emit(trace.EvBlock, p.clock, 0, 0, 0)
	}
	if len(s.heap) == 0 {
		s.failLocked(sim.ErrDeadlock)
		s.mu.Unlock()
		panic(abortSignal{})
	}
	next := s.dispatchLocked()
	s.sendWake(next)
	s.mu.Unlock()
	h.park()
}

// releaseBarrierLocked completes the current barrier (see sim). Caller
// must hold s.mu.
func (s *Scheduler) releaseBarrierLocked() {
	var max int64
	for _, q := range s.arrived {
		if q.clock > max {
			max = q.clock
		}
	}
	max += s.syncCost
	for _, q := range s.arrived {
		q.clock = max
		q.blocked = false
		s.push(q)
	}
	s.arrived = s.arrived[:0]
}

// WakeAt makes the blocked process h runnable again with its virtual
// clock advanced to at least clock. It must be called by the currently
// running process, which keeps the execution token.
func (h *Handle) WakeAt(clock int64) {
	s := h.s
	q := h.p
	s.mu.Lock()
	if s.err != nil {
		s.mu.Unlock()
		panic(abortSignal{})
	}
	if q.exited {
		s.mu.Unlock()
		panic(fmt.Sprintf("refsim: Wake of exited process %d (its body already returned)", q.id))
	}
	if !q.blocked {
		s.mu.Unlock()
		panic(fmt.Sprintf("refsim: Wake of non-blocked process %d", q.id))
	}
	q.blocked = false
	if clock > q.clock {
		q.clock = clock
	}
	if s.tsink != nil {
		waker := int64(-1)
		if s.running != nil {
			waker = int64(s.running.id)
		}
		s.tsink.Buf(q.id, trace.ClassSched).Emit(trace.EvWake, q.clock, waker, 0, 0)
	}
	s.push(q)
	s.mu.Unlock()
}

// Abort terminates the simulation with err exactly like the fast
// engine's Handle.Abort: first failure wins, the error is wrapped with
// the aborting process and clock, and the calling goroutine unwinds
// immediately — Abort never returns.
func (h *Handle) Abort(err error) {
	s := h.s
	s.mu.Lock()
	s.failLocked(fmt.Errorf("%w (process %d at %d ns)", err, h.p.id, h.p.clock))
	s.mu.Unlock()
	panic(abortSignal{})
}

// park blocks the calling process until it is woken with the token.
func (h *Handle) park() {
	<-h.p.wake
	h.s.mu.Lock()
	err := h.s.err
	h.s.mu.Unlock()
	if err != nil {
		panic(abortSignal{})
	}
}

// exit removes the process from the simulation and hands the token on.
func (h *Handle) exit() {
	s := h.s
	p := h.p
	s.mu.Lock()
	if s.err != nil {
		s.mu.Unlock()
		return
	}
	p.exited = true
	s.live--
	if s.live == 0 {
		s.mu.Unlock()
		return
	}
	// Invariant: s.live >= 1 here, so a matching arrived count means every
	// remaining live process is blocked in the barrier we can now release.
	if len(s.arrived) == s.live {
		s.releaseBarrierLocked()
	}
	if len(s.heap) == 0 {
		s.failLocked(sim.ErrDeadlock)
		s.mu.Unlock()
		return
	}
	next := s.dispatchLocked()
	s.sendWake(next)
	s.mu.Unlock()
}

// fail aborts the simulation with err (first error wins) and wakes every
// parked process so its goroutine can unwind.
func (s *Scheduler) fail(err error) {
	s.mu.Lock()
	s.failLocked(err)
	s.mu.Unlock()
}

func (s *Scheduler) failLocked(err error) {
	if s.err == nil {
		s.err = err
	}
	for _, p := range s.procs {
		if !p.exited {
			select {
			case p.wake <- struct{}{}:
			default:
			}
		}
	}
}

func (s *Scheduler) sendWake(p *proc) {
	select {
	case p.wake <- struct{}{}:
	default:
		// Already has a pending wake (only possible during teardown).
	}
}

// heap helpers (min-heap on (clock, id)) — deliberately container/heap
// with interface boxing, exactly the pre-rewrite implementation.

type procHeap []*proc

func (h procHeap) Len() int { return len(h) }
func (h procHeap) Less(i, j int) bool {
	if h[i].clock != h[j].clock {
		return h[i].clock < h[j].clock
	}
	return h[i].id < h[j].id
}
func (h procHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}
func (h *procHeap) Push(x any) {
	p := x.(*proc)
	p.heapIdx = len(*h)
	*h = append(*h, p)
}
func (h *procHeap) Pop() any {
	old := *h
	n := len(old)
	p := old[n-1]
	old[n-1] = nil
	p.heapIdx = -1
	*h = old[:n-1]
	return p
}

func (s *Scheduler) push(p *proc) {
	if p.inHeap {
		panic(fmt.Sprintf("refsim: process %d pushed twice", p.id))
	}
	p.inHeap = true
	heap.Push(&s.heap, p)
}

func (s *Scheduler) popMin() *proc {
	p := heap.Pop(&s.heap).(*proc)
	p.inHeap = false
	return p
}

// dispatchLocked pops the new minimum and records it as the token
// holder, emitting the same EvDispatch handoff event as the fast
// engine: next.clock and the previous holder's rank, only when the
// token actually changes hands. Caller must hold s.mu.
func (s *Scheduler) dispatchLocked() *proc {
	next := s.popMin()
	if next.tb != nil && next != s.running {
		prev := int64(-1)
		if s.running != nil {
			prev = int64(s.running.id)
		}
		next.tb.Emit(trace.EvDispatch, next.clock, prev, 0, 0)
	}
	s.running = next
	return next
}
