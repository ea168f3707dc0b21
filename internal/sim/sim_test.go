package sim

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

func TestSingleProcess(t *testing.T) {
	s := New(Config{Procs: 1})
	var clock int64
	err := s.Run(func(h *Handle) {
		for i := 0; i < 10; i++ {
			h.Advance(100)
		}
		clock = h.Clock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if clock != 1000 {
		t.Errorf("clock=%d want 1000", clock)
	}
	if s.MaxClock() != 1000 {
		t.Errorf("MaxClock=%d want 1000", s.MaxClock())
	}
}

func TestVirtualTimeOrder(t *testing.T) {
	// Two processes with different step sizes: the sequence of observed
	// (id, clock) events must be sorted by (clock, id).
	type ev struct {
		id    int
		clock int64
	}
	var (
		mu  chan struct{} = make(chan struct{}, 1)
		log []ev
	)
	mu <- struct{}{}
	record := func(id int, c int64) {
		<-mu
		log = append(log, ev{id, c})
		mu <- struct{}{}
	}
	s := New(Config{Procs: 2})
	err := s.Run(func(h *Handle) {
		step := int64(100)
		if h.ID() == 1 {
			step = 70
		}
		for i := 0; i < 50; i++ {
			h.Advance(step)
			record(h.ID(), h.Clock())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Events are recorded after Advance returns, i.e., when the process
	// holds the token, so they must appear in nondecreasing clock order.
	for i := 1; i < len(log); i++ {
		a, b := log[i-1], log[i]
		if b.clock < a.clock || (b.clock == a.clock && b.id < a.id) {
			t.Fatalf("event %d (%v) out of order after %v", i, b, a)
		}
	}
	if len(log) != 100 {
		t.Fatalf("got %d events, want 100", len(log))
	}
}

// TestDeterminism checks the scheduler's event order itself, below the
// reports the identity matrix compares.
func TestDeterminism(t *testing.T) {
	run := func() []int {
		var order []int
		s := New(Config{Procs: 8})
		err := s.Run(func(h *Handle) {
			for i := 0; i < 20; i++ {
				h.Advance(int64(50 + h.ID()*13))
			}
			order = append(order, h.ID()) // token-held: safe
		})
		if err != nil {
			t.Fatal(err)
		}
		return order
	}
	a := run()
	b := run()
	if len(a) != 8 {
		t.Fatalf("only %d exits recorded", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic exit order: %v vs %v", a, b)
		}
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	const cost = 500
	s := New(Config{Procs: 4, BarrierCost: cost})
	clocks := make([]int64, 4)
	err := s.Run(func(h *Handle) {
		h.Advance(int64(1000 * (h.ID() + 1))) // clocks 1000..4000
		h.Barrier()
		clocks[h.ID()] = h.Clock()
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, c := range clocks {
		if c != 4000+cost {
			t.Errorf("proc %d clock=%d want %d", id, c, 4000+cost)
		}
	}
}

func TestRepeatedBarriers(t *testing.T) {
	s := New(Config{Procs: 5, BarrierCost: 1})
	var sum int64
	err := s.Run(func(h *Handle) {
		for round := 0; round < 10; round++ {
			h.Advance(int64(h.ID()*7 + 1))
			h.Barrier()
		}
		atomic.AddInt64(&sum, h.Clock())
	})
	if err != nil {
		t.Fatal(err)
	}
	// All clocks identical after the final barrier.
	if sum%5 != 0 {
		t.Errorf("clocks differ after barrier: sum=%d", sum)
	}
}

func TestTimeLimitAborts(t *testing.T) {
	s := New(Config{Procs: 2, TimeLimit: 10_000})
	err := s.Run(func(h *Handle) {
		for { // spin forever: must be cut off
			h.Advance(100)
		}
	})
	if !errors.Is(err, ErrTimeLimit) {
		t.Fatalf("err=%v want ErrTimeLimit", err)
	}
}

func TestBodyPanicBecomesError(t *testing.T) {
	s := New(Config{Procs: 3})
	err := s.Run(func(h *Handle) {
		if h.ID() == 1 {
			panic("boom")
		}
		for i := 0; i < 1000; i++ {
			h.Advance(10)
		}
	})
	if err == nil {
		t.Fatal("want error from panicking body")
	}
}

func TestExitDuringBarrierDeadlocks(t *testing.T) {
	s := New(Config{Procs: 2})
	err := s.Run(func(h *Handle) {
		if h.ID() == 0 {
			h.Advance(10)
			return // exits; proc 1 waits in barrier forever... but live
			// count drops, so the barrier releases with 1 participant.
		}
		h.Barrier()
	})
	// Exit reduces live count, so a barrier on the remaining process
	// completes rather than deadlocking.
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestAdvanceMinimumStep(t *testing.T) {
	s := New(Config{Procs: 1})
	err := s.Run(func(h *Handle) {
		h.Advance(0)  // clamped to 1
		h.Advance(-5) // clamped to 1
		if h.Clock() != 2 {
			t.Errorf("clock=%d want 2", h.Clock())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestManyProcs(t *testing.T) {
	const p = 512
	s := New(Config{Procs: p})
	var done int64
	err := s.Run(func(h *Handle) {
		for i := 0; i < 10; i++ {
			h.Advance(int64(1 + (h.ID()+i)%17))
		}
		atomic.AddInt64(&done, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if done != p {
		t.Errorf("done=%d want %d", done, p)
	}
}

func TestWakeDuringTeardownAborts(t *testing.T) {
	// Regression: once the simulation has failed, a still-running process
	// that Wakes a watcher must abort like Advance/Barrier/Block do — not
	// trip the "Wake of non-blocked process" panic against a target whose
	// blocked flag went stale while its goroutine unwinds.
	s := New(Config{Procs: 2})
	s.err = errors.New("teardown in progress")
	h1 := &s.handles[1] // target not blocked: already released/unwinding
	defer func() {
		if _, ok := recover().(abortSignal); !ok {
			t.Fatalf("Wake under a recorded error must panic abortSignal")
		}
	}()
	h1.WakeAt(100)
}

func TestWakeAfterTimeLimitTeardown(t *testing.T) {
	// End-to-end flavor of the same defect: process 1 exceeds the time
	// limit while process 0 is blocked; the run must come back with
	// ErrTimeLimit, not a secondary Wake panic, and never hang.
	s := New(Config{Procs: 3, TimeLimit: 5_000})
	handles := make([]*Handle, 3)
	err := s.Run(func(h *Handle) {
		handles[h.ID()] = h // token-held write, then Advance publishes
		h.Advance(1)
		switch h.ID() {
		case 0:
			h.Block() // woken only by teardown
		case 1:
			for {
				h.Advance(1_000) // exceeds the limit, fails the sim
			}
		case 2:
			h.Advance(10_000_000) // parked far in the future
		}
	})
	if !errors.Is(err, ErrTimeLimit) {
		t.Fatalf("err=%v want ErrTimeLimit", err)
	}
}

func TestWakeExitedPanicsDistinctly(t *testing.T) {
	// Regression: waking a process whose body already returned used to
	// report the misleading "Wake of non-blocked process"; exited must be
	// distinguished from merely non-blocked.
	s := New(Config{Procs: 2})
	s.state[1] |= stExited
	h1 := &s.handles[1]
	defer func() {
		r := recover()
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("want string panic, got %T (%v)", r, r)
		}
		if !strings.Contains(msg, "exited") {
			t.Fatalf("panic %q does not mention the process exited", msg)
		}
	}()
	h1.WakeAt(100)
}

func TestWakeNonBlockedStillPanics(t *testing.T) {
	s := New(Config{Procs: 2})
	h1 := &s.handles[1]
	defer func() {
		msg, ok := recover().(string)
		if !ok || !strings.Contains(msg, "non-blocked") {
			t.Fatalf("want non-blocked panic, got %v", msg)
		}
	}()
	h1.WakeAt(100)
}

func TestWakeShrinksHorizon(t *testing.T) {
	// The woken process may become the new next-minimum: after Wake, the
	// caller's fast path must hand over before running past the wake-up
	// clock. Without the horizon re-derivation in WakeAt, process 1 would
	// fast-path to 105 before process 0 runs at 8.
	type ev struct {
		id    int
		clock int64
	}
	var log []ev // token-held appends only
	s := New(Config{Procs: 2})
	handles := make([]*Handle, 2)
	err := s.Run(func(h *Handle) {
		handles[h.ID()] = h
		if h.ID() == 0 {
			h.Block()
			log = append(log, ev{0, h.Clock()})
			return
		}
		h.Advance(5)
		handles[0].WakeAt(8)
		h.Advance(100)
		log = append(log, ev{1, h.Clock()})
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []ev{{0, 8}, {1, 105}}
	if len(log) != 2 || log[0] != want[0] || log[1] != want[1] {
		t.Fatalf("event order %v, want %v", log, want)
	}
}

func TestExitCompletesBarrier(t *testing.T) {
	// Exit-completes-barrier regression: when stragglers exit instead of
	// arriving, the remaining processes' barrier must complete the moment
	// the last non-arriving live process exits (invariant: past the
	// live==0 early return, live >= 1, so arrived == live means everyone
	// left is in the barrier).
	const cost = 100
	s := New(Config{Procs: 5, BarrierCost: cost})
	clocks := make([]int64, 5)
	err := s.Run(func(h *Handle) {
		if h.ID() >= 3 { // two processes exit without arriving
			h.Advance(int64(10 * (h.ID() + 1)))
			return
		}
		h.Advance(int64(100 * (h.ID() + 1)))
		h.Barrier()
		clocks[h.ID()] = h.Clock()
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, c := range clocks[:3] {
		if c != 300+cost {
			t.Errorf("proc %d clock=%d want %d", id, c, 300+cost)
		}
	}
}

func TestSchedulerReleaseReuse(t *testing.T) {
	// Release returns the core to the pool; a later New must produce a
	// fully reset scheduler with identical behavior — including after an
	// errored run, whose teardown stops parked coroutines.
	run := func() (int64, error) {
		s := New(Config{Procs: 8})
		err := s.Run(func(h *Handle) {
			for i := 0; i < 50; i++ {
				h.Advance(int64(1 + (h.ID()*7+i)%13))
			}
		})
		max := s.MaxClock()
		s.Release()
		return max, err
	}
	a, err := run()
	if err != nil {
		t.Fatal(err)
	}
	// An errored run in between must not poison the pool.
	s := New(Config{Procs: 8, TimeLimit: 100})
	if err := s.Run(func(h *Handle) {
		for {
			h.Advance(50)
		}
	}); !errors.Is(err, ErrTimeLimit) {
		t.Fatalf("err=%v want ErrTimeLimit", err)
	}
	s.Release()
	b, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("pooled rerun diverged: MaxClock %d vs %d", a, b)
	}
}

func TestExitReleasesBarrierClocks(t *testing.T) {
	// The exit path reuses the same barrier release as Barrier itself:
	// when the last straggler exits instead of arriving, the remaining
	// processes must still synchronize to max arrival + BarrierCost.
	const cost = 300
	s := New(Config{Procs: 3, BarrierCost: cost})
	clocks := make([]int64, 3)
	err := s.Run(func(h *Handle) {
		if h.ID() == 2 {
			h.Advance(50)
			return // exits; the two-process barrier completes without it
		}
		h.Advance(int64(1000 * (h.ID() + 1)))
		h.Barrier()
		clocks[h.ID()] = h.Clock()
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, c := range clocks[:2] {
		if c != 2000+cost {
			t.Errorf("proc %d clock=%d want %d", id, c, 2000+cost)
		}
	}
}
