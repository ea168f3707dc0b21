package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// checkNoRankCoroutines asserts that no rank coroutine outlived Run. No
// polling: a coroutine is a goroutine that ends synchronously inside the
// switch that finishes it, and Run stops every parked one before it
// returns, so the count is back at the baseline the moment Run is.
func checkNoRankCoroutines(t *testing.T, s *Scheduler, baseline int) {
	t.Helper()
	// (A previous test's goroutine may still be exiting when the baseline
	// is taken, so fewer than the baseline is not a leak.)
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Fatalf("rank coroutines leaked: %d goroutines live, want <= %d\n%s",
			n, baseline, buf[:runtime.Stack(buf, true)])
	}
	for id := range s.coros {
		if c := s.coros[id]; c.next != nil || c.stop != nil || c.yield != nil {
			t.Fatalf("rank %d: coroutine table entry survived Run", id)
		}
		if s.steps[id] != nil {
			t.Fatalf("rank %d: step table entry survived Run", id)
		}
	}
}

// TestNoCoroutineLeakAfterRelease is the leak regression test of the
// pooled scheduler core: after Run and Release — and after a second
// scheduler reacquires the pooled core and runs again — no rank coroutine
// is left (a leaked parked rank would hold its stack forever).
func TestNoCoroutineLeakAfterRelease(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		s := New(Config{Procs: 64})
		err := s.Run(func(h *Handle) {
			h.Advance(int64(1 + h.ID()))
			h.Barrier() // every rank parks at least once
			h.Advance(10)
		})
		if err != nil {
			t.Fatal(err)
		}
		checkNoRankCoroutines(t, s, baseline)
		s.Release() // round > 0 reacquires the pooled core
	}
}

// TestTeardownUnwindsParkedRanks covers every way a run can fail, each
// with ranks parked in Block (rank 0), Advance (rank 1), Barrier (ranks
// 2, 3) and Poll (rank 5, its step in the scheduler's hands) at the moment
// of failure: Run must return the documented error,
// every parked rank must have unwound through its deferred functions
// before Run returns, and the core must be reusable at once.
func TestTeardownUnwindsParkedRanks(t *testing.T) {
	errBoom := errors.New("boom")
	spin := func(h *Handle) {
		for {
			h.Advance(1 << 18)
		}
	}
	cases := []struct {
		name  string
		limit int64
		// far runs on rank 1 once its first long Advance returns, trigger
		// on rank 4 at clock 10, while ranks 0–3 are parked.
		far, trigger func(h *Handle)
		check        func(t *testing.T, err error)
	}{
		{
			name:    "abort",
			trigger: func(h *Handle) { h.Abort(errBoom) },
			check: func(t *testing.T, err error) {
				if !errors.Is(err, errBoom) || !strings.Contains(err.Error(), "(process 4 at 10 ns)") {
					t.Fatalf("err=%v, want errBoom wrapped with process 4 at 10 ns", err)
				}
			},
		},
		{
			// Ranks 1 and 4 leapfrog until one crosses the limit; the
			// other is parked in Advance at that moment.
			name: "time-limit", limit: 1 << 20, far: spin, trigger: spin,
			check: func(t *testing.T, err error) {
				if !errors.Is(err, ErrTimeLimit) {
					t.Fatalf("err=%v, want ErrTimeLimit", err)
				}
			},
		},
		{
			// Rank 4 blocks, rank 1 (the last runnable) resumes and blocks
			// too: nobody is left to wake anyone.
			name: "deadlock", far: (*Handle).Block, trigger: (*Handle).Block,
			check: func(t *testing.T, err error) {
				if !errors.Is(err, ErrDeadlock) {
					t.Fatalf("err=%v, want ErrDeadlock", err)
				}
			},
		},
		{
			name:    "panic",
			trigger: func(h *Handle) { panic("kaboom") },
			check: func(t *testing.T, err error) {
				if err == nil {
					t.Fatal("want error from panicking body")
				}
				msg := err.Error()
				if !strings.Contains(msg, "sim: process 4 panicked: kaboom") || !strings.Contains(msg, "sim.(*Handle).run") {
					t.Fatalf("panic error lacks rank id or stack: %v", msg)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			unwound := 0
			s := New(Config{Procs: 6, TimeLimit: tc.limit})
			err := s.Run(func(h *Handle) {
				defer func() { unwound++ }()
				switch h.ID() {
				case 0:
					h.Block()
				case 1:
					h.Advance(1 << 19)
					tc.far(h)
				case 2, 3:
					h.Barrier()
				case 5:
					// Tries until the run is over, except in the deadlock
					// case, where it has to get out of the way.
					tries := 0
					h.Poll(stepFunc(func() (int64, bool) {
						tries++
						return 1 << 17, tc.name == "deadlock" && tries == 3
					}))
				default:
					h.Advance(10)
					tc.trigger(h)
				}
			})
			tc.check(t, err)
			if unwound != 6 {
				t.Errorf("%d of 6 rank bodies unwound before Run returned", unwound)
			}
			checkNoRankCoroutines(t, s, baseline)
			s.Release()

			// Immediate reacquire of the core the failed run polluted.
			s = New(Config{Procs: 5, BarrierCost: 7})
			if err := s.Run(func(h *Handle) {
				h.Advance(int64(10 * (h.ID() + 1)))
				h.Barrier()
			}); err != nil {
				t.Fatalf("run on reacquired core: %v", err)
			}
			if got := s.MaxClock(); got != 57 {
				t.Errorf("reacquired core MaxClock=%d, want 57", got)
			}
			checkNoRankCoroutines(t, s, baseline)
			s.Release()
		})
	}
}

// TestGoexitInBodyUnwindsParkedRanks: runtime.Goexit in a body (t.FailNow
// in a test body) ends the goroutine that called Run, as iter.Pull
// propagates it; the parked ranks must still be unwound on the way out.
func TestGoexitInBodyUnwindsParkedRanks(t *testing.T) {
	baseline := runtime.NumGoroutine()
	unwound := 0
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		s := New(Config{Procs: 3})
		s.Run(func(h *Handle) { //nolint:errcheck // never returns
			defer func() { unwound++ }()
			if h.ID() < 2 {
				h.Block()
			}
			runtime.Goexit()
		})
		returned = true
	}()
	<-done
	if returned || unwound != 3 {
		t.Fatalf("Run returned=%v with %d of 3 bodies unwound, want Goexit to propagate and unwind all", returned, unwound)
	}
	// The goroutine that ran the scheduler closes done just before it is
	// gone itself; give it that moment.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines live after Goexit, want <= %d", runtime.NumGoroutine(), baseline)
		}
	}
}
