package refsim

// The reference engine gets its own smoke battery: the differential
// suite in internal/workload only proves fast == ref, which is vacuous
// if ref itself drifts from the documented semantics.

import (
	"errors"
	"strings"
	"testing"

	"rmalocks/internal/sim"
)

func TestVirtualTimeOrderAndDeterminism(t *testing.T) {
	run := func() []int {
		var order []int
		s := New(sim.Config{Procs: 8})
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
	a, b := run(), run()
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
	s := New(sim.Config{Procs: 4, BarrierCost: cost})
	clocks := make([]int64, 4)
	err := s.Run(func(h *Handle) {
		h.Advance(int64(1000 * (h.ID() + 1)))
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

func TestTimeLimitSharesSimSentinel(t *testing.T) {
	s := New(sim.Config{Procs: 2, TimeLimit: 10_000})
	err := s.Run(func(h *Handle) {
		for {
			h.Advance(100)
		}
	})
	if !errors.Is(err, sim.ErrTimeLimit) {
		t.Fatalf("err=%v want sim.ErrTimeLimit", err)
	}
}

func TestExitCompletesBarrier(t *testing.T) {
	const cost = 100
	s := New(sim.Config{Procs: 5, BarrierCost: cost})
	clocks := make([]int64, 5)
	err := s.Run(func(h *Handle) {
		if h.ID() >= 3 {
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

func TestWakeExitedPanicsDistinctly(t *testing.T) {
	s := New(sim.Config{Procs: 2})
	s.procs[1].exited = true
	h1 := &Handle{s: s, p: s.procs[1]}
	defer func() {
		msg, ok := recover().(string)
		if !ok || !strings.Contains(msg, "exited") {
			t.Fatalf("want exited panic, got %v", msg)
		}
	}()
	h1.WakeAt(100)
}

func TestHorizonMatchesFastEngineFormula(t *testing.T) {
	// Horizon must equal the fast engine's cached value: heap-top clock,
	// minus one when the caller loses the (clock, id) tie-break, clamped
	// to the time limit.
	s := New(sim.Config{Procs: 3, TimeLimit: 1 << 30})
	var got []int64
	err := s.Run(func(h *Handle) {
		if h.ID() == 0 {
			// Others still at clock 0: horizon is 0 (we win ties... no:
			// heap top is proc 1 at clock 0 and 0 < 1, so horizon = 0).
			got = append(got, h.Horizon())
			h.Advance(10)
		} else {
			h.Advance(int64(100 * h.ID()))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || got[0] != 0 {
		t.Fatalf("Horizon=%v want [0]", got)
	}
}
