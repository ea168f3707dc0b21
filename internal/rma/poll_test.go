package rma

// The step contract of Poll (see Retry): what a try may not do it may not
// do anywhere — on the reference engine and under NoCoalesce, where the
// loop runs as written and would get away with it, as on the default
// engine, where the try may be running on another rank's stack — and the
// error names the rank whose try it was, not the rank whose stack it ran
// on. FuzzLazyMatchesEager holds polls that keep the contract to their
// loops.

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"rmalocks/internal/topology"
)

// pollModes are the four engine × publication-mode combinations.
var pollModes = []struct {
	engine string
	eager  bool
}{{EngineFast, false}, {EngineFast, true}, {EngineRef, false}, {EngineRef, true}}

// runPollProgram runs rank 1 polling word on rank 0 — a Get, a Flush, a
// back-off of 300 ns, never succeeding — with breach called at the top of
// its try number at, while rank 0 and 2 keep the token moving with
// operations of their own, so that every try after the first is one the
// scheduler makes.
func runPollProgram(engine string, eager bool, at int, breach func(p *Proc, word int)) error {
	m := NewMachineConfig(topology.TwoLevel(1, 3), Config{Engine: engine, NoCoalesce: eager, TimeLimit: 1_000_000})
	defer m.Release()
	word := m.Alloc(1)
	return m.Run(func(p *Proc) {
		if p.Rank() != 1 {
			for i := 0; i < 1000; i++ {
				p.Put(int64(i), p.Rank(), word)
				p.Compute(170)
			}
			return
		}
		tries := 0
		p.Poll(RetryFunc(func() bool {
			if tries++; tries == at {
				breach(p, word)
			}
			p.Get(0, word)
			p.Flush(0)
			p.Compute(300)
			return false
		}))
	})
}

func TestPollContract(t *testing.T) {
	errBoom := errors.New("boom")
	cases := []struct {
		name   string
		breach func(p *Proc, word int)
		want   string
		same   bool // the whole error text is the same everywhere (a panic's carries the engine's name and a stack)
	}{
		{"second-operation", func(p *Proc, word int) { p.Get(0, word) },
			"rank 1: a Retry try issued an observable operation after charging time", false},
		{"charge-before-operation", func(p *Proc, word int) { p.Compute(1) },
			"rank 1: a Retry try issued an observable operation after charging time", false},
		{"spin-until", func(p *Proc, word int) { p.SpinUntil(0, word, func(int64) bool { return true }) },
			"rank 1: SpinUntil inside a Retry try", false},
		{"barrier", func(p *Proc, word int) { p.Barrier() },
			"rank 1: Barrier inside a Retry try", false},
		{"nested-poll", func(p *Proc, word int) { p.Poll(RetryFunc(func() bool { return true })) },
			"rank 1: Poll inside a Retry try", false},
		{"panic", func(p *Proc, word int) { panic("kaboom") },
			"process 1 panicked: kaboom", false},
		{"abort", func(p *Proc, word int) { p.Abort(errBoom) },
			"boom (process 1 at ", true},
	}
	for _, tc := range cases {
		for _, at := range []int{1, 5} {
			t.Run(fmt.Sprintf("%s/try-%d", tc.name, at), func(t *testing.T) {
				var first string
				for _, mode := range pollModes {
					err := runPollProgram(mode.engine, mode.eager, at, tc.breach)
					if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "process 1 ") {
						t.Fatalf("engine=%s eager=%v: err=%v, want process 1 and %q", mode.engine, mode.eager, err, tc.want)
					}
					if !tc.same {
						continue
					}
					if first == "" {
						first = err.Error()
					} else if err.Error() != first {
						t.Errorf("engine=%s eager=%v died differently:\n a: %s\n b: %s", mode.engine, mode.eager, first, err)
					}
				}
			})
		}
	}
}

// TestPollSucceedingAtOnceIsFree: a poll whose first try succeeds sets
// nothing up — what an uncontended acquire costs on top of its operation.
func TestPollSucceedingAtOnceIsFree(t *testing.T) {
	m := NewMachineConfig(topology.TwoLevel(1, 2), Config{})
	defer m.Release()
	word := m.Alloc(1)
	var allocs float64
	err := m.Run(func(p *Proc) {
		if p.Rank() != 0 {
			return
		}
		once := RetryFunc(func() bool { return p.CAS(0, 0, 0, word) == 0 })
		allocs = testing.AllocsPerRun(100, func() { p.Poll(once) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("a poll that succeeds at once allocated %.0f times", allocs)
	}
}
