package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"rmalocks/internal/trace"
)

// stepFunc makes a Stepper of a function.
type stepFunc func() (int64, bool)

func (f stepFunc) Step() (int64, bool) { return f() }

// loopPoll is what Poll means, spelled out: the oracle of this file.
func loopPoll(h *Handle, st Stepper) {
	for {
		d, done := st.Step()
		if done {
			return
		}
		if d > 0 {
			h.Advance(d)
		}
	}
}

// TestPollMatchesLoop runs random programs of Advance, Poll, Block/WakeAt and
// Barrier twice, once with Poll and once with the loop it stands for, and
// requires the same tries at the same clocks in the same global order: the
// scheduler makes a parked rank's tries exactly when the rank itself would
// have.
func TestPollMatchesLoop(t *testing.T) {
	type ev struct {
		id    int
		clock int64
		what  string
	}
	inline := 0 // hand-offs served without a switch, over all runs
	run := func(seed int64, poll func(*Handle, Stepper)) ([]ev, int64) {
		const procs = 7
		sink := trace.New(trace.ClassCharge)
		var log []ev // token-held appends only
		handles := make([]*Handle, procs)
		blocked := make([]bool, procs)
		running := procs
		s := New(Config{Procs: procs, BarrierCost: 5, Trace: sink})
		err := s.Run(func(h *Handle) {
			id := h.ID()
			handles[id] = h
			rng := rand.New(rand.NewSource(seed*31 + int64(id)))
			for i := 0; i < 40; i++ {
				switch k := rng.Intn(10); {
				case k < 4:
					h.Advance(1 + rng.Int63n(90))
					log = append(log, ev{id, h.Clock(), "adv"})
				case k < 8:
					// A poll of a few tries, the costs of which straddle the
					// other ranks' clocks; a try may wake a blocked rank, and
					// may cost nothing.
					tries := rng.Intn(6)
					poll(h, stepFunc(func() (int64, bool) {
						log = append(log, ev{id, h.Clock(), fmt.Sprint("try", tries)})
						if s.running != int32(id) {
							t.Errorf("rank %d's step ran while rank %d held the token", id, s.running)
						}
						for q, b := range blocked {
							if b && rng.Intn(3) == 0 {
								blocked[q] = false
								handles[q].WakeAt(h.Clock() + rng.Int63n(50))
							}
						}
						if tries == 0 {
							return 0, true
						}
						tries--
						return rng.Int63n(60), false
					}))
					log = append(log, ev{id, h.Clock(), "polled"})
				case k < 9 && id%2 == 1:
					// Odd ranks block now and then; whoever polls wakes them.
					blocked[id] = true
					h.Block()
					log = append(log, ev{id, h.Clock(), "woken"})
				}
			}
			// Nobody stays blocked for good: rank 0, which never blocks, keeps
			// waking whoever is until it is the last rank running.
			running--
			for id == 0 && running > 0 {
				h.Advance(1000)
				for q, b := range blocked {
					if b {
						blocked[q] = false
						handles[q].WakeAt(h.Clock())
					}
				}
			}
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, e := range sink.Events() {
			if e.Kind == trace.EvDispatch {
				inline += int(e.Arg1)
			}
		}
		return log, s.MaxClock()
	}
	for seed := int64(1); seed <= 30; seed++ {
		want, wantMax := run(seed, loopPoll)
		got, gotMax := run(seed, (*Handle).Poll)
		if gotMax != wantMax || !reflect.DeepEqual(got, want) {
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					t.Fatalf("seed %d: event %d of %d: the loop %v, Poll %v", seed, i, len(want), want[i], got[min(i, len(got)-1)])
				}
			}
			t.Fatalf("seed %d: MaxClock %d with Poll, %d with the loop (%d vs %d events)", seed, gotMax, wantMax, len(got), len(want))
		}
	}
	if inline < 100 {
		t.Errorf("%d hand-offs served inline over all programs: they do not park their polls", inline)
	}
}

// forever is a step that never succeeds and costs d a try.
type forever int64

func (d forever) Step() (int64, bool) { return int64(d), false }

// TestPollStepFailures: whatever goes wrong inside a step that the
// scheduler runs on another rank's stack is the stepping rank's — the
// error names it and its clock — the host and everybody else unwind
// through their deferred functions, and nothing is left in the pooled
// tables. Rank 1 tries every 100 ns and rank 0 advances in steps of 70, so
// rank 1 parks after its first try and rank 0's Advance makes the others.
func TestPollStepFailures(t *testing.T) {
	errBoom := errors.New("boom")
	cases := []struct {
		name  string
		limit int64
		step  func(h *Handle) // rank 1's fourth try, at clock 300
		want  string
		is    error
	}{
		{name: "panic", step: func(h *Handle) { panic("kaboom") },
			want: "sim: process 1 panicked: kaboom"},
		{name: "abort", step: func(h *Handle) { h.Abort(errBoom) },
			want: "boom (process 1 at 300 ns)", is: errBoom},
		{name: "block", step: (*Handle).Block,
			want: "sim: process 1 panicked: sim: process 1: Block inside a Poll step"},
		{name: "barrier", step: (*Handle).Barrier,
			want: "sim: process 1 panicked: sim: process 1: Barrier inside a Poll step"},
		{name: "nested-poll", step: func(h *Handle) { h.Poll(forever(1)) },
			want: "sim: process 1 panicked: sim: process 1: Poll inside a Poll step"},
		{name: "advance-past-horizon", step: func(h *Handle) { h.Advance(1 << 40) },
			want: "sim: process 1 panicked: sim: process 1: Advance past the horizon inside a Poll step"},
		{name: "advance-past-limit", limit: 5000, step: func(h *Handle) { h.Advance(4701) },
			want: "(process 1 at 5001 ns)", is: ErrTimeLimit},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			unwound := 0
			ran := false
			s := New(Config{Procs: 2, TimeLimit: tc.limit})
			err := s.Run(func(h *Handle) {
				defer func() { unwound++ }()
				if h.ID() == 0 {
					for {
						h.Advance(70)
					}
				}
				tries := 0
				h.Poll(stepFunc(func() (int64, bool) {
					if tries++; tries == 4 {
						stack := make([]byte, 4096)
						ran = strings.Contains(string(stack[:runtime.Stack(stack, false)]), "(*Handle).advanceSlow")
						tc.step(h)
					}
					return 100, false
				}))
			})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err=%v, want it to contain %q", err, tc.want)
			}
			if tc.is != nil && !errors.Is(err, tc.is) {
				t.Fatalf("err=%v, want errors.Is(_, %v)", err, tc.is)
			}
			if !ran {
				t.Fatal("rank 1's failing try did not run inside rank 0's Advance")
			}
			if unwound != 2 {
				t.Errorf("%d of 2 rank bodies unwound before Run returned", unwound)
			}
			checkNoRankCoroutines(t, s, baseline)
			s.Release()
		})
	}
}

// TestPollFirstTriesRunOnOwnStack: a poll whose tries never charge the rank
// past its horizon never parks, and one that succeeds at once costs no
// dispatch at all.
func TestPollFirstTriesRunOnOwnStack(t *testing.T) {
	s := New(Config{Procs: 2})
	err := s.Run(func(h *Handle) {
		if h.ID() == 1 {
			h.Advance(1000)
			return
		}
		tries := 0
		h.Poll(stepFunc(func() (int64, bool) {
			if s.state[0]&stInHeap != 0 {
				t.Errorf("try %d: rank 0 was queued although nobody was due before clock 1000", tries)
			}
			tries++
			return 100, tries == 5
		}))
		if h.Clock() != 400 {
			t.Errorf("clock %d after four failed tries of 100 ns, want 400", h.Clock())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestConfinementCheckedUnderRace: -race builds check at every slow path
// that a handle acts only for the token holder — which a step run on the
// dispatching rank's stack does, and a rank reaching for another rank's
// handle does not.
func TestConfinementCheckedUnderRace(t *testing.T) {
	if !raceEnabled {
		t.Skip("the confinement check is compiled in under -race only")
	}
	for name, misuse := range map[string]func(*Handle){
		"Advance": func(h *Handle) { h.Advance(1 << 40) },
		"Block":   (*Handle).Block,
		"Barrier": (*Handle).Barrier,
		"Abort":   func(h *Handle) { h.Abort(errors.New("boom")) },
		"Poll":    func(h *Handle) { h.Poll(forever(1)) },
	} {
		s := New(Config{Procs: 2})
		err := s.Run(func(h *Handle) {
			if h.ID() == 0 {
				misuse(&s.handles[1])
			}
		})
		const want = "sim: process 0 panicked: sim: process 1 used while process 0 holds the token"
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s on another rank's handle: err=%v, want %q", name, err, want)
		}
		s.Release()
	}
}
