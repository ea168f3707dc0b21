package workload_test

// Fault-enabled differential suite: the deterministic perturbation
// layer (internal/fault) must preserve the core guarantee — identical
// configs produce byte-identical runs across all four engine ×
// publication-mode combinations — under jitter, congestion windows,
// stragglers, stalls, and the bounded-acquire timeout path. Runs under
// -race in CI (the race and chaos-smoke jobs' Differential pattern).
// Kept beside the identity matrix for the same reason as
// differential_test.go: the eager oracle and trace-stream equality.

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"rmalocks/internal/fault"
	"rmalocks/internal/rma"
	"rmalocks/internal/scheme"
	"rmalocks/internal/sim"
	"rmalocks/internal/topology"
	"rmalocks/internal/trace"
	"rmalocks/internal/workload"
)

// perturbProfile is the perturbation-only fault mix (no acquire
// timeouts), applicable to every scheme including the MCS-queue locks.
func perturbProfile(t *testing.T) *fault.Profile {
	t.Helper()
	p, err := fault.Parse("jitter=0.2,stragglers=4x10%,stall=50us@0.05,congest=3x0.25")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// timeoutProfile adds bounded acquires on top of the perturbations;
// only CapTimeout schemes accept it.
func timeoutProfile(t *testing.T) *fault.Profile {
	t.Helper()
	p, err := fault.Parse("jitter=0.2,stall=100us@0.1,timeout=150us")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDifferentialFaultsAllSchemes(t *testing.T) {
	for _, sch := range workload.Schemes {
		sch := sch
		t.Run(sch, func(t *testing.T) {
			t.Parallel()
			var baseFP string
			var baseClock int64
			for i, ec := range engineCases {
				rep, err := workload.Run(workload.Spec{
					Scheme: sch,
					P:      16, ProcsPerNode: 4,
					Seed:     11,
					Iters:    12,
					Profile:  workload.Uniform{FW: 0.5, NumLocks: 2},
					Workload: &workload.SharedOp{},
					Faults:   perturbProfile(t),
					Engine:   ec.engine, NoCoalesce: ec.noCoalesce,
				})
				if err != nil {
					t.Fatalf("%s: %v", ec.name, err)
				}
				if rep.Faults == "" {
					t.Fatal("Report.Faults not recorded")
				}
				fp := rep.Fingerprint()
				if i == 0 {
					baseFP, baseClock = fp, rep.MaxClock
					continue
				}
				if fp != baseFP {
					t.Errorf("%s diverged from %s:\n a: %s\n b: %s",
						ec.name, engineCases[0].name, baseFP, fp)
				}
				if rep.MaxClock != baseClock {
					t.Errorf("%s MaxClock %d != %d", ec.name, rep.MaxClock, baseClock)
				}
			}
		})
	}
}

// TestDifferentialFaultTimeoutPath pins the bounded try/backoff/retry
// acquire path across the engine matrix on both CapTimeout schemes.
// The profile is contentious enough that timeouts genuinely occur
// (asserted), so the retry machinery itself is differential-tested.
func TestDifferentialFaultTimeoutPath(t *testing.T) {
	for _, sch := range []string{workload.SchemeFoMPISpin, workload.SchemeFoMPIRW} {
		sch := sch
		t.Run(sch, func(t *testing.T) {
			t.Parallel()
			var baseFP string
			for i, ec := range engineCases {
				rep, err := workload.Run(workload.Spec{
					Scheme: sch,
					P:      16, ProcsPerNode: 4,
					Seed:     11,
					Iters:    12,
					Profile:  workload.Uniform{FW: 0.7, NumLocks: 2},
					Workload: &workload.SharedOp{},
					Faults:   timeoutProfile(t),
					Engine:   ec.engine, NoCoalesce: ec.noCoalesce,
				})
				if err != nil {
					t.Fatalf("%s: %v", ec.name, err)
				}
				if i == 0 {
					baseFP = rep.Fingerprint()
					if rep.Extra["timeouts"] == 0 {
						t.Errorf("expected some acquire timeouts under the contention profile, got none")
					}
					continue
				}
				if fp := rep.Fingerprint(); fp != baseFP {
					t.Errorf("%s diverged:\n a: %s\n b: %s", ec.name, baseFP, fp)
				}
			}
		})
	}
}

// TestDifferentialFaultTraceStreams extends the trace-stream gate (see
// checkTraceStreams) to faulted runs: under stalls, jitter and acquire
// timeouts the semantic stream stays byte-identical across the matrix and
// the full stream across engines within a mode, and every stream replays
// cleanly through trace.Validate's degradation invariants — mutual
// exclusion under stalls, no lost wakeups, every timed-out acquire cleanly
// resolved.
func TestDifferentialFaultTraceStreams(t *testing.T) {
	cases := []struct {
		scheme string
		prof   func(*testing.T) *fault.Profile
	}{
		{workload.SchemeFoMPISpin, timeoutProfile}, // EvAcqTimeout present
		{workload.SchemeRMAMCS, perturbProfile},    // queue lock under stalls
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.scheme, func(t *testing.T) {
			t.Parallel()
			events := checkTraceStreams(t, workload.Spec{
				Scheme: tc.scheme,
				P:      16, ProcsPerNode: 4,
				Seed:     13,
				Iters:    10,
				Profile:  workload.Uniform{FW: 0.5, NumLocks: 2},
				Workload: &workload.SharedOp{},
				Faults:   tc.prof(t),
			})
			if tc.scheme != workload.SchemeFoMPISpin {
				return
			}
			for _, e := range events {
				if e.Kind == trace.EvAcqTimeout {
					return
				}
			}
			t.Error("expected EvAcqTimeout events under the timeout profile")
		})
	}
}

// TestDifferentialFaultFreeUnchanged guards the off switch: a spec with
// a nil fault profile must produce a fingerprint byte-identical to a
// pre-fault run — no new Extra keys, no Faults part.
func TestDifferentialFaultFreeUnchanged(t *testing.T) {
	rep, err := workload.Run(workload.Spec{
		Scheme: workload.SchemeRMAMCS,
		P:      16, ProcsPerNode: 4,
		Seed:  11,
		Iters: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	fp := rep.Fingerprint()
	for _, frag := range []string{"faults=", "lat_p99", "timeouts"} {
		if strings.Contains(fp, frag) {
			t.Errorf("fault-free fingerprint contains %q: %s", frag, fp)
		}
	}
}

// TestFaultConformanceCapabilityRejection types the timeout capability
// gate: requesting bounded acquires against the MCS-queue schemes must
// fail fast with a *scheme.CapabilityError naming CapTimeout, on every
// engine.
func TestFaultConformanceCapabilityRejection(t *testing.T) {
	prof, err := fault.Parse("timeout=100us")
	if err != nil {
		t.Fatal(err)
	}
	for _, sch := range []string{workload.SchemeDMCS, workload.SchemeRMAMCS, workload.SchemeRMARW} {
		for _, ec := range engineCases[:3] {
			_, err := workload.Run(workload.Spec{
				Scheme: sch, P: 8, ProcsPerNode: 4, Iters: 2,
				Faults: prof, Engine: ec.engine,
			})
			var capErr *scheme.CapabilityError
			if !errors.As(err, &capErr) {
				t.Fatalf("%s/%s: got %v, want *scheme.CapabilityError", sch, ec.name, err)
			}
			if capErr.Scheme != sch || !capErr.Need.Has(scheme.CapTimeout) {
				t.Errorf("%s: CapabilityError = %+v", sch, capErr)
			}
		}
	}
}

// TestAbortConformanceAcrossEngines is the unified teardown gate: the
// two typed abort conditions — sim.ErrTimeLimit and the bounded-acquire
// ErrRetriesExhausted — must round-trip through errors.Is identically
// on both engines.
func TestAbortConformanceAcrossEngines(t *testing.T) {
	engines := []string{rma.EngineFast, rma.EngineRef}
	t.Run("time-limit", func(t *testing.T) {
		for _, eng := range engines {
			_, err := workload.Run(workload.Spec{
				Scheme: workload.SchemeFoMPISpin,
				P:      8, ProcsPerNode: 4,
				Iters: 50, TimeLimit: 50_000,
				Engine: eng,
			})
			if !errors.Is(err, sim.ErrTimeLimit) {
				t.Errorf("%s: got %v, want errors.Is(_, sim.ErrTimeLimit)", eng, err)
			}
		}
	})
	t.Run("retries-exhausted", func(t *testing.T) {
		// A 1ns timeout with zero retries cannot succeed under write
		// contention; onexhaust=abort must surface the typed sentinel.
		prof, err := fault.Parse("timeout=1ns,retries=0,onexhaust=abort")
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range engines {
			_, err := workload.Run(workload.Spec{
				Scheme: workload.SchemeFoMPISpin,
				P:      8, ProcsPerNode: 4,
				Iters:   10,
				Profile: workload.Uniform{FW: 1},
				Faults:  prof,
				Engine:  eng,
			})
			if !errors.Is(err, workload.ErrRetriesExhausted) {
				t.Errorf("%s: got %v, want errors.Is(_, workload.ErrRetriesExhausted)", eng, err)
			}
		}
	})
}

// TestDifferentialAborts: a run that dies must die the same way on all four
// engine × publication-mode combinations — same error text, failing rank
// and virtual clock included. A lazy rank runs ahead of its published
// clock, so this pins the two places where that could show: the charge
// that crosses the time limit publishes what came before it and waits its
// turn (a rank that computes forever must not fail ahead of one that is
// due earlier, and must fail at all), and Abort publishes before it records
// the clock. The poll cases pin the same two places inside a try the
// default engine's scheduler makes on another rank's stack, where "waits
// its turn" cannot be a yield: the run must still die of the polling rank,
// at its clock.
func TestDifferentialAborts(t *testing.T) {
	exhaust, err := fault.Parse("timeout=1ns,retries=0,onexhaust=abort")
	if err != nil {
		t.Fatal(err)
	}
	cell := func(spec workload.Spec) func(engineCase) error {
		return func(ec engineCase) error {
			spec.Engine, spec.NoCoalesce = ec.engine, ec.noCoalesce
			_, err := workload.Run(spec)
			return err
		}
	}
	// machine runs body on a bare P=8 machine; never is a window word
	// nobody writes.
	machine := func(limit int64, body func(p *rma.Proc, never int)) func(engineCase) error {
		return func(ec engineCase) error {
			m := rma.NewMachineConfig(topology.TwoLevel(2, 4), rma.Config{
				TimeLimit: limit, Engine: ec.engine, NoCoalesce: ec.noCoalesce})
			defer m.Release()
			never := m.Alloc(1)
			return m.Run(func(p *rma.Proc) { body(p, never) })
		}
	}
	// poll retries a read of never on rank 0 with the given back-off until
	// the run is over; last runs at the top of every try.
	poll := func(p *rma.Proc, never int, backoff int64, last func(try int)) {
		try := 0
		p.Poll(rma.RetryFunc(func() bool {
			try++
			if last != nil {
				last(try)
			}
			v := p.Get(0, never)
			p.Flush(0)
			p.Compute(backoff + int64(p.Rank()))
			return v != 0
		}))
	}
	cases := []struct {
		name string
		is   error
		run  func(engineCase) error
	}{
		// Eight ranks poll one word. With next to no back-off all of a
		// try's time is its Get, queued behind seven others at rank 0: the
		// limit is crossed inside the operation's own charge.
		{"poll-limit-in-operation", sim.ErrTimeLimit, machine(50_000, func(p *rma.Proc, never int) {
			poll(p, never, 1, nil)
		})},
		// With a back-off of several round trips it is crossed there.
		{"poll-limit-in-backoff", sim.ErrTimeLimit, machine(50_000, func(p *rma.Proc, never int) {
			poll(p, never, 7_000, nil)
		})},
		// Rank 0 runs into the limit alone, in one charge, with everybody
		// else parked in a poll at a fraction of it.
		{"poll-limit-elsewhere", sim.ErrTimeLimit, machine(1_000_000, func(p *rma.Proc, never int) {
			if p.Rank() != 0 {
				poll(p, never, 500, nil)
			}
			p.Get(0, never)
			p.Compute(20_000)
			p.Compute(1_000_000)
		})},
		// Rank 3 gives up in its fourth try, the others parked around it.
		{"poll-abort", workload.ErrRetriesExhausted, machine(1_000_000, func(p *rma.Proc, never int) {
			poll(p, never, 500, func(try int) {
				if p.Rank() == 3 && try == 4 {
					p.Abort(fmt.Errorf("%w (rank 3 in try %d)", workload.ErrRetriesExhausted, try))
				}
			})
		})},
		{"time-limit", sim.ErrTimeLimit, cell(workload.Spec{
			Scheme: workload.SchemeFoMPISpin,
			P:      8, ProcsPerNode: 4,
			Iters: 50, TimeLimit: 50_000,
		})},
		// The loop of rma's scratch_test dirty(): odd ranks park for good,
		// even ranks charge local time forever in steps of their own, so
		// the rank whose charge crosses the limit first in virtual time
		// (rank 4) is not the one a lazy run lets loop first (rank 0).
		{"compute-loop", sim.ErrTimeLimit, machine(1_000_000, func(p *rma.Proc, never int) {
			r := p.Rank()
			p.Put(int64(r)+1, (r+1)%p.Machine().Procs(), never)
			p.Flush(r)
			if r%2 == 1 {
				p.SpinUntil(r, never, func(v int64) bool { return v == rma.Nil })
			}
			for {
				p.Compute(10_000*int64(r+1) + int64(r))
			}
		})},
		// A 1ns timeout with zero retries cannot succeed under write
		// contention; onexhaust=abort calls Proc.Abort mid-protocol.
		{"retries-exhausted", workload.ErrRetriesExhausted, cell(workload.Spec{
			Scheme: workload.SchemeFoMPISpin,
			P:      8, ProcsPerNode: 4,
			Iters:   10,
			Profile: workload.Uniform{FW: 1},
			Faults:  exhaust,
		})},
		{"barrier-deadlock", sim.ErrDeadlock, machine(0, func(p *rma.Proc, never int) {
			r := p.Rank()
			p.FAO(1, 0, never, rma.OpSum)
			p.Compute(100 * int64(8-r))
			if r == 3 {
				p.SpinUntil(r, never, func(v int64) bool { return v == rma.Nil })
			}
			p.Flush(0)
			p.Barrier()
		})},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var want string
			for i, ec := range engineCases {
				err := tc.run(ec)
				if !errors.Is(err, tc.is) {
					t.Fatalf("%s: got %v, want errors.Is(_, %v)", ec.name, err, tc.is)
				}
				if i == 0 {
					want = err.Error()
					t.Log(want)
				} else if got := err.Error(); got != want {
					t.Errorf("%s died differently from %s:\n a: %s\n b: %s", ec.name, engineCases[0].name, want, got)
				}
			}
		})
	}
}

// TestFaultConformanceSeedSensitivity pins that the fault stream really
// is keyed by the seed: two different fault seeds must (with these
// perturbation magnitudes) produce different fingerprints, while two
// identical ones are byte-identical.
func TestFaultConformanceSeedSensitivity(t *testing.T) {
	run := func(faultSeed int64) string {
		prof := perturbProfile(t)
		prof.Seed = faultSeed
		rep, err := workload.Run(workload.Spec{
			Scheme: workload.SchemeFoMPISpin,
			P:      16, ProcsPerNode: 4,
			Seed:     11,
			Iters:    12,
			Profile:  workload.Uniform{FW: 0.5, NumLocks: 2},
			Workload: &workload.SharedOp{},
			Faults:   prof,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Fingerprint()
	}
	a1, a2, b := run(1), run(1), run(2)
	if a1 != a2 {
		t.Errorf("same fault seed diverged:\n a: %s\n b: %s", a1, a2)
	}
	if a1 == b {
		t.Error("different fault seeds produced identical fingerprints")
	}
	if !strings.Contains(a1, "seed=1") || !strings.Contains(b, "seed=2") {
		t.Errorf("fault seed missing from fingerprints:\n a: %s\n b: %s", a1, b)
	}
}
