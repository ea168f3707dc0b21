package workload_test

// Fault-enabled differential suite: the deterministic perturbation
// layer (internal/fault) must preserve the core guarantee — identical
// configs produce byte-identical runs across all four engine ×
// coalescing combinations — under jitter, congestion windows,
// stragglers, stalls, and the bounded-acquire timeout path. Runs under
// -race in CI (the race and chaos-smoke jobs' Differential pattern).

import (
	"errors"
	"strings"
	"testing"

	"rmalocks/internal/fault"
	"rmalocks/internal/rma"
	"rmalocks/internal/scheme"
	"rmalocks/internal/sim"
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

// TestDifferentialFaultTraceStreams extends the semantic trace-stream
// gate to faulted runs: under stalls, jitter and acquire timeouts, the
// merged semantic event stream must stay byte-identical (raw CSV)
// across the matrix, and every stream must replay cleanly through
// trace.Validate's degradation invariants — mutual exclusion under
// stalls, no lost wakeups, every timed-out acquire cleanly resolved.
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
			var want string
			sawTimeout := false
			for i, ec := range engineCases {
				sink := trace.New(trace.ClassSemantic)
				_, err := workload.Run(workload.Spec{
					Scheme: tc.scheme,
					P:      16, ProcsPerNode: 4,
					Seed:     13,
					Iters:    10,
					Profile:  workload.Uniform{FW: 0.5, NumLocks: 2},
					Workload: &workload.SharedOp{},
					Faults:   tc.prof(t),
					Engine:   ec.engine, NoCoalesce: ec.noCoalesce,
					Trace: sink,
				})
				if err != nil {
					t.Fatalf("%s: %v", ec.name, err)
				}
				events := sink.Events()
				if err := trace.Validate(events); err != nil {
					t.Fatalf("%s: replay validation: %v", ec.name, err)
				}
				for _, e := range events {
					if e.Kind == trace.EvAcqTimeout {
						sawTimeout = true
					}
				}
				var b strings.Builder
				if err := trace.WriteCSV(&b, events); err != nil {
					t.Fatal(err)
				}
				got := b.String()
				if i == 0 {
					want = got
					if len(events) == 0 {
						t.Fatal("empty event stream")
					}
					continue
				}
				if got != want {
					t.Errorf("%s event stream diverged from %s (%d vs %d lines)",
						ec.name, engineCases[0].name,
						strings.Count(got, "\n"), strings.Count(want, "\n"))
					a, bb := strings.Split(want, "\n"), strings.Split(got, "\n")
					for j := 0; j < len(a) && j < len(bb); j++ {
						if a[j] != bb[j] {
							t.Errorf("first divergence at line %d:\n a: %s\n b: %s", j, a[j], bb[j])
							break
						}
					}
				}
			}
			if tc.scheme == workload.SchemeFoMPISpin && !sawTimeout {
				t.Error("expected EvAcqTimeout events under the timeout profile")
			}
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
