package workload_test

// Differential determinism suite: the token-owned fast-path scheduler
// (internal/sim) against the reference engine (internal/sim/refsim), and
// lazy publication of virtual time (internal/rma) against the eager oracle
// (NoCoalesce: every charge goes to the scheduler at once). For every
// lock scheme × contention profile cell, all four engine × mode
// combinations must produce byte-identical reports and equal MaxClock —
// the fast path and lazy publication are pure optimisations, never allowed
// to change a single virtual-time decision. Run under -race in CI to also
// exercise the fast path's lock-free clock increments.

import (
	"fmt"
	"strings"
	"testing"

	"rmalocks/internal/rma"
	"rmalocks/internal/trace"
	"rmalocks/internal/workload"
)

// diffProfiles returns fresh instances of every contention generator
// (profiles are stateless values, but build them per call anyway).
func diffProfiles() []workload.Profile {
	return []workload.Profile{
		workload.Uniform{FW: 0.2, NumLocks: 4},
		workload.NewZipf(4, 1.2, 0.3),
		workload.Bursty{FW: 0.3, Desync: true},
		workload.RWSweep{FWStart: 0, FWEnd: 1, Span: 12},
	}
}

type engineCase struct {
	name       string
	engine     string
	noCoalesce bool
}

var engineCases = []engineCase{
	{"fast", rma.EngineFast, false},
	{"fast-nocoalesce", rma.EngineFast, true},
	{"ref", rma.EngineRef, false},
	{"ref-nocoalesce", rma.EngineRef, true},
}

func TestDifferentialEnginesAllSchemesProfiles(t *testing.T) {
	for _, scheme := range workload.Schemes {
		for pi := range diffProfiles() {
			scheme, pi := scheme, pi
			t.Run(fmt.Sprintf("%s/%s", scheme, diffProfiles()[pi].Name()), func(t *testing.T) {
				t.Parallel()
				var baseFP string
				var baseClock int64
				for i, ec := range engineCases {
					spec := workload.Spec{
						Scheme: scheme,
						P:      16, ProcsPerNode: 4,
						Seed:     11,
						Iters:    12,
						Profile:  diffProfiles()[pi],
						Workload: &workload.SharedOp{},
						Engine:   ec.engine, NoCoalesce: ec.noCoalesce,
					}
					rep, err := workload.Run(spec)
					if err != nil {
						t.Fatalf("%s: %v", ec.name, err)
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
}

// traceCSV runs spec capturing the classes in mask and returns the merged
// stream, replayed through trace.Validate, with its canonical CSV. A
// ClassCharge capture leaves out what depends on the engine — EvAdvance
// (refsim has no fast path and records every Advance, the default engine
// only those that reach its slow path), renumbering Seq over what is left,
// and EvDispatch's served-inline mark (only the default engine runs a
// parked poll's tries itself).
func traceCSV(t *testing.T, spec workload.Spec, ec engineCase, mask trace.Class) ([]trace.Event, string) {
	t.Helper()
	sink := trace.New(mask)
	spec.Engine, spec.NoCoalesce, spec.Trace = ec.engine, ec.noCoalesce, sink
	if _, err := workload.Run(spec); err != nil {
		t.Fatalf("%s: %v", ec.name, err)
	}
	events := sink.Events()
	if len(events) == 0 {
		t.Fatalf("%s: empty event stream", ec.name)
	}
	if err := trace.Validate(events); err != nil {
		t.Fatalf("%s: replay validation (mask %#x): %v", ec.name, mask, err)
	}
	if mask&trace.ClassCharge != 0 {
		kept := make([]trace.Event, 0, len(events))
		seq := make([]uint32, spec.P)
		for _, e := range events {
			if e.Kind != trace.EvAdvance {
				if e.Kind == trace.EvDispatch {
					e.Arg1 = 0
				}
				e.Seq = seq[e.Rank]
				seq[e.Rank]++
				kept = append(kept, e)
			}
		}
		events = kept
	}
	var b strings.Builder
	if err := trace.WriteCSV(&b, events); err != nil {
		t.Fatal(err)
	}
	return events, b.String()
}

// sameStream fails with the first diverging line unless two CSV streams
// are byte-identical.
func sameStream(t *testing.T, what, aName, a, bName, b string) {
	t.Helper()
	if a == b {
		return
	}
	t.Errorf("%s: %s diverged from %s (%d vs %d lines)", what, bName, aName,
		strings.Count(b, "\n"), strings.Count(a, "\n"))
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for j := 0; j < len(al) && j < len(bl); j++ {
		if al[j] != bl[j] {
			t.Errorf("first divergence at line %d:\n a: %s\n b: %s", j, al[j], bl[j])
			return
		}
	}
}

// checkTraceStreams holds spec to the trace subsystem's two contracts on
// all four engine × publication-mode combinations, every stream replayed
// through trace.Validate:
//
//   - the semantic capture — blocks, wakes, barriers, RMA ops, lock
//     events, their clocks and their Seq numbers — is byte-identical on
//     all four: lazy publication moves when a rank tells the scheduler
//     its clock, never when anything another rank can observe happens;
//   - the full capture, rma's publication points and the token hand-offs
//     (EvFlush, EvDispatch) included, is byte-identical across engines
//     within a mode. Across modes it differs by design: an eager run
//     hands the token over after every charge, a lazy one only before an
//     observable operation.
//
// It returns the semantic events of the first combination.
func checkTraceStreams(t *testing.T, spec workload.Spec) []trace.Event {
	t.Helper()
	var semantic []trace.Event
	var wantSemantic string
	type stream struct{ name, csv string }
	wantFull := map[bool]stream{} // the first full stream of each mode, by noCoalesce
	for i, ec := range engineCases {
		events, got := traceCSV(t, spec, ec, trace.ClassSemantic)
		if i == 0 {
			semantic, wantSemantic = events, got
		}
		sameStream(t, "semantic stream", engineCases[0].name, wantSemantic, ec.name, got)

		_, full := traceCSV(t, spec, ec, trace.ClassAll)
		if want, ok := wantFull[ec.noCoalesce]; ok {
			sameStream(t, "full stream", want.name, want.csv, ec.name, full)
		} else {
			wantFull[ec.noCoalesce] = stream{ec.name, full}
		}
	}
	if wantFull[false].csv == wantFull[true].csv {
		t.Error("lazy and eager runs handed the token over at the same points: NoCoalesce is not an eager oracle here")
	}
	return semantic
}

// TestDifferentialTraceStreams is the trace ↔ publication-mode gate (see
// checkTraceStreams) on every scheme. Runs under -race in CI (the race
// job's Differential pattern), which also exercises the unlocked emission
// paths of the fast engine.
func TestDifferentialTraceStreams(t *testing.T) {
	for _, scheme := range workload.Schemes {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			t.Parallel()
			checkTraceStreams(t, workload.Spec{
				Scheme: scheme,
				P:      16, ProcsPerNode: 4,
				Seed:     13,
				Iters:    10,
				Profile:  workload.Uniform{FW: 0.5, NumLocks: 2},
				Workload: &workload.SharedOp{},
			})
		})
	}
}

// TestDifferentialDHT pins the engines against each other on the DHT
// benchmark (rank 0 hosting the volume): the heaviest user of SpinUntil
// wake-ups and therefore of the horizon-shrink path.
func TestDifferentialDHT(t *testing.T) {
	mk := func(engine string, noCoalesce bool) workload.Spec {
		return workload.Spec{
			Scheme: workload.SchemeRMARW,
			P:      8, ProcsPerNode: 4,
			Seed:  5,
			Iters: 10, Warmup: -1,
			Profile:  workload.Uniform{FW: 0.4},
			Workload: &workload.DHTOps{Slots: 64, Cells: 256},
			Engine:   engine, NoCoalesce: noCoalesce,
		}
	}
	var baseFP string
	for i, ec := range engineCases {
		rep, err := workload.Run(mk(ec.engine, ec.noCoalesce))
		if err != nil {
			t.Fatalf("%s: %v", ec.name, err)
		}
		if i == 0 {
			baseFP = rep.Fingerprint()
			continue
		}
		if fp := rep.Fingerprint(); fp != baseFP {
			t.Errorf("%s diverged:\n a: %s\n b: %s", ec.name, baseFP, fp)
		}
	}
}

// TestDifferentialWorkloads sweeps the remaining critical-section bodies
// (empty, counter) on both engines at a writer-heavy mix.
func TestDifferentialWorkloads(t *testing.T) {
	for _, wname := range []string{"empty", "counter"} {
		wname := wname
		t.Run(wname, func(t *testing.T) {
			t.Parallel()
			var baseFP string
			for i, ec := range engineCases {
				wl, err := workload.ByName(wname)
				if err != nil {
					t.Fatal(err)
				}
				spec := workload.Spec{
					Scheme: workload.SchemeRMAMCS,
					P:      16, ProcsPerNode: 4,
					Seed:     3,
					Iters:    10,
					Profile:  workload.Uniform{FW: 1},
					Workload: wl,
					Engine:   ec.engine, NoCoalesce: ec.noCoalesce,
				}
				rep, err := workload.Run(spec)
				if err != nil {
					t.Fatalf("%s: %v", ec.name, err)
				}
				if i == 0 {
					baseFP = rep.Fingerprint()
					continue
				}
				if fp := rep.Fingerprint(); fp != baseFP {
					t.Errorf("%s diverged:\n a: %s\n b: %s", ec.name, baseFP, fp)
				}
			}
		})
	}
}
