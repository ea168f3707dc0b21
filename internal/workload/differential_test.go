package workload_test

// Differential determinism suite: the token-owned fast-path scheduler
// (internal/sim) against the reference engine (internal/sim/refsim), and
// charge coalescing (internal/rma) against uncoalesced charging. For every
// lock scheme × contention profile cell, all four engine/coalesce
// combinations must produce byte-identical reports and equal MaxClock —
// the fast path and the coalescer are pure optimisations, never allowed to
// change a single virtual-time decision. Run under -race in CI to also
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

// TestDifferentialTraceStreams is the trace ↔ coalescing interplay
// gate: for every engine × coalescing combination, the merged semantic
// event stream (scheduler handoffs, RMA ops, lock protocol — everything
// except the ClassCharge publication diagnostics) must be byte-identical,
// and must replay cleanly through trace.Validate. Charge coalescing may
// move *when* virtual time is published, but never when anything
// observable happens; this test pins that at per-event granularity.
// The comparison is on the raw CSV, EvDispatch handoffs and Seq numbers
// included. Runs under -race in CI (the race job's Differential pattern),
// which also exercises the lock-free emission path of the fast engine.
func TestDifferentialTraceStreams(t *testing.T) {
	for _, scheme := range workload.Schemes {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			t.Parallel()
			var want string
			for i, ec := range engineCases {
				sink := trace.New(trace.ClassSemantic)
				spec := workload.Spec{
					Scheme: scheme,
					P:      16, ProcsPerNode: 4,
					Seed:     13,
					Iters:    10,
					Profile:  workload.Uniform{FW: 0.5, NumLocks: 2},
					Workload: &workload.SharedOp{},
					Engine:   ec.engine, NoCoalesce: ec.noCoalesce,
					Trace: sink,
				}
				if _, err := workload.Run(spec); err != nil {
					t.Fatalf("%s: %v", ec.name, err)
				}
				events := sink.Events()
				if err := trace.Validate(events); err != nil {
					t.Fatalf("%s: replay validation: %v", ec.name, err)
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
					// Show the first diverging line for debugging.
					a, bb := strings.Split(want, "\n"), strings.Split(got, "\n")
					for j := 0; j < len(a) && j < len(bb); j++ {
						if a[j] != bb[j] {
							t.Errorf("first divergence at line %d:\n a: %s\n b: %s", j, a[j], bb[j])
							break
						}
					}
				}
			}
		})
	}
}

// TestDifferentialDHT pins the engines against each other on the DHT
// workload (Skip rank, sharded locks): the heaviest user of SpinUntil
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
			Skip:     func(rank, procs int) bool { return rank == 0 },
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
