package sweep_test

import (
	"strings"
	"testing"

	"rmalocks/internal/fault"
	"rmalocks/internal/sweep"
	"rmalocks/internal/trace"
	"rmalocks/internal/workload"
)

func mustFault(tb testing.TB, spec string) *fault.Profile {
	tb.Helper()
	p, err := fault.Parse(spec)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// faultGrid mixes a CapTimeout scheme with a queue scheme and a fault
// axis carrying both a perturbation-only and a timeout profile, so the
// per-scheme projection is exercised.
func faultGrid(tb testing.TB) sweep.Grid {
	return sweep.Grid{
		Schemes:   []string{workload.SchemeFoMPISpin, workload.SchemeRMAMCS},
		Workloads: []string{"empty"},
		Profiles:  []string{"uniform"},
		Ps:        []int{16},
		Iters:     10,
		FW:        0.5,
		Locks:     2,
		Faults: []*fault.Profile{
			mustFault(tb, "jitter=0.2,stall=50us@0.05"),
			mustFault(tb, "jitter=0.2,timeout=150us"),
		},
	}
}

// TestFaultAxisEnumeration pins the canonical order and the projection:
// every coordinate leads with its fault-free baseline cell, and the
// timeout profile is enumerated only for the CapTimeout scheme.
func TestFaultAxisEnumeration(t *testing.T) {
	cells := mustCells(t, faultGrid(t))
	var got []string
	for _, c := range cells {
		got = append(got, c.Key.String())
	}
	want := []string{
		"foMPI-Spin/empty/uniform/P=16",
		"foMPI-Spin/empty/uniform/P=16/faults=jitter=0.2,stall=50000@0.05",
		"foMPI-Spin/empty/uniform/P=16/faults=jitter=0.2,timeout=150000",
		"RMA-MCS/empty/uniform/P=16",
		"RMA-MCS/empty/uniform/P=16/faults=jitter=0.2,stall=50000@0.05",
	}
	if len(got) != len(want) {
		t.Fatalf("cell count %d want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cell %d: %s want %s", i, got[i], want[i])
		}
	}
}

// TestFaultAxisInvalidProfile pins the enumeration-time validation: a
// malformed profile fails Cells with the fault package's typed error.
func TestFaultAxisInvalidProfile(t *testing.T) {
	g := faultGrid(t)
	g.Faults = append(g.Faults, &fault.Profile{Jitter: -1})
	if _, err := g.Cells(); err == nil {
		t.Fatal("Cells accepted a negative-jitter profile")
	}
}

// TestNilFaultsAreNoFaultAxis: a fault axis holding only nil entries
// enumerates no faulted cell, so it is no fault axis at all. Its cells
// are the plain grid's, address and fingerprint, and so are those of
// its wire round trip, which drops nil entries: a grid posted to sweepd
// computes what a local run of it computes.
func TestNilFaultsAreNoFaultAxis(t *testing.T) {
	plain := testGrid()
	plain.Ps = []int{8}
	nilFaults := plain
	nilFaults.Faults = []*fault.Profile{nil}
	data, err := sweep.EncodeGrid(nilFaults)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := sweep.DecodeGrid(data)
	if err != nil {
		t.Fatal(err)
	}
	want := mustCells(t, plain)
	wantRes, err := sweep.Run(want, sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]sweep.Grid{"{nil} faults": nilFaults, "its wire round trip": wire} {
		cells := mustCells(t, g)
		if len(cells) != len(want) {
			t.Fatalf("%s: %d cells, want %d", name, len(cells), len(want))
		}
		res, err := sweep.Run(cells, sweep.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range cells {
			if c.Key != want[i].Key || c.Input != want[i].Input {
				t.Errorf("%s: cell %d is %s at %q, want %s at %q", name, i, c.Key, c.Input, want[i].Key, want[i].Input)
			}
			if res[i].Fingerprint != wantRes[i].Fingerprint {
				t.Errorf("%s: cell %s fingerprint %q, want %q", name, c.Key, res[i].Fingerprint, wantRes[i].Fingerprint)
			}
		}
	}
}

// TestApplyDegradation pins the baseline join and the derived metrics,
// which Run applies to a grid with a fault axis.
func TestApplyDegradation(t *testing.T) {
	g := faultGrid(t)
	g.Trace = trace.ClassSemantic // so jain_delta is computable
	results, err := sweep.Run(mustCells(t, g), sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The degradation invariants must hold on every traced fault-sweep
	// cell: mutual exclusion under stalls, no lost wakeups, every
	// timed-out acquire cleanly resolved.
	for _, r := range results {
		if r.Trace == nil {
			t.Fatalf("cell %s: no trace sink despite Grid.Trace", r.Key)
		}
		if err := trace.Validate(r.Trace.Events()); err != nil {
			t.Errorf("cell %s: replay validation: %v", r.Key, err)
		}
	}
	faulted := 0
	for _, r := range results {
		if r.Key.Faults == "" {
			if _, ok := r.Report.Extra[sweep.ExtraP99Infl]; ok {
				t.Errorf("baseline cell %s gained an inflation metric", r.Key)
			}
			continue
		}
		faulted++
		infl, ok := r.Report.Extra[sweep.ExtraP99Infl]
		if !ok {
			t.Errorf("faulted cell %s: no %s", r.Key, sweep.ExtraP99Infl)
			continue
		}
		if infl <= 0 {
			t.Errorf("faulted cell %s: %s = %g", r.Key, sweep.ExtraP99Infl, infl)
		}
		if _, ok := r.Report.Extra[sweep.ExtraJainDelta]; !ok {
			t.Errorf("faulted cell %s: no %s despite tracing", r.Key, sweep.ExtraJainDelta)
		}
		if r.Fingerprint != r.Report.Fingerprint() {
			t.Errorf("faulted cell %s: fingerprint not recomputed", r.Key)
		}
	}
	if faulted == 0 {
		t.Fatal("grid enumerated no faulted cells")
	}
	// Idempotence: a second pass must not change anything (the metrics
	// divide baselines that are themselves unchanged).
	before := make([]string, len(results))
	for i, r := range results {
		before[i] = r.Fingerprint
	}
	sweep.ApplyDegradation(results)
	for i, r := range results {
		if r.Fingerprint != before[i] {
			t.Errorf("cell %s: ApplyDegradation is not idempotent", r.Key)
		}
	}
}
