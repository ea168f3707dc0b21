package workload_test

import (
	"testing"

	"rmalocks/internal/scheme"
	"rmalocks/internal/workload"
)

// TestWitness pins what a run's witness admits and when there is none.
// Whether an admitted sibling really runs the same is the sweep
// package's differential test (TestDerivedCellsEqualColdRuns).
func TestWitness(t *testing.T) {
	run := func(spec workload.Spec) workload.Witness {
		t.Helper()
		spec.P, spec.Iters = 32, 10
		_, w, err := workload.RunWitness(spec)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	rw := run(workload.Spec{Scheme: "RMA-RW", Profile: workload.Uniform{FW: 0.1},
		Tunables: scheme.Tunables{"TR": 500, "TL1": 16}})
	mcs := run(workload.Spec{Scheme: "RMA-MCS", Tunables: scheme.Tunables{"TL2": 8}})
	harness := run(workload.Spec{Scheme: "RMA-RW", Profile: workload.Uniform{FW: 0.1}})
	for _, tc := range []struct {
		name  string
		w     workload.Witness
		t     scheme.Tunables
		admit bool
	}{
		{"its own tunables", rw, scheme.Tunables{"TR": 500, "TL1": 16}, true},
		{"a T_R no counter reached", rw, scheme.Tunables{"TR": 6000, "TL1": 16}, true},
		{"a T_R a counter reached", rw, scheme.Tunables{"TR": 1, "TL1": 16}, false},
		{"T_DC is not a threshold", rw, scheme.Tunables{"TR": 500, "TL1": 16, "TDC": 1}, false},
		{"T_DC at its default", rw, scheme.Tunables{"TR": 500, "TL1": 16, "TDC": 16}, true},
		{"a value the registry rejects", rw, scheme.Tunables{"TR": 0, "TL1": 16}, false},
		{"a key the registry rejects", rw, scheme.Tunables{"TR": 500, "TL1": 16, "TX": 1}, false},
		{"a level the machine lacks", rw, scheme.Tunables{"TR": 500, "TL1": 16, "TL3": 4}, false},
		{"RMA-MCS never reads T_L,1", mcs, scheme.Tunables{"TL1": 1, "TL2": 8}, true},
		{"RMA-MCS T_L,2 binds", mcs, scheme.Tunables{"TL2": 1}, false},
		{"the harness's T_L completion", harness, nil, true},
		{"the completion spelled out", harness, scheme.Tunables{"TL1": 40, "TL2": 25}, true},
		// One T_L key turns the completion off: T_L,2 is then the
		// scheme's default 32, inside the box because no node's queue
		// passed the lock 25 times in a row.
		{"no completion", harness, scheme.Tunables{"TL1": 40}, true},
		{"every default spelled out", harness, scheme.Tunables{"TL2": 25, "TL1": 40, "TR": 1000, "TDC": 0}, true},
	} {
		if got := tc.w(tc.t); got != tc.admit {
			t.Errorf("%s: witness admits %v = %v, want %v", tc.name, tc.t, got, tc.admit)
		}
	}

	for _, spec := range []workload.Spec{
		{Scheme: "foMPI-Spin"},
		{Scheme: workload.SchemeFoMPIA, Workload: &workload.DHTOps{}},
	} {
		if run(spec) != nil {
			t.Errorf("%s: a witness, want none", spec.Scheme)
		}
	}
	if _, w, err := workload.RunWitness(workload.Spec{Scheme: "RMA-RW", P: 32, TimeLimit: 1000}); err == nil || w != nil {
		t.Errorf("a run over its time limit: err %v, witness %v; want an error and none", err, w != nil)
	}
}
