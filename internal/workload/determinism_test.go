package workload_test

// That a cell's result is a function of its inputs is checked, for every
// scheme, workload and profile, by internal/jobq's TestIdentityMatrix.
// What it cannot check lives here: that the seed is one of the inputs.

import (
	"testing"

	"rmalocks/internal/workload"
)

// mkSpec builds a fresh Spec (workloads carry per-run state, so each run
// gets its own instance).
func mkSpec(scheme string, seed int64) workload.Spec {
	return workload.Spec{
		Scheme: scheme,
		P:      16, ProcsPerNode: 4,
		Seed:     seed,
		Iters:    15,
		Profile:  workload.NewZipf(4, 1.2, 0.3),
		Workload: &workload.SharedOp{},
	}
}

// TestDeterminismSeedSensitivity stays beside the identity matrix: a
// matrix of equal runs cannot show that a different seed moves results.
func TestDeterminismSeedSensitivity(t *testing.T) {
	// A different seed must actually change the run (the RNG is wired
	// through); otherwise every identity check proves nothing.
	a, err := workload.Run(mkSpec(workload.SchemeRMARW, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.Run(mkSpec(workload.SchemeRMARW, 8))
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("different seeds produced identical reports; RNG not wired through")
	}
}
