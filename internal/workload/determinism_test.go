package workload_test

// Determinism regression: for every scheme, two runs of the same Spec
// (same MachineSpec.Seed) must produce byte-identical workload reports
// and equal MaxClock. This is the substrate every reproducibility claim
// in the repository rests on.

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

func TestDeterminismAllSchemes(t *testing.T) {
	for _, scheme := range workload.Schemes {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			a, err := workload.Run(mkSpec(scheme, 7))
			if err != nil {
				t.Fatal(err)
			}
			b, err := workload.Run(mkSpec(scheme, 7))
			if err != nil {
				t.Fatal(err)
			}
			if fa, fb := a.Fingerprint(), b.Fingerprint(); fa != fb {
				t.Errorf("same seed, different reports:\n a: %s\n b: %s", fa, fb)
			}
			if a.MaxClock != b.MaxClock {
				t.Errorf("MaxClock differs: %d vs %d", a.MaxClock, b.MaxClock)
			}
		})
	}
}

func TestDeterminismSeedSensitivity(t *testing.T) {
	// A different seed must actually change the run (the RNG is wired
	// through); otherwise the determinism test above proves nothing.
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

func TestDeterminismDHT(t *testing.T) {
	mk := func() workload.Spec {
		return workload.Spec{
			Scheme: workload.SchemeRMARW,
			P:      8, ProcsPerNode: 4,
			Seed:  5,
			Iters: 12, Warmup: -1,
			Profile:  workload.Uniform{FW: 0.4},
			Workload: &workload.DHTOps{Slots: 64, Cells: 256},
		}
	}
	a, err := workload.Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() || a.MaxClock != b.MaxClock {
		t.Errorf("DHT run not reproducible:\n a: %s\n b: %s", a.Fingerprint(), b.Fingerprint())
	}
}
