package workload_test

import (
	"testing"

	"rmalocks/internal/workload"
)

// TestRetuneSwapsTheTail: a fingerprint retuned to other tunables is the
// fingerprint of the report with those tunables, whatever was set
// before and after, and a string that does not end with the report's
// tail that is not empty is refused.
func TestRetuneSwapsTheTail(t *testing.T) {
	base := workload.Report{Scheme: "RMA-RW", Workload: "empty", Profile: "uniform", P: 16, Ops: 96,
		Extra: map[string]float64{"stored": 3}, HandoffLocality: []int64{1, 2}}
	for _, faults := range []string{"", "jitter=0.2"} {
		for _, from := range []string{"", "TR=500", "TL2=16,TR=500"} {
			for _, to := range []string{"", "TR=1000", "TDC=1,TR=8"} {
				src := base
				src.Tunables, src.Faults = from, faults
				dst := src
				dst.Tunables = to
				fp := src.Fingerprint()
				got, cut, ok := src.Retune(fp, to)
				if want := dst.Fingerprint(); !ok || got != want {
					t.Errorf("Retune(%q → %q, faults %q) = %q, %v\nwant %q", from, to, faults, got, ok, want)
				}
				if got[:cut] != fp[:cut] {
					t.Errorf("Retune(%q → %q) moved bytes before the tail", from, to)
				}
				// A report without tunables or faults has an empty tail,
				// which every string ends with.
				if _, _, ok := src.Retune(fp+" ", to); ok && (from != "" || faults != "") {
					t.Errorf("Retune accepted a fingerprint that does not end with its report's tail")
				}
			}
		}
	}
	tuned := base
	tuned.Tunables = "TR=500"
	for _, fp := range []string{"", "tun=TR=500", base.Fingerprint()} {
		if _, _, ok := tuned.Retune(fp, "TR=900"); ok {
			t.Errorf("Retune accepted %q, which is not a TR=500 fingerprint", fp)
		}
	}
}
