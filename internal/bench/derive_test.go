package bench

import (
	"strings"
	"testing"

	"rmalocks/internal/sweep"
)

// TestQuickDerivedCells pins how many cells of the Quick evaluation
// sweep.Run takes from a sibling's run instead of simulating them:
// cells that differ only in thresholds no run reaches share one
// simulation. In Figures 4e and 4f that is every T_R after the first of
// a series: 20 + 16 cells, the witnesses' proof that both figures are
// flat in T_R at this scale. Of the 270 cells the figures and ablations
// name, 267 are distinct: the network ablation's 100 % cells are Figure
// 3a/3b's cells at the largest P. The tables TestEvaluationGolden pins are
// built from these derived reports. One worker makes the count exact;
// with more, a sibling that is still running is not waited for.
func TestQuickDerivedCells(t *testing.T) {
	cells, _, err := plan(append(Figures(Quick), Ablations(Quick)...))
	if err != nil {
		t.Fatal(err)
	}
	results, err := sweep.Run(cells, sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	derived, byTR := 0, 0
	for _, r := range results {
		if r.Derived {
			derived++
			if strings.HasPrefix(r.Key.Tunables, "TR=") {
				byTR++
			}
		}
	}
	if len(cells) != 267 || derived != 79 || byTR != 36 {
		t.Errorf("%d of %d cells derived, %d of them along T_R; want 79 of 267, 36", derived, len(cells), byTR)
	}
}
