// Package-level benchmarks: every figure and ablation of the paper's
// evaluation section (internal/bench's figure values) at one
// representative process count, a sub-benchmark per series, reporting
// the figure's own metric columns via b.ReportMetric. Full sweeps over P
// are produced by cmd/lockbench; EXPERIMENTS.md records the shape
// comparison against the paper.
package rmalocks_test

import (
	"strings"
	"testing"

	"rmalocks/internal/bench"
	"rmalocks/internal/model"
)

// benchScale is one process count large enough to span several nodes
// (the regime the paper targets), small enough to keep `go test
// -bench=.` quick.
var benchScale = bench.Scale{Name: "bench", Ps: []int{64}, Iters: 30, DHTOps: 20}

// BenchmarkEvaluation runs as BenchmarkEvaluation/<figure>/<series
// labels>, e.g. BenchmarkEvaluation/5b/RMA-RW-0.2%.
func BenchmarkEvaluation(b *testing.B) {
	for _, f := range append(bench.Figures(benchScale), bench.Ablations(benchScale)...) {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			for _, s := range f.Series {
				one := f
				one.Series = []bench.Series{s}
				b.Run(strings.Join(s.Labels, "-"), func(b *testing.B) {
					var rows [][]bench.Row
					for i := 0; i < b.N; i++ {
						var err error
						if rows, err = bench.Run([]bench.Figure{one}); err != nil {
							b.Fatal(err)
						}
					}
					for i, m := range one.Metrics {
						b.ReportMetric(m(rows[0][0].Report), one.Columns[len(one.Columns)-len(one.Metrics)+i])
					}
				})
			}
		})
	}
}

// BenchmarkModelChecker: state-exploration rate of the §4.4 substitute
// (not a paper figure; tracks verification cost).
func BenchmarkModelChecker(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := model.Check(model.DMCS{Procs: 3, Iters: 1}, 0)
		if r.Violation != nil || r.Deadlock {
			b.Fatal(r)
		}
	}
}
