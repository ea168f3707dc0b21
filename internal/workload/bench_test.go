package workload_test

// Benchmarks for the unified harness: wall-clock cost of simulating one
// grid cell, per scheme and per contention profile. Baseline for future
// performance PRs (run with `make bench`, compare with benchstat).

import (
	"testing"

	"rmalocks/internal/workload"
)

func benchSpec(scheme string, pr workload.Profile) workload.Spec {
	return workload.Spec{
		Scheme: scheme,
		P:      32, ProcsPerNode: 16,
		Iters:    10,
		Profile:  pr,
		Workload: workload.Empty{},
	}
}

// BenchmarkHarnessSchemes measures one harness run per scheme under the
// uniform profile.
func BenchmarkHarnessSchemes(b *testing.B) {
	for _, scheme := range workload.Schemes {
		scheme := scheme
		b.Run(scheme, func(b *testing.B) {
			var last workload.Report
			for i := 0; i < b.N; i++ {
				rep, err := workload.Run(benchSpec(scheme, workload.Uniform{FW: 0.1}))
				if err != nil {
					b.Fatal(err)
				}
				last = rep
			}
			b.ReportMetric(last.ThroughputMops, "mln-locks/s")
			b.ReportMetric(float64(last.Ops), "sim-ops/run")
		})
	}
}

// BenchmarkHarnessProfiles measures one RMA-RW harness run per
// contention generator.
func BenchmarkHarnessProfiles(b *testing.B) {
	profiles := []workload.Profile{
		workload.Uniform{FW: 0.1},
		workload.NewZipf(8, 1.2, 0.1),
		workload.Bursty{FW: 0.1, Desync: true},
		workload.RWSweep{FWStart: 0, FWEnd: 1, Span: 10},
	}
	for _, pr := range profiles {
		pr := pr
		b.Run(pr.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := workload.Run(benchSpec(workload.SchemeRMARW, pr)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// warmCell is the P=16 dht/RMA-RW cell of BenchmarkCellBackToBack and
// TestWarmCellAllocBytes: a 1.3MB window and sixteen drawing ranks.
func warmCell() workload.Spec {
	return workload.Spec{
		Scheme: workload.SchemeRMARW,
		P:      16, ProcsPerNode: 16,
		Iters:    10,
		Profile:  workload.Uniform{FW: 0.1, NumLocks: 8},
		Workload: &workload.DHTOps{ShardByLock: true},
	}
}

// BenchmarkCellBackToBack measures a warm sweep worker: the same cell run
// back to back on one goroutine, so B/op and allocs/op are what a cell
// costs beyond the pooled scratch, scheduler core and report buffers
// (TestWarmCellAllocBytes bounds the bytes).
func BenchmarkCellBackToBack(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := workload.Run(warmCell()); err != nil {
			b.Fatal(err)
		}
	}
}
