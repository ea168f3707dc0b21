package sweep_test

// Benchmarks for the sweep engine: wall-clock and allocation cost of
// executing a small grid, serial and parallel. Together with the sim and
// workload benchmarks these feed BENCH_3.json (`make bench`), the
// repository's persisted performance trajectory. The allocs/op figure is
// what the scheduler proc pool and the harness report-buffer pool push
// down: repeated cells reuse procs, wake channels and sample buffers.

import (
	"fmt"
	"testing"

	"rmalocks/internal/sweep"
	"rmalocks/internal/workload"
)

func benchGrid() sweep.Grid {
	return sweep.Grid{
		Schemes:   []string{workload.SchemeDMCS, workload.SchemeRMARW},
		Workloads: []string{"empty"},
		Profiles:  []string{"uniform", "zipf"},
		Ps:        []int{16, 32},
		Iters:     10,
	}
}

// BenchmarkSweepGrid measures one full small-grid execution (8 cells).
func BenchmarkSweepGrid(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("j=%d", workers), func(b *testing.B) {
			cells := mustCells(b, benchGrid())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results, err := sweep.Run(cells, sweep.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if len(results) != len(cells) {
					b.Fatalf("got %d results, want %d", len(results), len(cells))
				}
			}
			b.ReportMetric(float64(len(cells)), "cells/run")
		})
	}
}

// BenchmarkSweepCheck measures the -check mode (every cell twice), the
// heaviest repeated-cell pattern the pools are built for.
func BenchmarkSweepCheck(b *testing.B) {
	cells := mustCells(b, benchGrid())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sweep.Run(cells, sweep.Options{Check: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendKeyText measures reading a cell's key text and
// fingerprint back from its fragment, what a finished sweepd job's
// events stream pays per cell line.
func BenchmarkAppendKeyText(b *testing.B) {
	results, err := sweep.Run(mustCells(b, benchGrid()), sweep.Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	frag, err := sweep.Fragment(results[len(results)-1])
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, ok := sweep.AppendKeyText(buf, frag); !ok {
			b.Fatal("fragment not read")
		}
	}
}
