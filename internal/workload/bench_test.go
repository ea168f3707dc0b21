package workload_test

// Benchmarks for the unified harness: wall-clock cost of simulating one
// grid cell, per scheme and per contention profile. Baseline for future
// performance PRs (run with `make bench`, compare with benchstat).

import (
	"testing"

	"rmalocks/internal/trace"
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

// spinCell is a cell of the benchmark's spin-contended workload: every
// rank writes under the one lock, so a centralized scheme spends the run
// retrying, backing off and handing the token over.
func spinCell(scheme string, p int) workload.Spec {
	return workload.Spec{
		Scheme:   scheme,
		P:        p,
		Iters:    10,
		Warmup:   2, // the default for 10 iterations, spelled out for handoffs
		Profile:  workload.Uniform{FW: 1, NumLocks: 1},
		Workload: workload.Empty{},
	}
}

// handoffs runs spec with the ClassCharge diagnostics captured and returns
// how often the token changed hands (EvDispatch events; the scheduler keeps
// no counter of its own), how many of those hand-offs the scheduler served
// inline — a parked poll's failed try, no coroutine switch — and over how
// many acquires, warm-up included.
func handoffs(tb testing.TB, spec workload.Spec) (dispatches, inline, acquires int) {
	tb.Helper()
	sink := trace.New(trace.ClassCharge)
	spec.Trace = sink
	if _, err := workload.Run(spec); err != nil {
		tb.Fatal(err)
	}
	for r := 0; r < sink.Ranks(); r++ {
		for _, e := range sink.RankEvents(r) {
			if e.Kind == trace.EvDispatch {
				dispatches++
				inline += int(e.Arg1)
			}
		}
	}
	return dispatches, inline, spec.P * (spec.Iters + spec.Warmup)
}

// contendedHandoffs caches BenchmarkContendedCell's hand-offs and coroutine
// switches per acquire: the counts are exact and the capture behind them is
// some 2.6M events, so the benchmark function's repeated invocations share
// one.
var contendedHandoffs, contendedSwitches float64

// BenchmarkContendedCell measures the slow path end to end: one foMPI-RW
// P=256 all-writer cell, where nearly every charge used to be a token
// hand-off (coroutine switch, heap pop and push). handoffs/acq is the
// count lazy publication brought down, switches/acq the share of it that
// still switches into a coroutine now that the scheduler makes a parked
// poll's tries itself.
func BenchmarkContendedCell(b *testing.B) {
	spec := spinCell(workload.SchemeFoMPIRW, 256)
	if contendedHandoffs == 0 {
		d, in, a := handoffs(b, spec)
		contendedHandoffs, contendedSwitches = float64(d)/float64(a), float64(d-in)/float64(a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := workload.Run(spec); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(contendedHandoffs, "handoffs/acq")
	b.ReportMetric(contendedSwitches, "switches/acq")
}
