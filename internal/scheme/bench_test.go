package scheme_test

// Benchmark guard for the API redesign: registry-based lock
// construction (lookup + validation + wrap dispatch) must add no
// measurable overhead where it matters — in a harness run, whose cost
// is the simulation itself.
//
// The construction-only pair (BenchmarkRegistryDispatch vs
// BenchmarkDirectConstructor) isolates the registry layer: lookup,
// tunable validation and the capability wrap cost well under a µs per
// lock. BenchmarkHarnessRegistryDispatch runs a real workload cell:
// construction happens once per run, so that sub-µs cost disappears in
// the run's milliseconds.

import (
	"testing"

	"rmalocks/internal/locks/rmarw"
	"rmalocks/internal/rma"
	"rmalocks/internal/scheme"
	"rmalocks/internal/topology"
	"rmalocks/internal/workload"
)

var benchTun = scheme.Tunables{"TR": 500, "TL2": 16}

func BenchmarkRegistryDispatch(b *testing.B) {
	topo := topology.TwoLevel(4, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := rma.NewMachine(topo)
		l, err := scheme.New(m, "RMA-RW", benchTun)
		if err != nil {
			b.Fatal(err)
		}
		sinkLock = l
	}
}

func BenchmarkDirectConstructor(b *testing.B) {
	topo := topology.TwoLevel(4, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := rma.NewMachine(topo)
		sinkLock = rmarw.NewConfig(m, rmarw.Config{TR: 500, TL: []int64{0, 0, 16}})
	}
}

// sinkLock defeats dead-code elimination of the constructed locks.
var sinkLock any

func BenchmarkHarnessRegistryDispatch(b *testing.B) {
	spec := workload.Spec{
		Scheme: "RMA-RW", P: 32, ProcsPerNode: 16, Iters: 20,
		Profile:  workload.Uniform{FW: 0.1},
		Tunables: benchTun,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := workload.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		sinkLock = rep.Ops
	}
}
