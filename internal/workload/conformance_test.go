package workload_test

// Cross-scheme lock conformance matrix: every Mutex and RWMutex
// implementation in the repository runs through the locktest invariants
// (mutual exclusion, reader/writer exclusion, progress via the virtual
// time limit, completion) under each contention generator of the
// workload subsystem. The whole matrix also runs under `go test -race`.

import (
	"testing"

	"rmalocks/internal/locks"
	"rmalocks/internal/locks/dmcs"
	"rmalocks/internal/locks/fompi"
	"rmalocks/internal/locks/locktest"
	"rmalocks/internal/locks/rmamcs"
	"rmalocks/internal/locks/rmarw"
	"rmalocks/internal/rma"
	"rmalocks/internal/topology"
	"rmalocks/internal/workload"
)

// conformanceProfiles lists one instance of every contention generator,
// tuned small so the full matrix stays fast under -race. NumLocks is 1:
// the invariant checks guard a single critical section.
func conformanceProfiles() []workload.Profile {
	return []workload.Profile{
		workload.Uniform{FW: 0.25},
		workload.NewZipf(1, 1.2, 0.25),
		workload.Bursty{FW: 0.25, BurstLen: 3, IdleLen: 3, IdleThinkNs: 2000, Desync: true},
		workload.RWSweep{FWStart: 0, FWEnd: 1, Span: 12},
	}
}

// pattern adapts a contention generator to the locktest Pattern hook,
// capping think time so stress runs stay short.
func pattern(pr workload.Profile) locktest.Pattern {
	return func(p *rma.Proc, it int) (bool, int64) {
		in := pr.Next(p, it)
		think := in.Think
		if think > 2000 {
			think = 2000
		}
		return in.Write, think
	}
}

// TestConformanceMatrix runs every lock scheme (mutexes through
// locks.WriterOnly) against every contention generator.
func TestConformanceMatrix(t *testing.T) {
	topo := topology.TwoLevel(2, 4) // 8 procs across 2 nodes
	for _, scheme := range workload.Schemes {
		scheme := scheme
		for _, pr := range conformanceProfiles() {
			pr := pr
			t.Run(scheme+"/"+pr.Name(), func(t *testing.T) {
				mk := func(m *rma.Machine) locks.RWMutex {
					set, err := workload.NewLockSet(m, scheme, 1, nil)
					if err != nil {
						t.Fatal(err)
					}
					return set[0]
				}
				locktest.StressRWPattern(t, topo, mk, pattern(pr), locktest.Options{Iters: 12})
			})
		}
	}
}

// TestConformanceMutexDirect runs the three plain mutex implementations
// through the dedicated mutual-exclusion stress (no WriterOnly wrapper),
// once per contention generator's think-time pattern.
func TestConformanceMutexDirect(t *testing.T) {
	topo := topology.TwoLevel(2, 4)
	mutexes := map[string]locktest.MutexFactory{
		workload.SchemeFoMPISpin: func(m *rma.Machine) locks.Mutex { return fompi.NewSpin(m) },
		workload.SchemeDMCS:      func(m *rma.Machine) locks.Mutex { return dmcs.New(m) },
		workload.SchemeRMAMCS:    func(m *rma.Machine) locks.Mutex { return rmamcs.New(m) },
	}
	for name, mk := range mutexes {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			locktest.StressMutex(t, topo, mk, locktest.Options{Iters: 15})
		})
	}
}

// TestConformanceThreeLevel repeats a slice of the matrix on a
// three-level (rack) machine, where the topology-aware schemes exercise
// their multi-level tree paths.
func TestConformanceThreeLevel(t *testing.T) {
	topo := topology.MustNew([]int{1, 2, 4}, 2) // 2 racks × 2 nodes × 2 procs
	for _, scheme := range []string{workload.SchemeRMAMCS, workload.SchemeRMARW} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			mk := func(m *rma.Machine) locks.RWMutex {
				set, err := workload.NewLockSet(m, scheme, 1, nil)
				if err != nil {
					t.Fatal(err)
				}
				return set[0]
			}
			locktest.StressRWPattern(t, topo, mk, pattern(workload.Uniform{FW: 0.3}), locktest.Options{Iters: 10})
		})
	}
}

// TestConformanceRWProper checks the two native RW locks also via the
// original fraction-based stress (reader overlap reporting).
func TestConformanceRWProper(t *testing.T) {
	topo := topology.TwoLevel(2, 4)
	rws := map[string]locktest.RWFactory{
		workload.SchemeFoMPIRW: func(m *rma.Machine) locks.RWMutex { return fompi.NewRW(m) },
		workload.SchemeRMARW:   func(m *rma.Machine) locks.RWMutex { return rmarw.New(m) },
	}
	for name, mk := range rws {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			locktest.StressRW(t, topo, mk, 1, 8, locktest.Options{Iters: 16})
		})
	}
}
