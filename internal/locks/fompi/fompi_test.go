package fompi

import (
	"testing"

	"rmalocks/internal/locks"
	"rmalocks/internal/locks/locktest"
	"rmalocks/internal/rma"
	"rmalocks/internal/topology"
)

func TestSpinMutualExclusion(t *testing.T) {
	locktest.StressMutex(t, topology.TwoLevel(2, 4),
		func(m *rma.Machine) locks.Mutex { return NewSpin(m) },
		locktest.Options{Iters: 20})
}

func TestSpinSingleProcess(t *testing.T) {
	topo := topology.TwoLevel(1, 1)
	m := rma.NewMachineConfig(topo, rma.Config{TimeLimit: 1_000_000_000})
	l := NewSpin(m)
	err := m.Run(func(p *rma.Proc) {
		for i := 0; i < 5; i++ {
			l.Acquire(p)
			l.Release(p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if l.Retries != 0 {
		t.Errorf("uncontended spinlock retried %d times", l.Retries)
	}
}

func TestSpinContentionCausesRetries(t *testing.T) {
	topo := topology.TwoLevel(2, 8)
	m := rma.NewMachineConfig(topo, rma.Config{TimeLimit: 60_000_000_000})
	l := NewSpin(m)
	err := m.Run(func(p *rma.Proc) {
		for i := 0; i < 10; i++ {
			l.Acquire(p)
			p.Compute(2000)
			l.Release(p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if l.Retries == 0 {
		t.Error("contended spinlock never retried; contention model broken?")
	}
}

func TestRWExclusionMixed(t *testing.T) {
	locktest.StressRW(t, topology.TwoLevel(2, 4),
		func(m *rma.Machine) locks.RWMutex { return NewRW(m) },
		1, 5, locktest.Options{Iters: 20})
}

func TestRWAllWriters(t *testing.T) {
	locktest.StressRW(t, topology.TwoLevel(2, 4),
		func(m *rma.Machine) locks.RWMutex { return NewRW(m) },
		1, 1, locktest.Options{Iters: 15})
}

func TestRWAllReaders(t *testing.T) {
	locktest.StressRW(t, topology.TwoLevel(2, 4),
		func(m *rma.Machine) locks.RWMutex { return NewRW(m) },
		0, 1, locktest.Options{Iters: 25})
}

func TestRWWriterPreference(t *testing.T) {
	// A writer claiming the lock blocks subsequent readers even while
	// earlier readers drain, so it cannot starve: with a continuous
	// stream of readers the writer must still finish.
	topo := topology.TwoLevel(1, 8)
	m := rma.NewMachineConfig(topo, rma.Config{TimeLimit: 120_000_000_000})
	l := NewRW(m)
	var writerDone bool
	err := m.Run(func(p *rma.Proc) {
		if p.Rank() == 0 {
			p.Compute(20_000) // let readers build a stream first
			l.AcquireWrite(p)
			writerDone = true
			l.ReleaseWrite(p)
			return
		}
		for i := 0; i < 200 && !writerDone; i++ {
			l.AcquireRead(p)
			p.Compute(500)
			l.ReleaseRead(p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !writerDone {
		t.Error("writer starved behind readers")
	}
}

func TestRWCentralizedHotSpot(t *testing.T) {
	// All foMPI-RW traffic targets rank 0: the op-distance statistics
	// must show essentially everything at distance >= 1 for other ranks.
	topo := topology.TwoLevel(2, 4)
	m := rma.NewMachineConfig(topo, rma.Config{TimeLimit: 60_000_000_000})
	l := NewRW(m)
	err := m.Run(func(p *rma.Proc) {
		for i := 0; i < 5; i++ {
			l.AcquireRead(p)
			l.ReleaseRead(p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.Remote() == 0 {
		t.Error("no remote ops recorded for centralized lock")
	}
}

// TestAcquireAllocatesNothing: an acquire's state lives in the lock, one
// slot per rank, so neither an uncontended acquire nor one the scheduler
// has to park (rma.Proc.Poll keeps the Retry) allocates.
func TestAcquireAllocatesNothing(t *testing.T) {
	m := rma.NewMachineConfig(topology.TwoLevel(1, 2), rma.Config{})
	defer m.Release()
	spin, rw := NewSpin(m), NewRW(m)
	var allocs float64
	err := m.Run(func(p *rma.Proc) {
		cycle := func() {
			spin.Acquire(p)
			spin.Release(p)
			rw.AcquireRead(p)
			rw.ReleaseRead(p)
			rw.AcquireWrite(p)
			rw.ReleaseWrite(p)
		}
		if p.Rank() == 0 {
			allocs = testing.AllocsPerRun(200, cycle)
		} else {
			for i := 0; i < 100; i++ {
				cycle() // contends with rank 0's first hundred cycles
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("an acquire/release cycle of both locks allocated %.2f times", allocs)
	}
}
