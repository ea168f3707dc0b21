package rmarw

import (
	"testing"

	"rmalocks/internal/locks"
	"rmalocks/internal/locks/locktest"
	"rmalocks/internal/rma"
	"rmalocks/internal/topology"
)

func factory(cfg Config) locktest.RWFactory {
	return func(m *rma.Machine) locks.RWMutex { return NewConfig(m, cfg) }
}

func TestExclusionMixedTwoLevel(t *testing.T) {
	locktest.StressRW(t, topology.TwoLevel(2, 4), factory(Config{}), 1, 5,
		locktest.Options{Iters: 20})
}

func TestExclusionAllWriters(t *testing.T) {
	locktest.StressRW(t, topology.TwoLevel(2, 4), factory(Config{}), 1, 1,
		locktest.Options{Iters: 15})
}

func TestExclusionAllReaders(t *testing.T) {
	locktest.StressRW(t, topology.TwoLevel(2, 4), factory(Config{}), 0, 1,
		locktest.Options{Iters: 30})
}

func TestExclusionThreeLevel(t *testing.T) {
	locktest.StressRW(t, topology.MustNew([]int{1, 2, 4}, 4), factory(Config{}), 1, 4,
		locktest.Options{Iters: 12})
}

func TestExclusionSingleNode(t *testing.T) {
	locktest.StressRW(t, topology.TwoLevel(1, 8), factory(Config{}), 1, 3,
		locktest.Options{Iters: 20})
}

func TestExclusionWriterHeavy(t *testing.T) {
	locktest.StressRW(t, topology.TwoLevel(2, 4), factory(Config{}), 4, 5,
		locktest.Options{Iters: 15})
}

func TestTinyThresholds(t *testing.T) {
	// The smallest legal parameters exercise every mode-change path.
	locktest.StressRW(t, topology.TwoLevel(2, 4),
		factory(Config{TDC: 1, TR: 1, TL: []int64{0, 1, 1}}), 1, 3,
		locktest.Options{Iters: 15})
}

func TestLargeTR(t *testing.T) {
	locktest.StressRW(t, topology.TwoLevel(2, 4),
		factory(Config{TR: 1 << 40}), 1, 4, locktest.Options{Iters: 15})
}

func TestTDCVariants(t *testing.T) {
	for _, tdc := range []int{1, 2, 4, 8} {
		tdc := tdc
		t.Run("", func(t *testing.T) {
			locktest.StressRW(t, topology.TwoLevel(2, 4),
				factory(Config{TDC: tdc}), 1, 4, locktest.Options{Iters: 12})
		})
	}
}

func TestConfigDefaultsAndValidation(t *testing.T) {
	topo := topology.TwoLevel(2, 8)
	m := rma.NewMachine(topo)
	l := New(m)
	if l.TDC() != 8 {
		t.Errorf("default TDC=%d want one counter per node (8)", l.TDC())
	}
	if l.TR() != 1000 {
		t.Errorf("default TR=%d want 1000", l.TR())
	}
	if l.TW() != DefaultTL*DefaultTL {
		t.Errorf("default TW=%d want %d", l.TW(), DefaultTL*DefaultTL)
	}
	if got := len(l.CounterRanks()); got != 2 {
		t.Errorf("counters=%d want 2", got)
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("negative TDC", func() { NewConfig(rma.NewMachine(topo), Config{TDC: -1}) })
	mustPanic("huge TR", func() { NewConfig(rma.NewMachine(topo), Config{TR: Bias}) })
}

func TestWriterThresholdTriggersModeChange(t *testing.T) {
	// With a tiny T_W and waiting readers, writers must periodically hand
	// the lock to the readers: ModeChanges > 0.
	topo := topology.TwoLevel(2, 4)
	m := rma.NewMachineConfig(topo, rma.Config{TimeLimit: 240_000_000_000})
	l := NewConfig(m, Config{TR: 4, TL: []int64{0, 2, 2}}) // T_W = 4
	err := m.Run(func(p *rma.Proc) {
		for i := 0; i < 15; i++ {
			if p.Rank()%2 == 0 {
				l.AcquireWrite(p)
				p.Compute(200)
				l.ReleaseWrite(p)
			} else {
				l.AcquireRead(p)
				p.Compute(200)
				l.ReleaseRead(p)
			}
			p.Compute(100)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if l.ModeChanges == 0 {
		t.Error("no WRITE→READ mode changes with T_W=4 and active readers")
	}
	if l.ReadAcquires != int64(15*topo.Procs()/2) {
		t.Errorf("ReadAcquires=%d want %d", l.ReadAcquires, 15*topo.Procs()/2)
	}
	if l.WriteAcquires != int64(15*topo.Procs()/2) {
		t.Errorf("WriteAcquires=%d want %d", l.WriteAcquires, 15*topo.Procs()/2)
	}
}

func TestReaderThresholdForcesBackoff(t *testing.T) {
	// A small T_R forces frequent back-offs and reader self-resets. The
	// number of readers per counter (T_DC=2) stays below T_R=4: with
	// more concurrent readers than T_R, the paper's reader protocol
	// thrashes — in-flight arrivals alone keep ARRIVE at T_R and nobody
	// enters (see DESIGN.md "known liveness corner").
	topo := topology.TwoLevel(1, 8)
	m := rma.NewMachineConfig(topo, rma.Config{TimeLimit: 240_000_000_000})
	l := NewConfig(m, Config{TDC: 2, TR: 4})
	err := m.Run(func(p *rma.Proc) {
		for i := 0; i < 20; i++ {
			l.AcquireRead(p)
			p.Compute(300)
			l.ReleaseRead(p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if l.ReaderBackoffs == 0 {
		t.Error("no reader back-offs with T_R=2 and 8 readers")
	}
	if l.ReadAcquires != int64(20*topo.Procs()) {
		t.Errorf("ReadAcquires=%d want %d", l.ReadAcquires, 20*topo.Procs())
	}
}

func TestReadersUseOwnCounter(t *testing.T) {
	// With T_DC = procsPerNode, a pure reader workload must touch only
	// intra-node targets (readers never enter the DQs): no ops at
	// distance 2 except the waiting-writer tail probe... which pure
	// readers only issue when T_R is reached. Use a huge T_R so the
	// counter never saturates: then zero inter-node ops happen at all.
	topo := topology.TwoLevel(2, 4)
	m := rma.NewMachineConfig(topo, rma.Config{TimeLimit: 120_000_000_000})
	l := NewConfig(m, Config{TR: 1 << 40})
	err := m.Run(func(p *rma.Proc) {
		for i := 0; i < 10; i++ {
			l.AcquireRead(p)
			p.Compute(100)
			l.ReleaseRead(p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if d2 := s.PerDistance[2]; d2.Data+d2.Atomic != 0 {
		t.Errorf("pure-reader workload issued %d inter-node ops; DC locality broken", d2.Data+d2.Atomic)
	}
}

func TestWriterDrainsActiveReaders(t *testing.T) {
	// §4.1: after switching counters to WRITE, the writer waits for all
	// active readers to depart. The locktest harness already detects a
	// writer entering alongside readers, but this targets long reader CSs.
	topo := topology.TwoLevel(1, 4)
	m := rma.NewMachineConfig(topo, rma.Config{TimeLimit: 240_000_000_000})
	l := New(m)
	cs := locktest.NewSections(topo.Procs())
	err := m.Run(func(p *rma.Proc) {
		if p.Rank() == 0 {
			p.Compute(5_000) // let readers enter first
			for i := 0; i < 5; i++ {
				l.AcquireWrite(p)
				cs.Enter(p)
				p.Compute(1_000)
				cs.Exit(p, true)
				l.ReleaseWrite(p)
				p.Compute(2_000)
			}
			return
		}
		for i := 0; i < 10; i++ {
			l.AcquireRead(p)
			cs.Enter(p)
			p.Compute(20_000) // long reader CS
			cs.Exit(p, false)
			l.ReleaseRead(p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if viol, _ := cs.Check(); len(viol) != 0 {
		t.Errorf("writer and readers overlapped %d times, first: %s", len(viol), viol[0])
	}
}

func TestSingleLevelMachine(t *testing.T) {
	locktest.StressRW(t, topology.MustNew([]int{1}, 6), factory(Config{}), 1, 3,
		locktest.Options{Iters: 15})
}

func TestDeterministicOutcome(t *testing.T) {
	run := func() (int64, int64) {
		topo := topology.TwoLevel(2, 4)
		m := rma.NewMachineConfig(topo, rma.Config{Seed: 7, TimeLimit: 240_000_000_000})
		l := NewConfig(m, Config{TR: 8, TL: []int64{0, 2, 4}})
		err := m.Run(func(p *rma.Proc) {
			for i := 0; i < 12; i++ {
				if locktest.WriterPattern(p.Rank(), i, 1, 4) {
					l.AcquireWrite(p)
					p.Compute(200)
					l.ReleaseWrite(p)
				} else {
					l.AcquireRead(p)
					p.Compute(200)
					l.ReleaseRead(p)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return l.ModeChanges, m.MaxClock()
	}
	mc1, t1 := run()
	mc2, t2 := run()
	if mc1 != mc2 || t1 != t2 {
		t.Errorf("nondeterministic: (%d,%d) vs (%d,%d)", mc1, t1, mc2, t2)
	}
}

// TestWriteCycleAllocatesNothing: a writer's drain and reset latch live in
// the lock, one slot per rank, so a write cycle that reaches the root —
// counters switched to WRITE and drained on acquire, reset on release —
// allocates nothing, whether its waits succeed at once or the scheduler
// has to park them (rma.Proc.Poll keeps the Retry) behind the readers of
// another node.
func TestWriteCycleAllocatesNothing(t *testing.T) {
	m := rma.NewMachineConfig(topology.TwoLevel(2, 1), rma.Config{})
	defer m.Release()
	l := New(m)
	var allocs float64
	err := m.Run(func(p *rma.Proc) {
		if p.Rank() == 0 {
			allocs = testing.AllocsPerRun(200, func() {
				l.AcquireWrite(p)
				l.ReleaseWrite(p)
			})
			return
		}
		for i := 0; i < 100; i++ { // overlaps rank 0's first cycles
			l.AcquireRead(p)
			p.Compute(500)
			l.ReleaseRead(p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if l.ModeChanges < 200 {
		t.Fatalf("%d counter resets, want one per write cycle: the cycles did not reach the root", l.ModeChanges)
	}
	if allocs != 0 {
		t.Errorf("an RMA-RW write cycle allocated %.2f times", allocs)
	}
}
