package rmamcs

import (
	"testing"

	"rmalocks/internal/locks"
	"rmalocks/internal/locks/locktest"
	"rmalocks/internal/rma"
	"rmalocks/internal/topology"
)

func factory(cfg Config) locktest.MutexFactory {
	return func(m *rma.Machine) locks.Mutex { return NewConfig(m, cfg) }
}

func TestMutualExclusionSingleNode(t *testing.T) {
	locktest.StressMutex(t, topology.TwoLevel(1, 8), factory(Config{}), locktest.Options{Iters: 25})
}

func TestMutualExclusionTwoLevel(t *testing.T) {
	locktest.StressMutex(t, topology.TwoLevel(4, 4), factory(Config{}), locktest.Options{Iters: 25})
}

func TestMutualExclusionThreeLevel(t *testing.T) {
	locktest.StressMutex(t, topology.MustNew([]int{1, 2, 4}, 4), factory(Config{}), locktest.Options{Iters: 15})
}

func TestMutualExclusionFourLevel(t *testing.T) {
	locktest.StressMutex(t, topology.MustNew([]int{1, 2, 4, 8}, 2), factory(Config{}), locktest.Options{Iters: 10})
}

func TestSmallThresholdForcesRotation(t *testing.T) {
	// T_L,2 = 1 hands the lock across nodes almost every time.
	locktest.StressMutex(t, topology.TwoLevel(4, 4),
		factory(Config{TL: []int64{0, 0, 1}}), locktest.Options{Iters: 20})
}

func TestLargeThresholdKeepsLocality(t *testing.T) {
	locktest.StressMutex(t, topology.TwoLevel(4, 4),
		factory(Config{TL: []int64{0, 0, 1 << 40}}), locktest.Options{Iters: 20})
}

func TestSingleLevelDegeneratesToMCS(t *testing.T) {
	// N=1: the tree is a single process-level queue, i.e., plain D-MCS.
	locktest.StressMutex(t, topology.MustNew([]int{1}, 8), factory(Config{}), locktest.Options{Iters: 25})
}

func TestLocalityShortcutsHappen(t *testing.T) {
	// With several writers per node and a high threshold, most
	// acquisitions must short-cut via intra-element passes.
	topo := topology.TwoLevel(4, 8)
	m := rma.NewMachineConfig(topo, rma.Config{TimeLimit: 120_000_000_000})
	l := NewConfig(m, Config{TL: []int64{0, 0, 64}})
	err := m.Run(func(p *rma.Proc) {
		for i := 0; i < 20; i++ {
			l.Acquire(p)
			p.Compute(300)
			l.Release(p)
			p.Compute(100)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	total := int64(20 * topo.Procs())
	if l.Acquires != total {
		t.Fatalf("Acquires=%d want %d", l.Acquires, total)
	}
	if l.DirectEntries == 0 {
		t.Error("no locality shortcuts with T_L=64; topology-awareness broken?")
	}
	frac := float64(l.DirectEntries) / float64(total)
	if frac < 0.5 {
		t.Errorf("only %.0f%% shortcut entries; expected majority with high T_L", frac*100)
	}
}

func TestThresholdBoundsConsecutiveLocalPasses(t *testing.T) {
	// With T_L,2 = 2, no more than 3 consecutive CS entries may come from
	// the same node (statuses 0,1,2 then forced hand-over).
	topo := topology.TwoLevel(2, 4)
	m := rma.NewMachineConfig(topo, rma.Config{TimeLimit: 120_000_000_000})
	l := NewConfig(m, Config{TL: []int64{0, 0, 2}})
	var order []int
	err := m.Run(func(p *rma.Proc) {
		for i := 0; i < 25; i++ {
			l.Acquire(p)
			order = append(order, p.Rank())
			p.Compute(200)
			l.Release(p)
			p.Compute(50)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	run, maxRun := 0, 0
	prevNode := -1
	for _, r := range order {
		node := topo.Element(r, 2)
		if node == prevNode {
			run++
		} else {
			run = 1
			prevNode = node
		}
		if run > maxRun {
			maxRun = run
		}
	}
	// A burst is bounded by T_L+1 entries... plus the burst of the next
	// queue round if the other node's queue is empty; allow 2*(T_L+1).
	if maxRun > 6 {
		t.Errorf("max same-node run=%d, want <= 6 with T_L,2=2", maxRun)
	}
}

func TestPassStatisticsConsistent(t *testing.T) {
	topo := topology.TwoLevel(2, 4)
	m := rma.NewMachineConfig(topo, rma.Config{TimeLimit: 120_000_000_000})
	l := New(m)
	const iters = 15
	err := m.Run(func(p *rma.Proc) {
		for i := 0; i < iters; i++ {
			l.Acquire(p)
			p.Compute(100)
			l.Release(p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	tree := l.Tree()
	var passes int64
	for i := 1; i <= tree.Levels(); i++ {
		passes += tree.Passes[i]
	}
	if passes == 0 {
		t.Error("no lock passes recorded under contention")
	}
	if passes >= int64(topo.Procs()*iters) {
		t.Errorf("passes=%d exceed total acquires", passes)
	}
}

func TestDefaultThresholds(t *testing.T) {
	topo := topology.MustNew([]int{1, 2, 4}, 2)
	m := rma.NewMachine(topo)
	l := New(m)
	tree := l.Tree()
	if tree.TL[2].Value() != DefaultTL || tree.TL[3].Value() != DefaultTL {
		t.Errorf("defaults not applied: %v", tree.TL[1:])
	}
	if tree.TL[1].Value() <= DefaultTL {
		t.Error("root threshold must be unlimited for RMA-MCS")
	}
}
