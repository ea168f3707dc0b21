package locks

import (
	"math"
	"testing"

	"rmalocks/internal/rma"
	"rmalocks/internal/topology"
)

func TestNodeRankPlacement(t *testing.T) {
	topo := topology.MustNew([]int{1, 2, 4}, 4) // 3 levels, 16 procs
	m := rma.NewMachine(topo)
	tr := NewDQTree(m, nil)
	// Leaf level: own rank.
	for p := 0; p < topo.Procs(); p++ {
		if got := tr.NodeRank(p, 3); got != p {
			t.Errorf("NodeRank(%d, leaf)=%d want %d", p, got, p)
		}
	}
	// Level 2 (racks): node of p at level 2 is the leader of p's level-3
	// element (its compute node).
	if got := tr.NodeRank(5, 2); got != topo.Leader(3, topo.Element(5, 3)) {
		t.Errorf("NodeRank(5,2)=%d", got)
	}
	// Level 1 (root): the leader of p's rack.
	if got := tr.NodeRank(13, 1); got != topo.Leader(2, topo.Element(13, 2)) {
		t.Errorf("NodeRank(13,1)=%d", got)
	}
}

func TestNodeRanksDistinctPerSiblingElement(t *testing.T) {
	// Two processes from different child elements must use different
	// nodes in the parent's queue.
	topo := topology.TwoLevel(4, 4)
	m := rma.NewMachine(topo)
	tr := NewDQTree(m, nil)
	seen := map[int]int{} // nodeRank -> element
	for p := 0; p < topo.Procs(); p++ {
		node := tr.NodeRank(p, 1)
		elem := topo.Element(p, 2)
		if prev, ok := seen[node]; ok && prev != elem {
			t.Fatalf("elements %d and %d share root node %d", prev, elem, node)
		}
		seen[node] = elem
	}
	if len(seen) != 4 {
		t.Errorf("expected 4 distinct root nodes, got %d", len(seen))
	}
}

func TestProductTL(t *testing.T) {
	if got := ProductTL([]int64{0, 2, 3, 5}); got != 30 {
		t.Errorf("ProductTL=%d want 30", got)
	}
	// Unlimited level => unlimited product; so is one that overflows.
	for _, tl := range [][]int64{{0, math.MaxInt64, 3, 5}, {0, 1 << 40, 1 << 40}} {
		if got := ProductTL(tl); got != math.MaxInt64 {
			t.Errorf("ProductTL(%v)=%d want MaxInt64", tl, got)
		}
	}
	// A zero T_L,i makes the tree's level unlimited.
	tr := NewDQTree(rma.NewMachine(topology.MustNew([]int{1, 2, 4}, 2)), []int64{0, 0, 3, 5})
	if got := tr.TL[1].Value(); got != math.MaxInt64 {
		t.Errorf("T_L,1=%d want MaxInt64", got)
	}
}

func TestEnterQueueEmptyThenGranted(t *testing.T) {
	topo := topology.TwoLevel(1, 2)
	m := rma.NewMachineConfig(topo, rma.Config{TimeLimit: 1_000_000_000})
	tr := NewDQTree(m, []int64{0, 0, 8})
	var firstHadPred, secondHadPred bool
	var secondStatus int64
	err := m.Run(func(p *rma.Proc) {
		lvl := 2
		if p.Rank() == 0 {
			_, hadPred := tr.EnterQueue(p, lvl)
			firstHadPred = hadPred
			p.Compute(5000) // hold while rank 1 enqueues
			succ, status := tr.ReadNode(p, lvl)
			if succ == rma.Nil || status != StatusWait {
				// Successor may not have arrived yet; wait for it.
				succ = tr.Detach(p, lvl)
				if succ != rma.Nil {
					tr.Pass(p, lvl, succ, 1)
				}
				return
			}
			tr.Pass(p, lvl, succ, 1)
			return
		}
		p.Compute(1000) // enqueue second
		status, hadPred := tr.EnterQueue(p, lvl)
		secondHadPred = hadPred
		secondStatus = status
	})
	if err != nil {
		t.Fatal(err)
	}
	if firstHadPred {
		t.Error("first enqueuer saw a predecessor in an empty queue")
	}
	if !secondHadPred {
		t.Error("second enqueuer saw an empty queue")
	}
	if secondStatus != 1 {
		t.Errorf("granted status=%d want 1", secondStatus)
	}
}

func TestDetachEmptiesQueue(t *testing.T) {
	topo := topology.TwoLevel(1, 2)
	m := rma.NewMachineConfig(topo, rma.Config{TimeLimit: 1_000_000_000})
	tr := NewDQTree(m, nil)
	err := m.Run(func(p *rma.Proc) {
		if p.Rank() != 0 {
			return
		}
		if _, hadPred := tr.EnterQueue(p, 2); hadPred {
			t.Error("unexpected predecessor")
		}
		if succ := tr.Detach(p, 2); succ != rma.Nil {
			t.Errorf("Detach returned %d from a single-entry queue", succ)
		}
		// The queue must be reusable afterwards.
		if _, hadPred := tr.EnterQueue(p, 2); hadPred {
			t.Error("queue not empty after detach")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPassStatisticsSplit(t *testing.T) {
	topo := topology.TwoLevel(1, 2)
	m := rma.NewMachineConfig(topo, rma.Config{TimeLimit: 1_000_000_000})
	tr := NewDQTree(m, nil)
	err := m.Run(func(p *rma.Proc) {
		if p.Rank() != 0 {
			return
		}
		tr.EnterQueue(p, 2)
		tr.Pass(p, 2, int64(1), 3)                   // count grant
		tr.Pass(p, 2, int64(1), StatusAcquireParent) // upward redirect
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Passes[2] != 1 || tr.ParentReleases[2] != 1 {
		t.Errorf("Passes=%d ParentReleases=%d want 1/1", tr.Passes[2], tr.ParentReleases[2])
	}
}

func TestWriterOnlyAdapter(t *testing.T) {
	topo := topology.TwoLevel(1, 4)
	m := rma.NewMachineConfig(topo, rma.Config{TimeLimit: 10_000_000_000})
	inner := NewDQTree(m, nil)
	_ = inner // adapter test uses a trivial mutex below
	mu := &countingMutex{}
	rw := WriterOnly{Mu: mu}
	err := m.Run(func(p *rma.Proc) {
		rw.AcquireRead(p)
		rw.ReleaseRead(p)
		rw.AcquireWrite(p)
		rw.ReleaseWrite(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if mu.acq != int64(2*topo.Procs()) || mu.rel != mu.acq {
		t.Errorf("adapter routed %d/%d calls", mu.acq, mu.rel)
	}
}

type countingMutex struct{ acq, rel int64 }

func (c *countingMutex) Acquire(p *rma.Proc) { c.acq++; p.Compute(1) }
func (c *countingMutex) Release(p *rma.Proc) { c.rel++; p.Compute(1) }
