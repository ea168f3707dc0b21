package locks

import (
	"math"
	"strconv"

	"rmalocks/internal/rma"
	"rmalocks/internal/topology"
)

// DQTree is the distributed tree (DT) of distributed queues (DQ) shared by
// RMA-MCS and RMA-RW (paper §3.2.2–§3.2.3). Every machine element at every
// level owns a DQ (an MCS-style queue); the DQs of one level share an RMA
// window with NEXT/STATUS words per queue node and a TAIL word per element
// (stored at the element's tail rank).
//
// Queue-node placement: at the leaf level N nodes are per-process (a
// process enqueues itself); at levels i < N a node represents a whole
// level-(i+1) element and lives at that element's leader rank, so whichever
// process currently holds the element's local lock can act on the parent
// queue on the element's behalf. The paper's per-process pseudocode relies
// on this (its HMCS heritage); see DESIGN.md §2 for the discussion.
type DQTree struct {
	m    *rma.Machine
	topo *topology.Topology
	// TL[i] is the locality threshold T_L,i of level i (1-based; TL[0]
	// unused). math.MaxInt64 disables hand-over at that level.
	TL []Threshold
	// Per-level window offsets (1-based, index 0 unused).
	nextOff   []int
	statusOff []int
	tailOff   []int

	// Statistics, maintained single-runner (safe in the simulator).
	// Passes[i] counts direct intra-element lock passes at level i;
	// ParentReleases[i] counts hand-overs to the parent of level i.
	Passes         []int64
	ParentReleases []int64
}

// NewDQTree allocates window space for a tree over m's topology with the
// given per-level locality thresholds (tl[i] for level i; tl[0] ignored;
// a zero or missing entry means "unlimited"). Must be called before m.Run.
func NewDQTree(m *rma.Machine, tl []int64) *DQTree {
	topo := m.Topology()
	n := topo.Levels()
	t := &DQTree{
		m:              m,
		topo:           topo,
		TL:             make([]Threshold, n+1),
		nextOff:        make([]int, n+1),
		statusOff:      make([]int, n+1),
		tailOff:        make([]int, n+1),
		Passes:         make([]int64, n+1),
		ParentReleases: make([]int64, n+1),
	}
	// One block per rank, grouped by initial value so OnInit writes two
	// runs: NEXT and TAIL of every level (∅), then STATUS of every level.
	base := m.Alloc(3 * n)
	for i := 1; i <= n; i++ {
		v := int64(math.MaxInt64)
		if i < len(tl) && tl[i] > 0 {
			v = tl[i]
		}
		t.TL[i] = NewThreshold(v)
		t.nextOff[i] = base + i - 1
		t.tailOff[i] = base + n + i - 1
		t.statusOff[i] = base + 2*n + i - 1
	}
	m.OnInit(func(m *rma.Machine) {
		for r := 0; r < topo.Procs(); r++ {
			m.Fill(r, base, 2*n, rma.Nil)
			m.Fill(r, base+2*n, n, StatusWait)
		}
		for i := range t.Passes {
			t.Passes[i] = 0
			t.ParentReleases[i] = 0
			t.TL[i].Reset()
		}
	})
	return t
}

// Levels returns N.
func (t *DQTree) Levels() int { return t.topo.Levels() }

// ProductTL returns Π tl[i] over i ≥ 1 (tl[0] unused, as in the T_L,i
// notation), saturating at MaxInt64: the writer threshold T_W of the
// paper, as RMA-RW's constructor and Resolve compute it.
func ProductTL(tl []int64) int64 {
	prod := int64(1)
	for _, v := range tl[1:] {
		if v == math.MaxInt64 || prod > math.MaxInt64/v {
			return math.MaxInt64
		}
		prod *= v
	}
	return prod
}

// Boxes adds the box of every T_L,i as the run left it to boxes, under
// the tunable key of its level ("TL1", "TL2", ...).
func (t *DQTree) Boxes(boxes map[string]Box) {
	for i := 1; i < len(t.TL); i++ {
		boxes["TL"+strconv.Itoa(i)] = t.TL[i].Box()
	}
}

// NodeRank returns the rank hosting the queue node that process p uses at
// level i: p itself at the leaf, the leader of p's level-(i+1) element
// otherwise.
func (t *DQTree) NodeRank(p int, i int) int {
	if i == t.topo.Levels() {
		return p
	}
	return t.topo.Leader(i+1, t.topo.Element(p, i+1))
}

// TailRank returns the rank hosting the TAIL word of the DQ that process p
// enqueues into at level i: the tail rank of e(p, i).
func (t *DQTree) TailRank(p int, i int) int {
	return t.topo.TailRank(i, t.topo.Element(p, i))
}

// EnterQueue performs the enqueue part of the paper's Listing 4 at level
// i: it prepares p's node, swaps itself into the element's TAIL and, if
// there is a predecessor, links behind it and spin-waits for a grant.
//
// It returns (status, hadPred): when hadPred is true, status is the first
// non-WAIT value the predecessor installed (a count ≥ 0 meaning "the CS is
// yours", StatusAcquireParent, or StatusModeChange); when hadPred is false
// the queue was empty and the caller holds the level-i lock of its element
// and must proceed toward the root.
func (t *DQTree) EnterQueue(p *rma.Proc, i int) (int64, bool) {
	node := t.NodeRank(p.Rank(), i)
	p.Put(rma.Nil, node, t.nextOff[i])
	p.Put(StatusWait, node, t.statusOff[i])
	p.Flush(node)
	tail := t.TailRank(p.Rank(), i)
	pred := p.FAO(int64(node), tail, t.tailOff[i], rma.OpReplace)
	p.Flush(tail)
	if pred == rma.Nil {
		return StatusWait, false
	}
	p.Put(int64(node), int(pred), t.nextOff[i])
	p.Flush(int(pred))
	status := p.SpinUntil(node, t.statusOff[i], func(v int64) bool { return v != StatusWait })
	return status, true
}

// SetStatus installs a status value in p's node at level i (used to write
// ACQUIRE_START before climbing, per Listing 4 line 22).
func (t *DQTree) SetStatus(p *rma.Proc, i int, v int64) {
	node := t.NodeRank(p.Rank(), i)
	p.Put(v, node, t.statusOff[i])
	p.Flush(node)
}

// ReadNode returns the successor pointer and status of p's node at level i
// (Listing 5 lines 3–4).
func (t *DQTree) ReadNode(p *rma.Proc, i int) (succ int64, status int64) {
	node := t.NodeRank(p.Rank(), i)
	succ = p.Get(node, t.nextOff[i])
	status = p.Get(node, t.statusOff[i])
	p.Flush(node)
	return succ, status
}

// Pass grants the level-i lock to the successor node succ with the given
// status value (a count, ACQUIRE_PARENT, or MODE_CHANGE).
func (t *DQTree) Pass(p *rma.Proc, i int, succ int64, status int64) {
	p.Put(status, int(succ), t.statusOff[i])
	p.Flush(int(succ))
	if status >= 0 {
		t.Passes[i]++
	} else {
		t.ParentReleases[i]++
	}
}

// Detach removes p's node from the level-i queue when it observed no
// successor (Listing 5 lines 13–20): it CASes TAIL back to ∅ and, if some
// process enqueued concurrently, waits until that successor links itself
// and returns its node. Returns rma.Nil if the queue was emptied.
func (t *DQTree) Detach(p *rma.Proc, i int) int64 {
	node := t.NodeRank(p.Rank(), i)
	tail := t.TailRank(p.Rank(), i)
	curr := p.CAS(rma.Nil, int64(node), tail, t.tailOff[i])
	p.Flush(tail)
	if curr == int64(node) {
		return rma.Nil
	}
	return p.SpinUntil(node, t.nextOff[i], func(v int64) bool { return v != rma.Nil })
}

// ReadTail returns the current TAIL of the DQ that process rank belongs to
// at level i (used by RMA-RW readers to detect waiting writers).
func (t *DQTree) ReadTail(p *rma.Proc, i int, rank int) int64 {
	tail := t.topo.TailRank(i, t.topo.Element(rank, i))
	v := p.Get(tail, t.tailOff[i])
	p.Flush(tail)
	return v
}
