// Package topology models the hierarchical structure of a distributed
// machine: a tree of machine elements (the whole machine, racks, compute
// nodes, ...) with processes placed block-wise on the leaves.
//
// It provides the mappings the paper's locks consume:
//
//   - e(p, i): the element a process p belongs to at level i (§3.2.3),
//   - c(p): the rank hosting the physical counter of reader p (§3.2.1),
//   - tail_rank[i, j]: the rank that stores the TAIL pointer of the
//     distributed queue of element j at level i (§3.2.2),
//   - the leader rank of an element, used to host per-element queue nodes.
//
// Levels are numbered as in the paper: level 1 is the root (the whole
// machine, one element) and level N is the leaf level (compute nodes).
// Elements at each level are indexed from 0. Ranks are 0-based; the null
// rank is represented by rma.Nil (-1) elsewhere.
package topology

import (
	"fmt"
	"math"
	"strings"
)

// RankOverflowError reports a machine whose total rank count would
// overflow the int32 rank ids used throughout the scheduler core
// (internal/sim trafficks in int32 ids; see sim.MaxProcs).
type RankOverflowError struct {
	// Leaves is the number of leaf elements, ProcsPerLeaf the processes
	// on each; their product is the offending rank count.
	Leaves       int
	ProcsPerLeaf int
}

func (e *RankOverflowError) Error() string {
	return fmt.Sprintf("topology: %d leaves x %d procs/leaf = %d ranks overflows int32 rank ids (max %d)",
		e.Leaves, e.ProcsPerLeaf, int64(e.Leaves)*int64(e.ProcsPerLeaf), math.MaxInt32)
}

// Topology describes a machine with N levels. Elements at level i+1 are
// distributed evenly among elements at level i, and processes are assigned
// to leaf elements in contiguous rank blocks, matching the paper's setup
// (x processes per node, node s hosting ranks (s-1)x .. sx-1).
type Topology struct {
	// counts[i-1] is the number of elements at level i. counts[0] == 1.
	counts []int
	// procsPerLeaf is the number of processes on each leaf element.
	procsPerLeaf int
	// ranksPerElem[i-1] is the size of the contiguous rank block of one
	// level-i element (its leaves × procsPerLeaf), precomputed so that
	// Element and Distance cost one division per level.
	ranksPerElem []int
	// p is the total number of processes.
	p int
}

// New builds a topology from the number of elements at each level (root
// first; the root count must be 1) and the number of processes per leaf
// element. Each level's element count must be a multiple of its parent's.
func New(elementsPerLevel []int, procsPerLeaf int) (*Topology, error) {
	if len(elementsPerLevel) == 0 {
		return nil, fmt.Errorf("topology: need at least one level")
	}
	if elementsPerLevel[0] != 1 {
		return nil, fmt.Errorf("topology: level 1 (root) must have exactly 1 element, got %d", elementsPerLevel[0])
	}
	for i := 1; i < len(elementsPerLevel); i++ {
		cur, par := elementsPerLevel[i], elementsPerLevel[i-1]
		if cur <= 0 {
			return nil, fmt.Errorf("topology: level %d has non-positive element count %d", i+1, cur)
		}
		if cur%par != 0 {
			return nil, fmt.Errorf("topology: level %d count %d not a multiple of parent count %d", i+1, cur, par)
		}
	}
	if procsPerLeaf <= 0 {
		return nil, fmt.Errorf("topology: procsPerLeaf must be positive, got %d", procsPerLeaf)
	}
	leaves := elementsPerLevel[len(elementsPerLevel)-1]
	// Guard each factor before the product so the int64 multiply below
	// cannot itself wrap on adversarial inputs.
	if leaves > math.MaxInt32 || procsPerLeaf > math.MaxInt32 ||
		int64(leaves)*int64(procsPerLeaf) > math.MaxInt32 {
		return nil, &RankOverflowError{Leaves: leaves, ProcsPerLeaf: procsPerLeaf}
	}
	counts := make([]int, len(elementsPerLevel))
	copy(counts, elementsPerLevel)
	ranksPerElem := make([]int, len(counts))
	for i, c := range counts {
		// Leaves are distributed evenly among the elements of every upper
		// level, so an element's ranks are one contiguous block.
		ranksPerElem[i] = leaves / c * procsPerLeaf
	}
	return &Topology{
		counts:       counts,
		procsPerLeaf: procsPerLeaf,
		ranksPerElem: ranksPerElem,
		p:            leaves * procsPerLeaf,
	}, nil
}

// MustNew is New but panics on error; intended for tests and examples with
// literal arguments.
func MustNew(elementsPerLevel []int, procsPerLeaf int) *Topology {
	t, err := New(elementsPerLevel, procsPerLeaf)
	if err != nil {
		panic(err)
	}
	return t
}

// TwoLevel builds the evaluation machine of the paper (§5): N=2 with the
// whole machine at level 1 and compute nodes at level 2.
func TwoLevel(nodes, procsPerNode int) *Topology {
	return MustNew([]int{1, nodes}, procsPerNode)
}

// ForProcs builds a two-level machine with the given number of processes
// and processes per node, adding a final partially-unused node if p is not
// a multiple of procsPerNode. It mirrors how the paper scales P on a fixed
// 16-procs-per-node machine.
func ForProcs(p, procsPerNode int) *Topology {
	if p < procsPerNode {
		// Everything fits in one node; shrink the node so P == p.
		return TwoLevel(1, p)
	}
	nodes := (p + procsPerNode - 1) / procsPerNode
	t := TwoLevel(nodes, procsPerNode)
	t.p = p
	return t
}

// Levels returns N, the number of levels of the machine.
func (t *Topology) Levels() int { return len(t.counts) }

// Procs returns P, the total number of processes.
func (t *Topology) Procs() int { return t.p }

// ProcsPerLeaf returns the number of processes per leaf element.
func (t *Topology) ProcsPerLeaf() int { return t.procsPerLeaf }

// Elements returns N_i, the number of elements at level i (1 ≤ i ≤ N).
// Note this is the declared machine size; with a partially-filled last
// node (see ForProcs) some trailing elements may host fewer processes.
func (t *Topology) Elements(level int) int {
	t.checkLevel(level)
	return t.counts[level-1]
}

// Element returns e(p, i): the element id at level i that process p
// belongs to (0-based).
func (t *Topology) Element(p, level int) int {
	t.checkRank(p)
	t.checkLevel(level)
	return p / t.ranksPerElem[level-1]
}

// MemberRanks returns the ranks contained in element j of level i, capped
// at P (relevant for a partially-filled last node).
func (t *Topology) MemberRanks(level, elem int) []int {
	t.checkLevel(level)
	t.checkElem(level, elem)
	first := elem * t.ranksPerElem[level-1]
	last := first + t.ranksPerElem[level-1]
	if last > t.p {
		last = t.p
	}
	ranks := make([]int, 0, last-first)
	for r := first; r < last; r++ {
		ranks = append(ranks, r)
	}
	return ranks
}

// Leader returns the leader rank of element j at level i: the lowest rank
// belonging to the element. The leader hosts the element's TAIL pointer
// (tail_rank[i,j]) and, for levels < N, the element's queue node.
func (t *Topology) Leader(level, elem int) int {
	t.checkLevel(level)
	t.checkElem(level, elem)
	return elem * t.ranksPerElem[level-1]
}

// TailRank returns tail_rank[i, j]: the rank storing the TAIL pointer of
// the DQ of element j at level i. We place it on the element's leader.
func (t *Topology) TailRank(level, elem int) int { return t.Leader(level, elem) }

// Distance returns the topological distance between two ranks: 0 for the
// same rank, otherwise N+1-i where i is the deepest level at which the two
// ranks share an element. For a two-level machine this yields 0 (self),
// 1 (same node) or 2 (different nodes).
func (t *Topology) Distance(a, b int) int {
	t.checkRank(a)
	t.checkRank(b)
	if a == b {
		return 0
	}
	n := t.Levels()
	for i := n; i > 1; i-- {
		// b shares a's level-i element iff it falls inside that element's
		// rank block: one division per level, none for the root.
		r := t.ranksPerElem[i-1]
		if lo := a - a%r; lo <= b && b < lo+r {
			return n + 1 - i
		}
	}
	// Level 1 has a single element, so we always share it.
	return n
}

// MaxDistance returns the largest distance Distance can return: N.
func (t *Topology) MaxDistance() int { return t.Levels() }

// CounterRank returns c(p) for the given distributed-counter threshold
// T_DC: physical counters live on every T_DC-th rank, and p is assigned
// the counter of its block (paper §3.2.1: c(p) = ceil(p/T_DC) with 1-based
// ranks; 0-based this is floor(p/T_DC)*T_DC).
func (t *Topology) CounterRank(p, tdc int) int {
	t.checkRank(p)
	if tdc <= 0 {
		panic(fmt.Sprintf("topology: T_DC must be positive, got %d", tdc))
	}
	return (p / tdc) * tdc
}

// CounterRanks returns the ranks hosting physical counters for a given
// T_DC, in increasing order.
func (t *Topology) CounterRanks(tdc int) []int {
	if tdc <= 0 {
		panic(fmt.Sprintf("topology: T_DC must be positive, got %d", tdc))
	}
	var ranks []int
	for r := 0; r < t.p; r += tdc {
		ranks = append(ranks, r)
	}
	return ranks
}

// String renders a compact description such as "N=2 [1 4]x16 P=64".
func (t *Topology) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "N=%d [", t.Levels())
	for i, c := range t.counts {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", c)
	}
	fmt.Fprintf(&b, "]x%d P=%d", t.procsPerLeaf, t.p)
	return b.String()
}

func (t *Topology) checkLevel(level int) {
	if level < 1 || level > len(t.counts) {
		panic(fmt.Sprintf("topology: level %d out of range [1,%d]", level, len(t.counts)))
	}
}

func (t *Topology) checkElem(level, elem int) {
	if elem < 0 || elem >= t.counts[level-1] {
		panic(fmt.Sprintf("topology: element %d out of range [0,%d) at level %d", elem, t.counts[level-1], level))
	}
}

func (t *Topology) checkRank(p int) {
	if p < 0 || p >= t.p {
		panic(fmt.Sprintf("topology: rank %d out of range [0,%d)", p, t.p))
	}
}
