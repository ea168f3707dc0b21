package topology

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name   string
		levels []int
		ppl    int
		ok     bool
	}{
		{"empty", nil, 4, false},
		{"root-not-one", []int{2, 4}, 4, false},
		{"non-multiple", []int{1, 3, 4}, 2, false},
		{"zero-procs", []int{1, 2}, 0, false},
		{"negative-level", []int{1, -2}, 2, false},
		{"single-level", []int{1}, 8, true},
		{"two-level", []int{1, 4}, 16, true},
		{"three-level", []int{1, 2, 4}, 3, true},
		{"four-level", []int{1, 2, 4, 8}, 2, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := New(c.levels, c.ppl)
			if (err == nil) != c.ok {
				t.Fatalf("New(%v,%d) err=%v, want ok=%v", c.levels, c.ppl, err, c.ok)
			}
		})
	}
}

func TestNewRejectsInt32RankOverflow(t *testing.T) {
	// The scheduler core trafficks in int32 rank ids, so any leaf-count x
	// procs-per-leaf product past MaxInt32 must be rejected with the
	// typed error — including products that would wrap int64 math.
	for _, c := range []struct {
		name   string
		levels []int
		ppl    int
	}{
		{"just-over", []int{1, 1 << 20}, 1 << 11},       // 2^31
		{"way-over", []int{1, 1 << 20}, 1 << 12},        // 2^32
		{"factor-over", []int{1, math.MaxInt32 + 1}, 1}, // single factor too big
		{"int64-wrap", []int{1, 1 << 40}, 1 << 40},      // product wraps int64
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := New(c.levels, c.ppl)
			if err == nil {
				t.Fatalf("New(%v,%d) accepted an int32-overflowing rank count", c.levels, c.ppl)
			}
			var roe *RankOverflowError
			if !errors.As(err, &roe) {
				t.Fatalf("error %v is not a *RankOverflowError", err)
			}
			if roe.Leaves != c.levels[len(c.levels)-1] || roe.ProcsPerLeaf != c.ppl {
				t.Errorf("error fields = %d/%d, want %d/%d", roe.Leaves, roe.ProcsPerLeaf, c.levels[len(c.levels)-1], c.ppl)
			}
		})
	}
	// Exactly MaxInt32 ranks is the largest legal machine.
	topo, err := New([]int{1}, math.MaxInt32)
	if err != nil {
		t.Fatalf("MaxInt32 ranks rejected: %v", err)
	}
	if topo.Procs() != math.MaxInt32 {
		t.Errorf("Procs=%d want %d", topo.Procs(), math.MaxInt32)
	}
}

func TestPaperExampleFigure2(t *testing.T) {
	// Figure 2: N=3 levels (machine, 2 racks, 4 nodes), with the example
	// mapping e(W1,1)=1, e(W1,2)=1, e(W1,3)=2 using 1-based element ids.
	// Our ids are 0-based: a rank on node 1 (second node) is in rack 0.
	topo := MustNew([]int{1, 2, 4}, 6) // 24 procs: 12 readers + 12 writers
	if topo.Levels() != 3 {
		t.Fatalf("Levels=%d want 3", topo.Levels())
	}
	if topo.Procs() != 24 {
		t.Fatalf("Procs=%d want 24", topo.Procs())
	}
	// Rank 6 is the first rank on node 1 (0-based), in rack 0, machine 0.
	if got := topo.Element(6, 3); got != 1 {
		t.Errorf("e(6,3)=%d want 1", got)
	}
	if got := topo.Element(6, 2); got != 0 {
		t.Errorf("e(6,2)=%d want 0", got)
	}
	if got := topo.Element(6, 1); got != 0 {
		t.Errorf("e(6,1)=%d want 0", got)
	}
	// Rank 18 is on node 3, rack 1.
	if got := topo.Element(18, 3); got != 3 {
		t.Errorf("e(18,3)=%d want 3", got)
	}
	if got := topo.Element(18, 2); got != 1 {
		t.Errorf("e(18,2)=%d want 1", got)
	}
}

func TestDistanceTwoLevel(t *testing.T) {
	topo := TwoLevel(4, 16) // 64 procs
	if d := topo.Distance(5, 5); d != 0 {
		t.Errorf("self distance=%d want 0", d)
	}
	if d := topo.Distance(0, 15); d != 1 {
		t.Errorf("same-node distance=%d want 1", d)
	}
	if d := topo.Distance(0, 16); d != 2 {
		t.Errorf("cross-node distance=%d want 2", d)
	}
	if topo.MaxDistance() != 2 {
		t.Errorf("MaxDistance=%d want 2", topo.MaxDistance())
	}
}

func TestDistanceThreeLevel(t *testing.T) {
	topo := MustNew([]int{1, 2, 4}, 4) // 2 racks, 4 nodes, 16 procs
	if d := topo.Distance(0, 1); d != 1 {
		t.Errorf("same-node=%d want 1", d)
	}
	if d := topo.Distance(0, 4); d != 2 {
		t.Errorf("same-rack cross-node=%d want 2", d)
	}
	if d := topo.Distance(0, 12); d != 3 {
		t.Errorf("cross-rack=%d want 3", d)
	}
}

func TestDistanceSymmetry(t *testing.T) {
	topo := MustNew([]int{1, 2, 6}, 5)
	f := func(a, b uint8) bool {
		x := int(a) % topo.Procs()
		y := int(b) % topo.Procs()
		return topo.Distance(x, y) == topo.Distance(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistanceMatchesElementDefinition(t *testing.T) {
	// Distance's rank-block arithmetic against its definition: N+1-i for
	// the deepest level i whose element the two ranks share. Exhaustive on
	// a four-level machine and on a partially-filled two-level one.
	for _, topo := range []*Topology{MustNew([]int{1, 3, 6, 12}, 4), ForProcs(37, 8)} {
		n := topo.Levels()
		for a := 0; a < topo.Procs(); a++ {
			for b := 0; b < topo.Procs(); b++ {
				want := 0
				if a != b {
					i := n
					for topo.Element(a, i) != topo.Element(b, i) {
						i--
					}
					want = n + 1 - i
				}
				if got := topo.Distance(a, b); got != want {
					t.Fatalf("%v: Distance(%d,%d)=%d want %d", topo, a, b, got, want)
				}
			}
		}
	}
}

func TestElementContainment(t *testing.T) {
	// Property: ancestors nest; if two ranks share an element at level i,
	// they share elements at all levels above (j < i).
	topo := MustNew([]int{1, 3, 6, 12}, 4)
	rng := rand.New(rand.NewSource(42))
	for it := 0; it < 2000; it++ {
		a := rng.Intn(topo.Procs())
		b := rng.Intn(topo.Procs())
		shared := false
		for i := topo.Levels(); i >= 1; i-- {
			same := topo.Element(a, i) == topo.Element(b, i)
			if shared && !same {
				t.Fatalf("ranks %d,%d share level %d but not an ancestor", a, b, i)
			}
			if same {
				shared = true
			}
		}
		if !shared {
			t.Fatalf("ranks %d,%d share no level (root must be shared)", a, b)
		}
	}
}

func TestMemberRanksPartition(t *testing.T) {
	topo := MustNew([]int{1, 2, 4}, 4)
	for level := 1; level <= topo.Levels(); level++ {
		seen := make(map[int]bool)
		for elem := 0; elem < topo.Elements(level); elem++ {
			for _, r := range topo.MemberRanks(level, elem) {
				if seen[r] {
					t.Fatalf("rank %d in two elements at level %d", r, level)
				}
				seen[r] = true
				if got := topo.Element(r, level); got != elem {
					t.Fatalf("rank %d: MemberRanks says elem %d, Element says %d", r, elem, got)
				}
			}
		}
		if len(seen) != topo.Procs() {
			t.Fatalf("level %d covers %d ranks, want %d", level, len(seen), topo.Procs())
		}
	}
}

func TestLeaderIsMember(t *testing.T) {
	topo := MustNew([]int{1, 2, 4, 8}, 3)
	for level := 1; level <= topo.Levels(); level++ {
		for elem := 0; elem < topo.Elements(level); elem++ {
			l := topo.Leader(level, elem)
			if topo.Element(l, level) != elem {
				t.Fatalf("leader %d of (level %d, elem %d) not a member", l, level, elem)
			}
			for _, r := range topo.MemberRanks(level, elem) {
				if r < l {
					t.Fatalf("leader %d not the lowest rank of (level %d, elem %d)", l, level, elem)
				}
			}
			if topo.TailRank(level, elem) != l {
				t.Fatalf("TailRank != Leader for (level %d, elem %d)", level, elem)
			}
		}
	}
}

func TestCounterRank(t *testing.T) {
	topo := TwoLevel(4, 16)
	// T_DC = 16: one counter per node, on the node's first rank.
	for p := 0; p < topo.Procs(); p++ {
		c := topo.CounterRank(p, 16)
		if c != (p/16)*16 {
			t.Errorf("CounterRank(%d,16)=%d", p, c)
		}
		if topo.Element(c, 2) != topo.Element(p, 2) {
			t.Errorf("counter of %d on different node", p)
		}
	}
	if got := len(topo.CounterRanks(16)); got != 4 {
		t.Errorf("CounterRanks(16) len=%d want 4", got)
	}
	if got := len(topo.CounterRanks(32)); got != 2 {
		t.Errorf("CounterRanks(32) len=%d want 2", got)
	}
	if got := len(topo.CounterRanks(1)); got != 64 {
		t.Errorf("CounterRanks(1) len=%d want 64", got)
	}
}

func TestCounterRankProperty(t *testing.T) {
	// Property: every process's counter rank hosts a counter, i.e., is a
	// multiple of T_DC, and is <= p.
	topo := TwoLevel(8, 16)
	f := func(pp, tt uint16) bool {
		p := int(pp) % topo.Procs()
		tdc := int(tt)%64 + 1
		c := topo.CounterRank(p, tdc)
		return c%tdc == 0 && c <= p && p-c < tdc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestForProcs(t *testing.T) {
	small := ForProcs(8, 16)
	if small.Procs() != 8 || small.Elements(2) != 1 {
		t.Errorf("ForProcs(8,16) = %v", small)
	}
	exact := ForProcs(64, 16)
	if exact.Procs() != 64 || exact.Elements(2) != 4 {
		t.Errorf("ForProcs(64,16) = %v", exact)
	}
	ragged := ForProcs(40, 16)
	if ragged.Procs() != 40 || ragged.Elements(2) != 3 {
		t.Errorf("ForProcs(40,16) = %v", ragged)
	}
	// The last node hosts only 8 ranks.
	if got := len(ragged.MemberRanks(2, 2)); got != 8 {
		t.Errorf("ragged last node has %d ranks, want 8", got)
	}
}

func TestPanicsOnBadArgs(t *testing.T) {
	topo := TwoLevel(2, 4)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("bad rank", func() { topo.Element(99, 1) })
	mustPanic("bad level", func() { topo.Element(0, 3) })
	mustPanic("bad elem", func() { topo.Leader(2, 9) })
	mustPanic("bad tdc", func() { topo.CounterRank(0, 0) })
	mustPanic("bad distance rank", func() { topo.Distance(-1, 0) })
}

func TestString(t *testing.T) {
	topo := MustNew([]int{1, 4}, 16)
	want := "N=2 [1 4]x16 P=64"
	if topo.String() != want {
		t.Errorf("String()=%q want %q", topo.String(), want)
	}
}
