package locks

import (
	"math"
	"testing"
)

// TestThresholdBox checks the box against its definition: after any
// sequence of comparisons, every value inside the box answers each of
// them as the real threshold did. The box is a range, so a failed
// Equals keeps only the side of x the threshold is on; the bounds of
// each case pin that it loses nothing else.
func TestThresholdBox(t *testing.T) {
	type cmp struct {
		eq bool // Equals, else Exceeds
		x  int64
	}
	answer := func(v int64, c cmp) bool {
		if c.eq {
			return c.x == v
		}
		return c.x < v
	}
	for _, tc := range []struct {
		name   string
		v      int64
		cmps   []cmp
		lo, hi int64
	}{
		{"untouched", 7, nil, math.MinInt64, math.MaxInt64},
		{"below", 7, []cmp{{false, 3}, {false, 5}, {false, 1}}, 6, math.MaxInt64},
		{"reached", 7, []cmp{{false, 5}, {false, 7}, {false, 9}}, 6, 7},
		{"equal", 7, []cmp{{false, 2}, {true, 7}}, 7, 7},
		{"equal below", 7, []cmp{{true, 4}}, 5, math.MaxInt64},
		{"equal above", 7, []cmp{{false, 8}, {true, 8}}, math.MinInt64, 7},
		{"reader at T_R", 200, []cmp{{false, 199}, {false, 200}, {true, 200}}, 200, 200},
		{"reader past T_R", 200, []cmp{{false, 201}, {true, 201}}, math.MinInt64, 200},
	} {
		th := NewThreshold(tc.v)
		for _, c := range tc.cmps {
			var got bool
			if c.eq {
				got = th.Equals(c.x)
			} else {
				got = th.Exceeds(c.x)
			}
			if got != answer(tc.v, c) {
				t.Fatalf("%s: comparison %+v answered %v", tc.name, c, got)
			}
		}
		if b := th.Box(); b != (Box{tc.lo, tc.hi}) {
			t.Errorf("%s: box %+v, want [%d, %d]", tc.name, b, tc.lo, tc.hi)
		}
		for v := tc.v - 12; v <= tc.v+12; v++ {
			same := true
			for _, c := range tc.cmps {
				same = same && answer(v, c) == answer(tc.v, c)
			}
			if th.Box().Contains(v) && !same {
				t.Errorf("%s: v=%d is in the box but answers a comparison differently", tc.name, v)
			}
		}
	}

	// A raw read pins the box; Reset opens it again.
	th := NewThreshold(32)
	th.Exceeds(3)
	if th.Value() != 32 || th.Box() != (Box{32, 32}) {
		t.Errorf("after Value: box %+v, want [32, 32]", th.Box())
	}
	th.Reset()
	if th.Box() != (Box{math.MinInt64, math.MaxInt64}) {
		t.Errorf("after Reset: box %+v, want open", th.Box())
	}
}
