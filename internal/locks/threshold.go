package locks

import "math"

// Threshold is a lock threshold (T_R, T_W, T_L,i) that remembers what
// the run asked of it. Every comparison narrows an inclusive box
// [lo, hi] to the threshold values that would have given the same
// answer, so after a run the box holds every value with which the lock
// would have made each of the run's decisions the same way:
//
//   - Exceeds(x), x < v: true ⇒ lo ≥ x+1; false ⇒ hi ≤ x;
//   - Equals(x), x == v: true ⇒ the box is the point v; false ⇒ the
//     side of v that x falls on is cut off.
//
// Any other read (Value) pins the box to the value itself, so a use
// nobody foresaw can only make the box smaller, never wrong. Reset opens
// the box again; the locks call it with their other per-run statistics
// (rma.Machine.OnInit). Narrowing is an intersection, so the host order
// in which ranks compare never matters.
type Threshold struct {
	v, lo, hi int64
}

// NewThreshold returns a threshold of value v with an open box.
func NewThreshold(v int64) Threshold {
	return Threshold{v: v, lo: math.MinInt64, hi: math.MaxInt64}
}

// Reset opens the box again: the start of a run.
func (t *Threshold) Reset() { t.lo, t.hi = math.MinInt64, math.MaxInt64 }

// Exceeds reports x < v.
func (t *Threshold) Exceeds(x int64) bool {
	if x < t.v {
		t.lo = max(t.lo, x+1)
		return true
	}
	t.hi = min(t.hi, x)
	return false
}

// Equals reports x == v.
func (t *Threshold) Equals(x int64) bool {
	switch {
	case x == t.v:
		t.lo, t.hi = x, x
		return true
	case x < t.v:
		t.lo = max(t.lo, x+1)
	default:
		t.hi = min(t.hi, x-1)
	}
	return false
}

// Value returns v and pins the box to it.
func (t *Threshold) Value() int64 {
	t.lo, t.hi = t.v, t.v
	return t.v
}

// Box returns the box as it stands: every value in [lo, hi] answers the
// comparisons made since the last Reset as v did.
func (t *Threshold) Box() Box { return Box{Lo: t.lo, Hi: t.hi} }

// Box is an inclusive range of threshold values.
type Box struct{ Lo, Hi int64 }

// Contains reports Lo ≤ v ≤ Hi.
func (b Box) Contains(v int64) bool { return b.Lo <= v && v <= b.Hi }

// Intersect returns the values both boxes hold: what a set of locks
// built with one threshold value shows, when each lock left its own box.
func (b Box) Intersect(o Box) Box { return Box{Lo: max(b.Lo, o.Lo), Hi: min(b.Hi, o.Hi)} }
