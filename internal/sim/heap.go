package sim

// procHeap is the pending-process priority queue of the scheduler: one
// 4-ary min-heap of int32 rank ids ordered by (clock, id). Clocks live in
// the scheduler's flat hot-state slice, so the heap stores ids only (4
// bytes per pending rank). Its backing array has room for every rank and
// comes from the pooled core, so push never grows it and a run allocates
// nothing for the queue.
//
// Invariants:
//   - a rank id is queued at most once (the scheduler's stInHeap flag);
//   - hot[id].clock is immutable while id is queued (the scheduler only
//     touches a rank's clock when it is running, blocked or being woken
//     — never while pending), so heap order cannot rot.
//
// (clock, id) keys are unique and totally ordered, so any conforming
// min-heap pops them in exactly one order (property-tested against a
// sorted-slice oracle).
//
// One level of a 4-ary heap touches one cache line of ids, halving the
// tree depth that made BenchmarkProcHeapDrainRefill super-linear on the
// former binary *proc heap once the working set outgrew cache.
type procHeap struct {
	hot []hotState
	ids []int32
}

// init empties the heap for n ranks ordered by the clocks in hot, reusing
// buf's backing array when it has room for all of them.
func (h *procHeap) init(hot []hotState, n int, buf []int32) {
	if cap(buf) < n {
		buf = make([]int32, 0, n)
	}
	h.hot, h.ids = hot, buf[:0]
}

// push queues rank id, which must not already be queued (the scheduler's
// stInHeap flag guards this).
func (h *procHeap) push(id int32) {
	i := len(h.ids)
	a := h.ids[:i+1]
	c := h.hot[id].clock
	for i > 0 {
		parent := (i - 1) >> 2
		q := a[parent]
		cq := h.hot[q].clock
		if c > cq || (c == cq && id > q) {
			break
		}
		a[i] = q
		i = parent
	}
	a[i] = id
	h.ids = a
}

// pop removes and returns the minimum (clock, id) rank. The heap must not
// be empty.
func (h *procHeap) pop() int32 {
	a := h.ids
	id := a[0]
	n := len(a) - 1
	last := a[n]
	a = a[:n]
	h.ids = a
	if n == 0 {
		return id
	}
	// Sift the former last element down from the root.
	cl := h.hot
	lastC := cl[last].clock
	i := 0
	for {
		c0 := i<<2 + 1
		if c0 >= n {
			break
		}
		min, minID := c0, a[c0]
		minC := cl[minID].clock
		end := c0 + 4
		if end > n {
			end = n
		}
		for c := c0 + 1; c < end; c++ {
			q := a[c]
			cq := cl[q].clock
			if cq < minC || (cq == minC && q < minID) {
				min, minID, minC = c, q, cq
			}
		}
		if lastC < minC || (lastC == minC && last < minID) {
			break
		}
		a[i] = minID
		i = min
	}
	a[i] = last
	return id
}

// peek returns the minimum pending (clock, id) without removing it.
func (h *procHeap) peek() (clock int64, id int32, ok bool) {
	if len(h.ids) == 0 {
		return 0, 0, false
	}
	id = h.ids[0]
	return h.hot[id].clock, id, true
}
