package sim

// procHeap is the pending-process priority queue of the scheduler: a run
// beside a 4-ary min-heap, both of int32 rank ids ordered by (clock, id).
// Clocks live in the scheduler's flat hot-state slice, so the queue stores
// ids only. The run is a ring whose keys strictly increase from head to
// tail; a push lands there when its key is above the tail or between the
// last two entries, and in the heap otherwise. The minimum is the smaller
// of the run's head and the heap's top: one compare.
//
// The run is there for a spinning herd. The target's busy[] serialises
// every try, so a failed try's re-queue almost always goes to the back of
// the line (on the foMPI grid 66 % of keys land above the tail and 10 %
// exactly one slot before it, two topology distance classes interleaving);
// it is then an append instead of a sift-up, and the pop that follows
// takes the run's head instead of sifting the heap's full depth. Keys that
// land further back (ranks restarting their back-off) go to the heap.
//
// Both the ring and the heap have room for every rank and share one
// backing array from the pooled core (ring first), so push never grows
// them and a run allocates nothing for the queue.
//
// Invariants:
//   - a rank id is queued at most once (the scheduler's stInHeap flag), so
//     run and heap together hold at most n ids;
//   - hot[id].clock is immutable while id is queued (the scheduler only
//     touches a rank's clock when it is running, blocked or being woken
//     — never while pending), so neither order can rot.
//
// (clock, id) keys are unique and totally ordered, so any conforming
// priority queue pops them in exactly one order (property-tested against
// a sorted-slice oracle): which side holds a key never shows.
//
// One level of a 4-ary heap touches one cache line of ids, halving the
// tree depth that made BenchmarkProcHeapDrainRefill super-linear on the
// former binary *proc heap once the working set outgrew cache.
type procHeap struct {
	hot []hotState
	ids []int32 // the heap
	run []int32 // the run's ring, one slot per rank
	// head is the ring index of the run's first entry, size its length.
	head, size int
}

// init empties the queue for n ranks ordered by the clocks in hot, reusing
// buf's backing array when it has room for 2n ids.
func (h *procHeap) init(hot []hotState, n int, buf []int32) {
	if cap(buf) < 2*n {
		buf = make([]int32, 2*n)
	}
	h.hot = hot
	h.run, h.ids = buf[:n], buf[n:n]
	h.head, h.size = 0, 0
}

// buffer returns the backing array init was given (or made), for the pool.
func (h *procHeap) buffer() []int32 { return h.run[:0] }

// queued returns the number of queued ranks.
func (h *procHeap) queued() int { return h.size + len(h.ids) }

// less orders rank ids by (clock, id).
func (h *procHeap) less(a, b int32) bool {
	ca, cb := h.hot[a].clock, h.hot[b].clock
	return ca < cb || (ca == cb && a < b)
}

// push queues rank id, which must not already be queued (the scheduler's
// stInHeap flag guards this).
func (h *procHeap) push(id int32) {
	r, n := h.run, h.size
	if n == 0 {
		r[h.head] = id
		h.size = 1
		return
	}
	t := h.head + n - 1 // the tail's slot
	if t >= len(r) {
		t -= len(r)
	}
	u := t + 1 // the slot after it, free: the run holds fewer than n ids
	if u == len(r) {
		u = 0
	}
	tail := r[t]
	if h.less(tail, id) {
		r[u] = id
		h.size++
		return
	}
	if n == 1 || h.less(r[h.before(t)], id) {
		r[t], r[u] = id, tail
		h.size++
		return
	}
	h.pushHeap(id)
}

// before returns the ring slot before slot i.
func (h *procHeap) before(i int) int {
	if i == 0 {
		i = len(h.run)
	}
	return i - 1
}

// runFirst reports whether the minimum is the run's head rather than the
// heap's top. The queue must not be empty.
func (h *procHeap) runFirst() bool {
	return h.size > 0 && (len(h.ids) == 0 || h.less(h.run[h.head], h.ids[0]))
}

// pop removes and returns the minimum (clock, id) rank. The queue must not
// be empty.
func (h *procHeap) pop() int32 {
	if !h.runFirst() {
		return h.popHeap()
	}
	id := h.run[h.head]
	if h.head++; h.head == len(h.run) {
		h.head = 0
	}
	h.size--
	return id
}

// peek returns the minimum pending (clock, id) without removing it.
func (h *procHeap) peek() (clock int64, id int32, ok bool) {
	switch {
	case h.runFirst():
		id = h.run[h.head]
	case len(h.ids) > 0:
		id = h.ids[0]
	default:
		return 0, 0, false
	}
	return h.hot[id].clock, id, true
}

// pushHeap sifts id up into the heap.
func (h *procHeap) pushHeap(id int32) {
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

// popHeap removes and returns the heap's top. The heap must not be empty.
func (h *procHeap) popHeap() int32 {
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
