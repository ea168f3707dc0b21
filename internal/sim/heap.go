package sim

// shardHeap is the pending-process priority queue of the scheduler,
// sharded by contiguous rank ranges so that heaps stay small (and their
// working sets stay within their owning node's proc state) on
// million-rank machines.
//
// Layout: ranks [k*shardSize, (k+1)*shardSize) belong to shard k — with
// shardSize = topology procs-per-leaf, a shard is exactly one compute
// node of the simulated machine. Each shard is a 4-ary min-heap of
// int32 rank ids ordered by (clock, id); clocks live in the scheduler's
// flat hot-state slice, so the heap stores ids only (4 bytes per pending
// rank). A small top-level binary heap orders the non-empty shards by
// their head key, with a position index (topPos) so a shard whose head
// changed can be re-sifted in O(log #shards).
//
// Ownership invariants:
//   - a rank id appears in at most one shard (its own), at most once;
//   - a shard appears in the top heap iff it is non-empty, exactly once,
//     and topPos[k] is its current index there (-1 when absent);
//   - hot[id].clock is immutable while id is queued (the scheduler only
//     touches a rank's clock when it is running, blocked or being woken
//     — never while pending), so heap order cannot rot.
//
// (clock, id) keys are unique and totally ordered, so any conforming
// min-heap pops them in exactly one order: sharding cannot change the
// dispatch sequence (property-tested against the single-shard layout).
//
// The 4-ary shard sift replaces the former binary *proc heap: one level
// of a 4-ary heap touches one cache line of ids, halving the tree depth
// that made BenchmarkProcHeapDrainRefill super-linear once the working
// set outgrew cache.
type shardHeap struct {
	hot       []hotState
	shardSize int32
	shards    [][]int32
	top       []int32 // binary min-heap of shard indices, keyed by shard head
	topPos    []int32 // shard index -> position in top (-1 = not queued)
	size      int
}

// init prepares the heap for n ranks split into ceil(n/shardSize)
// shards, reusing the backing arrays carried by core.
func (h *shardHeap) init(hot []hotState, n, shardSize int, core *schedCore) {
	if shardSize <= 0 || shardSize > n {
		shardSize = n
	}
	h.hot = hot
	h.shardSize = int32(shardSize)
	nShards := (n + shardSize - 1) / shardSize
	sh := core.shards
	if cap(sh) >= nShards {
		sh = sh[:nShards]
	} else {
		sh = append(sh[:cap(sh)], make([][]int32, nShards-cap(sh))...)
	}
	for i := range sh {
		if sh[i] != nil {
			sh[i] = sh[i][:0]
		}
	}
	h.shards = sh
	h.top = core.top[:0]
	tp := core.topPos
	if cap(tp) >= nShards {
		tp = tp[:nShards]
	} else {
		tp = make([]int32, nShards)
	}
	for i := range tp {
		tp[i] = -1
	}
	h.topPos = tp
	h.size = 0
}

// less orders rank ids by (clock, id).
func (h *shardHeap) less(a, b int32) bool {
	ca, cb := h.hot[a].clock, h.hot[b].clock
	return ca < cb || (ca == cb && a < b)
}

// push queues rank id, which must not already be queued (the scheduler's
// inHeap flag guards this).
func (h *shardHeap) push(id int32) {
	si := id / h.shardSize
	a := append(h.shards[si], id)
	c := h.hot[id].clock
	i := len(a) - 1
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
	h.shards[si] = a
	h.size++
	if i == 0 {
		// The shard's head changed (or the shard just became non-empty):
		// its top-heap key decreased.
		if h.topPos[si] < 0 {
			h.topPush(si)
		} else {
			h.topUp(int(h.topPos[si]))
		}
	}
}

// pop removes and returns the minimum (clock, id) rank across all shards.
// h.size must be positive.
func (h *shardHeap) pop() int32 {
	si := h.top[0]
	a := h.shards[si]
	id := a[0]
	n := len(a) - 1
	last := a[n]
	a = a[:n]
	h.shards[si] = a
	h.size--
	if n == 0 {
		h.topRemoveRoot()
		return id
	}
	// Sift the former last element down from the shard root (4-ary).
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
	// The shard head grew (heap property): restore the top heap downward.
	h.topDown(0)
	return id
}

// peek returns the minimum pending (clock, id) without removing it.
func (h *shardHeap) peek() (clock int64, id int32, ok bool) {
	if h.size == 0 {
		return 0, 0, false
	}
	id = h.shards[h.top[0]][0]
	return h.hot[id].clock, id, true
}

// topLess orders shards by their head rank's (clock, id).
func (h *shardHeap) topLess(x, y int32) bool {
	return h.less(h.shards[x][0], h.shards[y][0])
}

func (h *shardHeap) topPush(si int32) {
	h.top = append(h.top, si)
	h.topPos[si] = int32(len(h.top) - 1)
	h.topUp(len(h.top) - 1)
}

func (h *shardHeap) topUp(i int) {
	t := h.top
	for i > 0 {
		parent := (i - 1) / 2
		if !h.topLess(t[i], t[parent]) {
			break
		}
		t[i], t[parent] = t[parent], t[i]
		h.topPos[t[i]] = int32(i)
		h.topPos[t[parent]] = int32(parent)
		i = parent
	}
}

func (h *shardHeap) topDown(i int) {
	t := h.top
	n := len(t)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && h.topLess(t[r], t[l]) {
			min = r
		}
		if !h.topLess(t[min], t[i]) {
			break
		}
		t[i], t[min] = t[min], t[i]
		h.topPos[t[i]] = int32(i)
		h.topPos[t[min]] = int32(min)
		i = min
	}
}

func (h *shardHeap) topRemoveRoot() {
	t := h.top
	h.topPos[t[0]] = -1
	n := len(t) - 1
	t[0] = t[n]
	t = t[:n]
	h.top = t
	if n > 0 {
		h.topPos[t[0]] = 0
		h.topDown(0)
	}
}
