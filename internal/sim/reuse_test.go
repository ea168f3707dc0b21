package sim

// Tests for the memory-flat core: pooled schedCore reuse must not leak
// state between schedulers, and the id queue must pop in (clock, id) order.

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"rmalocks/internal/trace"
)

// tracedBlockingRun executes a canonical workload that exercises every
// per-rank state class — horizons (advances), coroutines parked in
// block/wake and barriers, and trace buffers — and returns its full event stream and
// makespan. Byte-identical output is the ground truth for reuse tests.
func tracedBlockingRun(t *testing.T) ([]trace.Event, int64) {
	t.Helper()
	sink := trace.New(trace.ClassAll)
	s := New(Config{Procs: 3, BarrierCost: 5, Trace: sink})
	handles := make([]*Handle, 3)
	err := s.Run(func(h *Handle) {
		handles[h.ID()] = h
		switch h.ID() {
		case 0:
			h.Block()
			h.Advance(3)
		case 1:
			h.Advance(7)
			handles[0].WakeAt(9)
			h.Advance(40)
		default:
			h.Advance(25)
		}
		h.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	max := s.MaxClock()
	s.Release()
	return sink.Events(), max
}

func TestReleaseReacquireNoStaleState(t *testing.T) {
	wantEvs, wantMax := tracedBlockingRun(t)

	// Pollute the pool: a traced run (handles get trace buffers), then an
	// errored run whose teardown has to stop a parked coroutine and leaves
	// ranks queued, both at shapes different from the canonical run's.
	tracedBlockingRun(t)
	s := New(Config{Procs: 6, TimeLimit: 100})
	if err := s.Run(func(h *Handle) {
		if h.ID() == 0 {
			h.Block() // parked at teardown: stopped by the trampoline
		}
		for {
			h.Advance(30)
		}
	}); !errors.Is(err, ErrTimeLimit) {
		t.Fatalf("err=%v want ErrTimeLimit", err)
	}
	s.Release()

	// A reacquired scheduler must be indistinguishable from a fresh one:
	// zeroed hot state and flags, rebuilt handles without stale trace
	// buffers, an empty coroutine table, empty heap.
	s = New(Config{Procs: 4})
	for i := 0; i < 4; i++ {
		if s.hot[i] != (hotState{}) {
			t.Errorf("rank %d: stale hot state %+v", i, s.hot[i])
		}
		if s.state[i] != 0 {
			t.Errorf("rank %d: stale flags %b", i, s.state[i])
		}
		h := &s.handles[i]
		if h.s != s || h.id != int32(i) || h.hs != &s.hot[i] {
			t.Errorf("rank %d: handle not rebuilt for this scheduler", i)
		}
		if h.tb != nil {
			t.Errorf("rank %d: handle kept a stale trace buffer", i)
		}
		if c := s.coros[i]; c.next != nil || c.stop != nil || c.yield != nil {
			t.Errorf("rank %d: stale coroutine survived reacquire", i)
		}
	}
	if _, id, ok := s.heap.peek(); ok || s.heap.queued() != 0 {
		t.Errorf("queue of a fresh scheduler holds %d ranks (top %d)", s.heap.queued(), id)
	}
	s.Release()

	// And behaviorally: the canonical run replayed through the polluted
	// pool stays byte-identical, trace stream included.
	gotEvs, gotMax := tracedBlockingRun(t)
	if gotMax != wantMax {
		t.Errorf("MaxClock %d, want %d", gotMax, wantMax)
	}
	if !reflect.DeepEqual(gotEvs, wantEvs) {
		t.Errorf("trace stream diverged after pooled reuse: %d events vs %d", len(gotEvs), len(wantEvs))
	}
}

// TestProcHeapMatchesSortedOracle drives the queue with random
// interleavings of pushes and pops over up to 2^12 ids and requires every
// peek and pop to return the (clock, id) minimum of a sorted-slice oracle.
// Clocks collide often, so the id tie-break decides most comparisons. Half
// the trials draw clocks uniformly from a few values; the other half push
// near-monotone streams, the spinning herd's shape: clocks rise by one
// every four ops with a jitter of three values, and one key in eight is the
// last popped clock, which lands behind most of the run (a rank restarting
// its back-off). Those trials must take every path of push — the append,
// the insert before the tail, the heap — and wrap the ring.
func TestProcHeapMatchesSortedOracle(t *testing.T) {
	type key struct {
		clock int64
		id    int32
	}
	less := func(a, b key) bool { return a.clock < b.clock || (a.clock == b.clock && a.id < b.id) }
	var appended, inserted, heaped, wrapped int
	for trial := 0; trial < 80; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*7919 + 1))
		n := 1 + rng.Intn(1<<12)
		clocks := 1 + rng.Int63n(16) // few distinct clocks: ties are the norm
		herd := trial%2 == 1
		var now int64 // the last popped clock
		hot := make([]hotState, n)
		var h procHeap
		h.init(hot, n, nil)
		var oracle []key
		idle := make([]int32, n) // ids not queued
		for i := range idle {
			idle[i] = int32(i)
		}
		// Fill-biased for the first half of the ops, drain-biased after, so
		// the queue passes through every size up to about n.
		ops := 4 * n
		for op := 0; op < ops || len(oracle) > 0; op++ {
			pushPct := 75
			if op >= ops/2 {
				pushPct = 25
			}
			if op < ops && len(idle) > 0 && (len(oracle) == 0 || rng.Intn(100) < pushPct) {
				j := rng.Intn(len(idle))
				id := idle[j]
				idle[j] = idle[len(idle)-1]
				idle = idle[:len(idle)-1]
				k := key{rng.Int63n(clocks), id}
				if herd {
					k.clock = int64(op/4) + rng.Int63n(3)
					if rng.Intn(8) == 0 {
						k.clock = now
					}
				}
				hot[id].clock = k.clock
				inHeap := len(h.ids)
				h.push(id)
				if herd {
					switch tail := h.run[(h.head+h.size-1)%n]; {
					case len(h.ids) > inHeap:
						heaped++
					case tail == id:
						appended++
					default:
						inserted++
					}
					if h.head+h.size > n {
						wrapped++
					}
				}
				at := sort.Search(len(oracle), func(i int) bool { return less(k, oracle[i]) })
				oracle = append(oracle, key{})
				copy(oracle[at+1:], oracle[at:])
				oracle[at] = k
				continue
			}
			want := oracle[0]
			if c, id, ok := h.peek(); !ok || (key{c, id}) != want {
				t.Fatalf("trial %d (n=%d) op %d: peek (%d, %d, %v), want %v", trial, n, op, c, id, ok, want)
			}
			if id := h.pop(); id != want.id {
				t.Fatalf("trial %d (n=%d) op %d: pop %d, want %v", trial, n, op, id, want)
			}
			now = want.clock
			oracle = oracle[1:]
			idle = append(idle, want.id)
			if h.queued() != len(oracle) {
				t.Fatalf("trial %d: queue holds %d ids, oracle %d", trial, h.queued(), len(oracle))
			}
		}
		if _, _, ok := h.peek(); ok {
			t.Fatalf("trial %d: drained queue still has a minimum", trial)
		}
	}
	if appended == 0 || inserted == 0 || heaped == 0 || wrapped == 0 {
		t.Errorf("near-monotone pushes: %d appended, %d inserted before the tail, %d to the heap, %d with the ring wrapped; want every path taken",
			appended, inserted, heaped, wrapped)
	}
}
