package sim

// Tests for the memory-flat core's two refactor-specific risks: pooled
// schedCore reuse leaking state between schedulers, and the sharded heap
// changing dispatch order relative to a single heap.

import (
	"errors"
	"math/rand"
	"reflect"
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
	s := New(Config{Procs: 3, ShardSize: 2, BarrierCost: 5, Trace: sink})
	handles := make([]*Handle, 3)
	err := s.Run(func(h *Handle) {
		handles[h.ID()] = h
		switch h.ID() {
		case 0:
			h.Block()
			h.Advance(3)
		case 1:
			h.Advance(7)
			h.Wake(handles[0], 9)
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
	// errored run whose teardown has to stop a parked coroutine, both at
	// shapes different from the canonical run's.
	tracedBlockingRun(t)
	s := New(Config{Procs: 6, ShardSize: 3, TimeLimit: 100})
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
	s = New(Config{Procs: 4, ShardSize: 2})
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
	if s.heap.size != 0 {
		t.Errorf("heap size=%d want 0", s.heap.size)
	}
	for si, pos := range s.heap.topPos {
		if pos != -1 {
			t.Errorf("shard %d queued in top heap of a fresh scheduler", si)
		}
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

func TestShardedDispatchOrderMatchesSingleHeap(t *testing.T) {
	// Property: (clock, id) keys are unique and totally ordered, so the
	// shard layout must be invisible — every ShardSize yields the exact
	// dispatch sequence of the single heap, for random process counts and
	// random advance/barrier workloads.
	shardSizes := []int{0, 1, 3, 16, 64}
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*7919 + 1))
		procs := 1 + rng.Intn(48)
		steps := 1 + rng.Intn(40)
		barriers := rng.Intn(3)
		seedBase := rng.Int63()
		body := func(h *Handle) {
			r := rand.New(rand.NewSource(seedBase + int64(h.ID())))
			for b := 0; b <= barriers; b++ {
				for i := 0; i < steps; i++ {
					h.Advance(1 + r.Int63n(97))
				}
				if b < barriers {
					h.Barrier()
				}
			}
		}
		var wantEvs []trace.Event
		var wantMax int64
		for _, ss := range shardSizes {
			sink := trace.New(trace.ClassSched | trace.ClassCharge) // dispatches are ClassCharge
			s := New(Config{Procs: procs, ShardSize: ss, BarrierCost: 11, Trace: sink})
			if err := s.Run(body); err != nil {
				t.Fatalf("trial %d shardSize %d: %v", trial, ss, err)
			}
			max := s.MaxClock()
			s.Release()
			evs := sink.Events()
			if ss == shardSizes[0] {
				wantEvs, wantMax = evs, max
				continue
			}
			if max != wantMax {
				t.Fatalf("trial %d (procs=%d): shardSize %d MaxClock %d, single-heap %d",
					trial, procs, ss, max, wantMax)
			}
			if !reflect.DeepEqual(evs, wantEvs) {
				t.Fatalf("trial %d (procs=%d): shardSize %d dispatch stream diverged from single heap (%d vs %d events)",
					trial, procs, ss, len(evs), len(wantEvs))
			}
		}
	}
}
