package sim

// Internal benchmarks for the id-based (no-boxing) pending queue — a run
// beside a 4-ary min-heap — behind the genuine-handoff slow path. The
// engine-level benchmarks (fast path vs refsim) live in
// bench_engines_test.go.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// newBenchScheduler returns a scheduler with n procs pre-pushed at
// pseudo-random clocks (steady-state heap shape).
func newBenchScheduler(n int) *Scheduler {
	s := New(Config{Procs: n})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		s.hot[i].clock = rng.Int63n(1 << 20)
		s.push(int32(i))
	}
	return s
}

// BenchmarkProcHeapPushPop measures one genuine-handoff scheduling
// decision on the queue: pop the minimum rank, charge it a random time,
// push it back (mostly into the heap: the charges are not a herd's).
func BenchmarkProcHeapPushPop(b *testing.B) {
	for _, n := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("procs=%d", n), func(b *testing.B) {
			s := newBenchScheduler(n)
			rng := rand.New(rand.NewSource(2))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := s.popMin()
				s.hot[id].clock += rng.Int63n(1000) + 1
				s.push(id)
			}
		})
	}
}

// BenchmarkProcHeapDrainRefill measures full queue churn: drain all procs,
// then refill. A shuffled refill lands almost entirely in the 4-ary heap,
// whose sift keeps per-element cost near log(n) well past the sizes where
// the former binary *proc heap went super-linear (pointer-chasing cache
// misses). The sorted refill is a barrier release: every push is an append
// to the run.
func BenchmarkProcHeapDrainRefill(b *testing.B) {
	for _, n := range []int{16, 256, 4096, 65536} {
		s := newBenchScheduler(n)
		shuffled, sorted := refillOrders(s)
		for _, c := range []struct {
			name   string
			refill []int32
		}{{"procs", shuffled}, {"sorted/procs", sorted}} {
			b.Run(fmt.Sprintf("%s=%d", c.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					drainRefill(s, c.refill)
				}
			})
		}
	}
}

// refillOrders returns the ids s holds queued, shuffled and in the
// (clock, id) order a drain pops them in.
func refillOrders(s *Scheduler) (shuffled, sorted []int32) {
	for s.heap.queued() > 0 {
		sorted = append(sorted, s.popMin())
	}
	shuffled = append([]int32(nil), sorted...)
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	for _, id := range shuffled {
		s.push(id)
	}
	return shuffled, sorted
}

// drainRefill pops every queued rank of s and pushes them back in the
// order refill lists them.
func drainRefill(s *Scheduler, refill []int32) {
	for s.heap.queued() > 0 {
		s.popMin()
	}
	for _, id := range refill {
		s.push(id)
	}
}

// drainRefillSeconds times one full drain and shuffled refill of an n-rank
// queue, minimum over trials runs.
func drainRefillSeconds(n, trials int) float64 {
	s := newBenchScheduler(n)
	shuffled, _ := refillOrders(s)
	best := math.MaxFloat64
	for t := 0; t < trials; t++ {
		start := time.Now()
		drainRefill(s, shuffled)
		if el := time.Since(start).Seconds(); el < best {
			best = el
		}
	}
	return best
}

// TestProcHeapDrainScalesNearNLogN is the regression gate for the
// super-linear drain cost BENCH_5.json recorded on the binary *proc
// heap: per-element-per-log cost at 2^20 ranks must stay within a
// generous constant of the 2^12-rank cost. A return to super-linear
// growth (cache thrash, accidental O(n) repair) blows the ratio far past
// the bound.
func TestProcHeapDrainScalesNearNLogN(t *testing.T) {
	if testing.Short() {
		t.Skip("million-rank drain timing skipped in -short")
	}
	const small, big = 1 << 12, 1 << 20
	// "single-shard": the scheduler queues every pending rank in one queue,
	// and a shuffled refill puts nearly all of them in its heap.
	t.Run("single-shard", func(t *testing.T) {
		perOp := func(n int) float64 {
			sec := drainRefillSeconds(n, 3)
			return sec / (float64(n) * math.Log2(float64(n)))
		}
		cs, cb := perOp(small), perOp(big)
		// Allow the big run an 8x per-op-per-log handicap: cache misses on
		// a 4MB+ working set are real, super-linear algorithmic cost (the
		// old heap showed >2x already at 256 vs 16) is not. The wall-clock
		// floor guards against a zero-cost small measurement.
		if cs <= 0 {
			t.Fatalf("degenerate small-heap timing: %v s/op-log", cs)
		}
		if ratio := cb / cs; ratio > 8 {
			t.Errorf("drain cost not near n log n: per-op-per-log %.3g (n=%d) vs %.3g (n=%d), ratio %.1f > 8",
				cb, big, cs, small, ratio)
		}
	})
}
