package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWritePrometheusGolden pins the exposition byte-for-byte on a
// registry with known values: metric names, HELP/TYPE headers, label
// sets and ordering are API surface — a scraper's dashboard breaks if
// they drift silently.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_last_total", "Sorts last.").Add(7)
	r.Counter("aa_first_total", "Sorts first.").Add(3)
	r.Gauge("mid_gauge", "A settable gauge.").Set(-4)
	r.GaugeFunc("mid_ratio", "A derived gauge.", func() float64 { return 0.25 })
	sc := r.ShardedCounter("sharded_total", "A sharded counter.", 64)
	for w := 0; w < 64; w++ {
		sc.Add(w, 2)
	}
	h := r.Histogram("depth", "A depth histogram.", []int64{1, 4, 16}, 8)
	h.Observe(0, 1)
	h.Observe(3, 3)
	h.Observe(5, 100)
	r.Span("run").End() // wall ns is live; pin only names below

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()

	want := `# HELP aa_first_total Sorts first.
# TYPE aa_first_total counter
aa_first_total 3
# HELP depth A depth histogram.
# TYPE depth histogram
depth_bucket{le="1"} 1
depth_bucket{le="4"} 2
depth_bucket{le="16"} 2
depth_bucket{le="+Inf"} 3
depth_sum 104
depth_count 3
# HELP mid_gauge A settable gauge.
# TYPE mid_gauge gauge
mid_gauge -4
# HELP mid_ratio A derived gauge.
# TYPE mid_ratio gauge
mid_ratio 0.25
# HELP sharded_total A sharded counter.
# TYPE sharded_total counter
sharded_total 128
# HELP zz_last_total Sorts last.
# TYPE zz_last_total counter
zz_last_total 7
`
	// Phase lines carry live wall-clock values; split them off and check
	// the metric block exactly, the phase block structurally.
	idx := strings.Index(got, "# HELP obs_phase_wall_ns_total")
	if idx < 0 {
		t.Fatalf("missing phase exposition in:\n%s", got)
	}
	if got[:idx] != want {
		t.Errorf("metric exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got[:idx], want)
	}
	phases := got[idx:]
	for _, line := range []string{
		`# TYPE obs_phase_wall_ns_total counter`,
		`obs_phase_wall_ns_total{phase="run"} `,
		`obs_phase_spans_total{phase="run"} 1`,
	} {
		if !strings.Contains(phases, line) {
			t.Errorf("phase exposition missing %q in:\n%s", line, phases)
		}
	}
}

// TestNilSafety drives every nil-receiver path: the disabled-obs
// configuration must cost one nil check, never a panic.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("c", "").Inc()
	r.Gauge("g", "").Set(1)
	r.GaugeFunc("f", "", func() float64 { return 1 })
	r.ShardedCounter("s", "", 8).Add(3, 1)
	r.Histogram("h", "", []int64{1}, 8).Observe(0, 5)
	r.Span("x").End()
	if v := r.Counter("c", "").Value(); v != 0 {
		t.Fatalf("nil counter value = %d", v)
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Phases) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
}

// TestGetOrCreate checks that re-registration returns the same
// instance (shared sweep registry) and that a type clash panics.
func TestGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "h")
	b := r.Counter("x_total", "h")
	if a != b {
		t.Fatal("re-registered counter is a different instance")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering as a different type did not panic")
		}
	}()
	r.Gauge("x_total", "h")
}

// TestShardedCounterExact checks writer folding keeps counts exact for
// writer counts beyond the shard cap.
func TestShardedCounterExact(t *testing.T) {
	r := NewRegistry()
	writers := 3 * maxShards
	sc := r.ShardedCounter("wide_total", "", writers)
	for w := 0; w < writers; w++ {
		sc.Add(w, 1)
	}
	if v := sc.Value(); v != int64(writers) {
		t.Fatalf("merged value = %d, want %d", v, writers)
	}
}

// TestHistogramBuckets checks bucket assignment at the boundaries and
// the cumulative merge.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", ExpBuckets(1, 2, 3), 4) // bounds 1,2,4
	for _, v := range []int64{0, 1, 2, 3, 4, 5} {
		h.Observe(int(v), int64(v))
	}
	cum, count, sum := h.merged()
	if count != 6 || sum != 15 {
		t.Fatalf("count=%d sum=%d, want 6/15", count, sum)
	}
	// cumulative: ≤1: {0,1}=2, ≤2: +{2}=3, ≤4: +{3,4}=5, +Inf: +{5}=6
	want := []int64{2, 3, 5, 6}
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cum=%v, want %v", cum, want)
		}
	}
}

// TestConcurrentWritesAndScrapes hammers one registry from writer and
// scraper goroutines; meaningful under -race (the mid-sweep scrape
// case), and checks the merged totals afterwards.
func TestConcurrentWritesAndScrapes(t *testing.T) {
	r := NewRegistry()
	const writers, perWriter = 8, 1000
	sc := r.ShardedCounter("hammer_total", "", writers)
	h := r.Histogram("hammer_hist", "", ExpBuckets(1, 4, 6), writers)
	c := r.Counter("plain_total", "")
	stop := make(chan struct{})
	var scrapes sync.WaitGroup
	scrapes.Add(2)
	for s := 0; s < 2; s++ {
		go func() {
			defer scrapes.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var sb strings.Builder
				if err := r.WritePrometheus(&sb); err != nil {
					t.Error(err)
					return
				}
				r.Snapshot()
			}
		}()
	}
	var wg sync.WaitGroup
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				sc.Add(w, 1)
				h.Observe(w, int64(i%100))
				c.Inc()
				r.Span("run").End()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	scrapes.Wait()
	if v := sc.Value(); v != writers*perWriter {
		t.Fatalf("sharded total = %d, want %d", v, writers*perWriter)
	}
	if v := c.Value(); v != writers*perWriter {
		t.Fatalf("plain total = %d, want %d", v, writers*perWriter)
	}
	if n := h.Count(); n != writers*perWriter {
		t.Fatalf("hist count = %d, want %d", n, writers*perWriter)
	}
	snap := r.Snapshot()
	ph := snap.Phases["run"]
	if ph.Spans != writers*perWriter {
		t.Fatalf("phase spans=%d, want %d", ph.Spans, writers*perWriter)
	}
}

// TestSpanWall sanity-checks span wall accumulation.
func TestSpanWall(t *testing.T) {
	r := NewRegistry()
	sp := r.Span("p")
	time.Sleep(2 * time.Millisecond)
	sp.End()
	if w := r.Snapshot().Phases["p"].WallNs; w < int64(time.Millisecond) {
		t.Fatalf("span wall = %dns, want >= 1ms", w)
	}
}

// TestExpBuckets pins the generator.
func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(64, 4, 4)
	want := []int64{64, 256, 1024, 4096}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}
