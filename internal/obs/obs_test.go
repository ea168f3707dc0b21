package obs

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWritePrometheusGolden pins the exposition byte-for-byte on a
// registry with known values: metric names, HELP/TYPE headers, label
// sets and ordering are API surface — a scraper's dashboard breaks if
// they drift silently.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("zz_last_total", "Sorts last.", func() int64 { return 7 })
	r.CounterFunc("aa_first_total", "Sorts first.", func() int64 { return 3 })
	r.GaugeFunc("mid_gauge", "A negative gauge.", func() float64 { return -4 })
	r.GaugeFunc("mid_ratio", "A derived gauge.", func() float64 { return 0.25 })
	sc := r.ShardedCounter("sharded_total", "A sharded counter.", 64)
	for w := 0; w < 64; w++ {
		sc.Add(w, 2)
	}
	r.Span("run").End() // wall ns is live; pin only names below

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()

	want := `# HELP aa_first_total Sorts first.
# TYPE aa_first_total counter
aa_first_total 3
# HELP mid_gauge A negative gauge.
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
	r.CounterFunc("c", "", func() int64 { return 1 })
	r.GaugeFunc("f", "", func() float64 { return 1 })
	r.ShardedCounter("s", "", 8).Add(3, 1)
	r.Span("x").End()
	if v := r.ShardedCounter("s", "", 8).Value(); v != 0 {
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
// instance (shared sweep registry), that a re-registered func keeps the
// first function, and that a type clash panics.
func TestGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.ShardedCounter("x_total", "h", 4)
	b := r.ShardedCounter("x_total", "h", 64)
	if a != b {
		t.Fatal("re-registered counter is a different instance")
	}
	r.CounterFunc("f_total", "h", func() int64 { return 1 })
	r.CounterFunc("f_total", "h", func() int64 { return 2 })
	if v := r.Snapshot().Counters["f_total"]; v != 1 {
		t.Fatalf("re-registered func reads %d, want the first function's 1", v)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering as a different type did not panic")
		}
	}()
	r.GaugeFunc("x_total", "h", func() float64 { return 0 })
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

// TestConcurrentWritesAndScrapes hammers one registry from writer and
// scraper goroutines; meaningful under -race (the mid-sweep scrape
// case), and checks the merged totals afterwards.
func TestConcurrentWritesAndScrapes(t *testing.T) {
	r := NewRegistry()
	const writers, perWriter = 8, 1000
	sc := r.ShardedCounter("hammer_total", "", writers)
	var plain atomic.Int64
	r.CounterFunc("plain_total", "", plain.Load)
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
				plain.Add(1)
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
	snap := r.Snapshot()
	if v := snap.Counters["plain_total"]; v != writers*perWriter {
		t.Fatalf("plain total = %d, want %d", v, writers*perWriter)
	}
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
