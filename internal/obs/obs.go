// Package obs is the deterministic-safe observability subsystem: live
// counters, gauges and histograms sharded per rank (the same lock-free
// shard pattern as internal/trace's per-rank buffers — every writer owns
// its slot, merges happen at read time), named phase spans (setup / run /
// drain / merge) with wall-clock timing, and the scrape surfaces built on
// top: a Prometheus text exposition (server.go: /metrics), an NDJSON
// sweep-progress stream (/progress), and a merged JSON snapshot
// (workbench -metrics-out).
//
// # Observe, never perturb
//
// Nothing in this package may influence a simulation result. Metrics
// measure *host* behaviour (wall-clock time, queue depths, goroutine
// counts); virtual-time decisions never read them, and metric values
// never enter workload.Report.Extra or report fingerprints — with obs
// enabled or disabled, every report is byte-identical (test-enforced,
// see internal/workload's obs tests).
//
// # Cost model
//
// Every instrumentation site holds a possibly-nil metric pointer and
// all metric methods are nil-receiver-safe, so the disabled path costs
// one predictable nil check — exactly the trace.Buf pattern. The
// scheduler's lock-free Advance fast path is not instrumented at all:
// with obs off or on it is byte-for-byte the same code
// (BenchmarkAdvanceUncontended stays ~1.6ns / 0 allocs).
//
// Reads (scrapes) may run concurrently with writes: all cells are
// atomics, so a mid-run /metrics scrape sees a consistent-enough view
// without stopping a single simulation goroutine.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// maxShards caps the shard count of per-rank sharded metrics. Ranks are
// folded onto shards by index masking, so counts stay exact at any P;
// beyond this many shards the cache-line padding would cost real memory
// (64B × shards × metrics) without buying contention relief the host's
// core count can use.
const maxShards = 4096

// Registry is a metric container: a named set of counters, gauges and
// histograms plus the phase table. It is the handle threaded through
// the stack (workload.Spec.Obs, sweep.Grid.Obs, jobq.Config.Obs); sweep
// grids share one across all cells (every instrument is
// concurrency-safe and merge-by-sum). All methods are safe for
// concurrent use, and every method is nil-receiver-safe — a nil
// *Registry hands out nil metrics and no-op spans, so observability is
// off at one nil check per site and call sites need no obs-on
// conditionals.
//
// Metric constructors are get-or-create: asking for an existing name
// with the same type returns the registered instance (parallel sweep
// cells share one registry), and with a different type panics (a
// programming error, like prometheus.MustRegister).
type Registry struct {
	mu      sync.Mutex
	metrics map[string]metric
	phases  map[string]*phaseStat
}

// NewRegistry creates an empty metric registry.
func NewRegistry() *Registry {
	return &Registry{
		metrics: make(map[string]metric),
		phases:  make(map[string]*phaseStat),
	}
}

// metric is the common surface of every registered instrument.
type metric interface {
	metricName() string
	metricHelp() string
	metricType() string // "counter" | "gauge" | "histogram"
	// expose writes the exposition sample lines (not the HELP/TYPE
	// header) in Prometheus text format.
	expose(w io.Writer)
	// snap folds the merged value(s) into a Snapshot.
	snap(s *Snapshot)
}

// register implements get-or-create under the registry lock. make is
// only called when the name is new.
func (r *Registry) register(name, typ string, make func() metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.metricType() != typ {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, typ, m.metricType()))
		}
		return m
	}
	m := make()
	r.metrics[name] = m
	return m
}

// Counter returns the named monotonically-increasing counter,
// registering it on first use. Nil registries return a nil counter
// (whose methods no-op).
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, "counter", func() metric {
		return &Counter{nm: name, hp: help}
	}).(*Counter)
}

// Gauge returns the named settable gauge, registering it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, "gauge", func() metric {
		return &Gauge{nm: name, hp: help}
	}).(*Gauge)
}

// GaugeFunc registers a gauge whose value is computed at scrape time by
// fn (e.g. a live goroutine count, or a ratio of two counters). fn must
// be safe for concurrent calls. Re-registering the same name keeps the
// first function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(name, "gauge", func() metric {
		return &gaugeFunc{nm: name, hp: help, fn: fn}
	})
}

// CounterFunc registers a counter whose value is read at scrape time by
// fn — for subsystems that already keep their own atomic totals (the
// result cache's hit/miss/eviction counts) and only need an exposition.
// fn must be monotonic and safe for concurrent calls. Re-registering
// the same name keeps the first function.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	if r == nil {
		return
	}
	r.register(name, "counter", func() metric {
		return &counterFunc{nm: name, hp: help, fn: fn}
	})
}

// ShardedCounter returns the named counter sharded for the given writer
// count (typically the rank count P), registering it on first use.
// Writer i adds through shard i&mask without contending with other
// writers: each shard is one cache-line-padded atomic, the per-rank
// pattern of trace's buffers. Counts are exact for any writer count; only
// contention relief degrades past maxShards.
// Get-or-create keeps the first shard sizing (values stay exact).
func (r *Registry) ShardedCounter(name, help string, writers int) *ShardedCounter {
	if r == nil {
		return nil
	}
	return r.register(name, "counter", func() metric {
		return newShardedCounter(name, help, writers)
	}).(*ShardedCounter)
}

// Histogram returns the named histogram with the given upper bucket
// bounds (ascending; an implicit +Inf bucket is appended) sharded for
// the given writer count, registering it on first use.
func (r *Registry) Histogram(name, help string, bounds []int64, writers int) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, "histogram", func() metric {
		return newHistogram(name, help, bounds, writers)
	}).(*Histogram)
}

// Counter is a monotonically-increasing atomic counter.
type Counter struct {
	nm, hp string
	v      atomic.Int64
}

// Add increments the counter by d; no-op on a nil counter.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Inc increments the counter by one; no-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) metricName() string { return c.nm }
func (c *Counter) metricHelp() string { return c.hp }
func (c *Counter) metricType() string { return "counter" }
func (c *Counter) expose(w io.Writer) {
	fmt.Fprintf(w, "%s %d\n", c.nm, c.Value())
}
func (c *Counter) snap(s *Snapshot) { s.Counters[c.nm] = c.Value() }

// Gauge is a settable instantaneous value.
type Gauge struct {
	nm, hp string
	v      atomic.Int64
}

// Set replaces the gauge value; no-op on a nil gauge.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by d; no-op on a nil gauge.
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

func (g *Gauge) metricName() string { return g.nm }
func (g *Gauge) metricHelp() string { return g.hp }
func (g *Gauge) metricType() string { return "gauge" }
func (g *Gauge) expose(w io.Writer) {
	fmt.Fprintf(w, "%s %d\n", g.nm, g.Value())
}
func (g *Gauge) snap(s *Snapshot) { s.Gauges[g.nm] = float64(g.Value()) }

// gaugeFunc is a gauge computed at read time.
type gaugeFunc struct {
	nm, hp string
	fn     func() float64
}

func (g *gaugeFunc) metricName() string { return g.nm }
func (g *gaugeFunc) metricHelp() string { return g.hp }
func (g *gaugeFunc) metricType() string { return "gauge" }
func (g *gaugeFunc) expose(w io.Writer) {
	fmt.Fprintf(w, "%s %s\n", g.nm, fmtFloat(g.fn()))
}
func (g *gaugeFunc) snap(s *Snapshot) { s.Gauges[g.nm] = g.fn() }

// counterFunc is a counter read from an external atomic at scrape time.
type counterFunc struct {
	nm, hp string
	fn     func() int64
}

func (c *counterFunc) metricName() string { return c.nm }
func (c *counterFunc) metricHelp() string { return c.hp }
func (c *counterFunc) metricType() string { return "counter" }
func (c *counterFunc) expose(w io.Writer) {
	fmt.Fprintf(w, "%s %d\n", c.nm, c.fn())
}
func (c *counterFunc) snap(s *Snapshot) { s.Counters[c.nm] = c.fn() }

// shard is one cache-line-padded atomic cell: writers on different
// shards never share a line, the point of the per-rank pattern.
type shard struct {
	v atomic.Int64
	_ [56]byte
}

// shardCount rounds the writer count up to a power of two capped at
// maxShards, so writer→shard folding is a mask.
func shardCount(writers int) int {
	n := 1
	for n < writers && n < maxShards {
		n <<= 1
	}
	return n
}

// ShardedCounter is a counter whose increments spread over padded
// per-writer shards; reads merge the shards.
type ShardedCounter struct {
	nm, hp string
	mask   int
	shards []shard
}

func newShardedCounter(name, help string, writers int) *ShardedCounter {
	n := shardCount(writers)
	return &ShardedCounter{nm: name, hp: help, mask: n - 1, shards: make([]shard, n)}
}

// Add increments the counter by d through writer's shard; no-op on a
// nil counter. writer is typically the simulated rank.
func (c *ShardedCounter) Add(writer int, d int64) {
	if c != nil {
		c.shards[writer&c.mask].v.Add(d)
	}
}

// Value merges the shards into the current total (0 on nil).
func (c *ShardedCounter) Value() int64 {
	if c == nil {
		return 0
	}
	var t int64
	for i := range c.shards {
		t += c.shards[i].v.Load()
	}
	return t
}

func (c *ShardedCounter) metricName() string { return c.nm }
func (c *ShardedCounter) metricHelp() string { return c.hp }
func (c *ShardedCounter) metricType() string { return "counter" }
func (c *ShardedCounter) expose(w io.Writer) {
	fmt.Fprintf(w, "%s %d\n", c.nm, c.Value())
}
func (c *ShardedCounter) snap(s *Snapshot) { s.Counters[c.nm] = c.Value() }

// Histogram counts observations into fixed buckets, sharded per writer
// like ShardedCounter. Bounds are int64 because every observed quantity
// here is a nanosecond duration or a queue depth.
type Histogram struct {
	nm, hp string
	bounds []int64
	mask   int
	// cells is laid out shard-major: shard s owns
	// cells[s*(len(bounds)+2) : (s+1)*(len(bounds)+2)], the bucket
	// counts followed by the +Inf count and the value sum. Shards are
	// padded out to whole cache lines by construction (stride rounded
	// up below would over-engineer: one simulation writes a few dozen
	// histogram points per grant, not per Advance).
	cells []atomic.Int64
}

func newHistogram(name, help string, bounds []int64, writers int) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending: %v", name, bounds))
		}
	}
	n := shardCount(writers)
	b := append([]int64(nil), bounds...)
	return &Histogram{
		nm: name, hp: help, bounds: b, mask: n - 1,
		cells: make([]atomic.Int64, n*(len(b)+2)),
	}
}

// Observe records v through writer's shard; no-op on a nil histogram.
func (h *Histogram) Observe(writer int, v int64) {
	if h == nil {
		return
	}
	stride := len(h.bounds) + 2
	base := (writer & h.mask) * stride
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.cells[base+i].Add(1)               // bucket (or the +Inf slot at len(bounds))
	h.cells[base+len(h.bounds)+1].Add(v) // sum
}

// merged returns cumulative bucket counts (one per bound plus +Inf),
// the total count and the value sum.
func (h *Histogram) merged() (cum []int64, count, sum int64) {
	if h == nil {
		return nil, 0, 0
	}
	stride := len(h.bounds) + 2
	raw := make([]int64, len(h.bounds)+1)
	for s := 0; s <= h.mask; s++ {
		base := s * stride
		for i := range raw {
			raw[i] += h.cells[base+i].Load()
		}
		sum += h.cells[base+len(h.bounds)+1].Load()
	}
	cum = make([]int64, len(raw))
	for i, c := range raw {
		count += c
		cum[i] = count
	}
	return cum, count, sum
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	_, n, _ := h.merged()
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 {
	_, _, s := h.merged()
	return s
}

func (h *Histogram) metricName() string { return h.nm }
func (h *Histogram) metricHelp() string { return h.hp }
func (h *Histogram) metricType() string { return "histogram" }
func (h *Histogram) expose(w io.Writer) {
	cum, count, sum := h.merged()
	for i, b := range h.bounds {
		fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", h.nm, b, cum[i])
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.nm, cum[len(cum)-1])
	fmt.Fprintf(w, "%s_sum %d\n", h.nm, sum)
	fmt.Fprintf(w, "%s_count %d\n", h.nm, count)
}
func (h *Histogram) snap(s *Snapshot) {
	cum, count, sum := h.merged()
	hs := HistogramSnapshot{Count: count, Sum: sum}
	for i, b := range h.bounds {
		hs.Buckets = append(hs.Buckets, BucketSnapshot{Le: strconv.FormatInt(b, 10), Count: cum[i]})
	}
	hs.Buckets = append(hs.Buckets, BucketSnapshot{Le: "+Inf", Count: cum[len(cum)-1]})
	s.Histograms[h.nm] = hs
}

// ExpBuckets returns bounds start, start*factor, ... (n bounds), the
// usual shape for nanosecond-duration and depth histograms.
func ExpBuckets(start, factor int64, n int) []int64 {
	b := make([]int64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// phaseStat accumulates one named phase: how many spans completed and the
// cumulative wall-clock nanoseconds across them.
type phaseStat struct {
	spans  atomic.Int64
	wallNs atomic.Int64
}

// Span is one in-flight phase span. The zero Span (from a nil registry)
// no-ops. Spans on the same phase may overlap freely (parallel sweep
// cells each open their own); wall time accumulates per span, so
// overlapping spans sum CPU-style rather than eliding overlap.
type Span struct {
	st *phaseStat
	t0 time.Time
}

// Span opens a span on the named phase. End closes it.
func (r *Registry) Span(name string) Span {
	if r == nil {
		return Span{}
	}
	r.mu.Lock()
	st, ok := r.phases[name]
	if !ok {
		st = &phaseStat{}
		r.phases[name] = st
	}
	r.mu.Unlock()
	return Span{st: st, t0: time.Now()}
}

// End closes the span, accumulating its wall time into the phase.
func (s Span) End() {
	if s.st == nil {
		return
	}
	s.st.spans.Add(1)
	s.st.wallNs.Add(time.Since(s.t0).Nanoseconds())
}

// PhaseSnapshot is one phase's merged totals.
type PhaseSnapshot struct {
	Spans  int64 `json:"spans"`
	WallNs int64 `json:"wall_ns"`
}

// BucketSnapshot is one histogram bucket's cumulative count.
type BucketSnapshot struct {
	Le    string `json:"le"`
	Count int64  `json:"count"`
}

// HistogramSnapshot is one histogram's merged state.
type HistogramSnapshot struct {
	Buckets []BucketSnapshot `json:"buckets"`
	Count   int64            `json:"count"`
	Sum     int64            `json:"sum"`
}

// Snapshot is the merged post-run view of a registry, the side-channel
// payload of `workbench -metrics-out`. Maps marshal with sorted keys,
// so the JSON layout is deterministic (values are host wall-clock
// measurements and are not).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Phases     map[string]PhaseSnapshot     `json:"phases,omitempty"`
}

// Snapshot merges every metric and phase into a Snapshot (empty on a
// nil registry).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
		Phases:     map[string]PhaseSnapshot{},
	}
	if r == nil {
		return s
	}
	for _, m := range r.sorted() {
		m.snap(&s)
	}
	r.mu.Lock()
	for name, st := range r.phases {
		s.Phases[name] = PhaseSnapshot{Spans: st.spans.Load(), WallNs: st.wallNs.Load()}
	}
	r.mu.Unlock()
	return s
}

// sorted returns the registered metrics in name order (the stable
// scrape order the golden exposition test pins).
func (r *Registry) sorted() []metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]metric, len(names))
	for i, n := range names {
		out[i] = r.metrics[n]
	}
	return out
}

// WritePrometheus writes the registry in Prometheus text exposition
// format (version 0.0.4): metrics in name order, each with HELP and
// TYPE headers, then the phase table as two labeled counter families.
// Metric names and label sets are stable across runs (test-pinned);
// values are live.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if r != nil {
		for _, m := range r.sorted() {
			fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", m.metricName(), m.metricHelp(), m.metricName(), m.metricType())
			m.expose(bw)
		}
		r.exposePhases(bw)
	}
	return bw.Flush()
}

// exposePhases renders the phase table: cumulative wall ns and span
// counts per phase, labeled by phase name in sorted order.
func (r *Registry) exposePhases(w io.Writer) {
	r.mu.Lock()
	names := make([]string, 0, len(r.phases))
	for n := range r.phases {
		names = append(names, n)
	}
	sort.Strings(names)
	stats := make([]*phaseStat, len(names))
	for i, n := range names {
		stats[i] = r.phases[n]
	}
	r.mu.Unlock()
	if len(names) == 0 {
		return
	}
	fmt.Fprintf(w, "# HELP obs_phase_wall_ns_total Cumulative wall-clock nanoseconds per phase span.\n# TYPE obs_phase_wall_ns_total counter\n")
	for i, n := range names {
		fmt.Fprintf(w, "obs_phase_wall_ns_total{phase=%q} %d\n", n, stats[i].wallNs.Load())
	}
	fmt.Fprintf(w, "# HELP obs_phase_spans_total Completed spans per phase.\n# TYPE obs_phase_spans_total counter\n")
	for i, n := range names {
		fmt.Fprintf(w, "obs_phase_spans_total{phase=%q} %d\n", n, stats[i].spans.Load())
	}
}

// fmtFloat renders a gauge value the way Prometheus expects: shortest
// round-trip representation.
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
