// Package obs is the deterministic-safe observability subsystem: live
// atomic counters, counters and gauges read from their owner at
// scrape time, named phase spans (setup / run / drain / merge) with
// wall-clock timing, and the scrape surfaces built on top: a Prometheus
// text exposition (server.go: /metrics), an NDJSON sweep-progress
// stream (/progress), and a merged JSON snapshot (workbench
// -metrics-out).
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
// Reads (scrapes) may run concurrently with writes: all values are
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

// Registry is a metric container: a named set of counters and gauges
// plus the phase table. It is the handle threaded through the stack
// (workload.Spec.Obs, sweep.Grid.Obs, jobq.Config.Obs); sweep grids
// share one across all cells (every instrument is concurrency-safe and
// sums over the cells). All methods are safe for concurrent use, and every
// method is nil-receiver-safe — a nil *Registry hands out nil metrics
// and no-op spans, so observability is off at one nil check per site
// and call sites need no obs-on conditionals.
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
	metricType() string // "counter" | "gauge"
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

// Counter returns the named counter, registering it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, "counter", func() metric {
		return &Counter{nm: name, hp: help}
	}).(*Counter)
}

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

// Counter is one atomic total. Its concurrent writers are a sweep's
// workers, one cell each: the ranks of a cell run one at a time.
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

// Value is the current total (0 on nil).
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

// Snapshot is the merged post-run view of a registry, the side-channel
// payload of `workbench -metrics-out`. Maps marshal with sorted keys,
// so the JSON layout is deterministic (values are host wall-clock
// measurements and are not).
type Snapshot struct {
	Counters map[string]int64         `json:"counters,omitempty"`
	Gauges   map[string]float64       `json:"gauges,omitempty"`
	Phases   map[string]PhaseSnapshot `json:"phases,omitempty"`
}

// Snapshot merges every metric and phase into a Snapshot (empty on a
// nil registry).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters: map[string]int64{},
		Gauges:   map[string]float64{},
		Phases:   map[string]PhaseSnapshot{},
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
