// Command workbench drives the unified workload subsystem through the
// host-parallel sweep engine (internal/sweep): it enumerates a
// scheme × workload × profile × P grid, executes the cells on a bounded
// worker pool, and prints one aligned result table (or CSV) merged in
// canonical cell order — byte-identical for any -j.
//
// Usage:
//
//	workbench                               # all 5 schemes × empty CS × uniform,zipf,bursty
//	workbench -profiles all -ps 16,32,64,128,256,512   # the paper's P sweep
//	workbench -schemes RMA-RW,foMPI-RW -workloads dht -fw 0.2 -locks 8
//	workbench -schemes RMA-RW -tune TR=250,500,1000 -tune TL2=16,32
//	                                        # sweep the paper's lock parameter space
//	workbench -schemes foMPI-A,foMPI-RW,RMA-RW -workloads dhtvol -profiles uniform -p 16
//	                                        # the paper's DHT evaluation (Fig. 6): foMPI-A
//	                                        # runs no lock, the hashtable's atomics instead
//	workbench -faults 'jitter=0.2,stragglers=4x1%,stall=50us@0.01'
//	                                        # fault axis: each profile next to a fault-free
//	                                        # baseline cell, with degradation metrics derived
//	workbench -schemes foMPI-Spin -faults 'stall=100us@0.1,timeout=200us'
//	                                        # bounded acquires (CapTimeout schemes only)
//	workbench -p 128 -iters 100 -seed 3 -check -csv -j 4
//	workbench -out results/sweep.json       # persist the run (cmp-equal for any -j)
//	workbench -schemes RMA-MCS -p 32 -trace out.json   # capture + export a trace
//	                                        # (Perfetto-loadable) and print its analysis:
//	                                        # fairness, handoff locality, wait tails
//	workbench -submit http://127.0.0.1:9139 -out results/sweep.json
//	                                        # run the grid on a sweepd daemon: streams
//	                                        # progress, fetches the byte-stable result
//
// Every run is a deterministic function of the seed; -check re-runs each
// cell and verifies the reports are byte-identical. The flags only spell
// a sweep.Grid: Grid.Cells decides whether it names something to run
// (an unknown name, an empty list, a P below 1, a -tune key or a
// -faults profile no listed scheme takes exit 2), as it does for grids
// posted to sweepd.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"rmalocks/internal/stats"
	"rmalocks/internal/sweep"
	"rmalocks/internal/topology"
	"rmalocks/internal/trace"
	"rmalocks/internal/workload"
)

// runOpts carries the parsed, validated flags into run.
type runOpts struct {
	grid             sweep.Grid
	jobs             int
	check, csv       bool
	out              string
	cpuprof, memprof string
	trace, tracecsv  string
	listen           string
	metricsOut       string
}

func main() {
	var (
		schemes    = flag.String("schemes", "all", "comma-separated lock schemes (registry names or aliases, or "+workload.SchemeFoMPIA+": no lock, DHT workloads only), or 'all' ("+strings.Join(workload.Schemes, ",")+")")
		workloads  = flag.String("workloads", "empty", "comma-separated workloads, or 'all' ("+strings.Join(workload.WorkloadNames, ",")+")")
		profiles   = flag.String("profiles", "uniform,zipf,bursty", "comma-separated contention profiles, or 'all' ("+strings.Join(workload.ProfileNames, ",")+")")
		p          = flag.Int("p", 64, "process count (ignored when -ps is set)")
		psFlag     = flag.String("ps", "", "comma-separated process-count sweep, e.g. 16,32,64,128,256,512")
		ppn        = flag.Int("ppn", 16, "processes per node")
		iters      = flag.Int("iters", 50, "measured cycles per process")
		seed       = flag.Int64("seed", 1, "machine seed (runs are deterministic per seed)")
		fw         = flag.Float64("fw", 0.1, "writer fraction (the sweep profile sweeps 0→fw, or 0→1 when fw is 0)")
		nlocks     = flag.Int("locks", 8, "lock-set size for multi-lock profiles (clamped to p for dht)")
		zipfS      = flag.Float64("zipfs", 1.2, "Zipf skew exponent")
		jobs       = flag.Int("j", 0, "worker pool size (0 = GOMAXPROCS; 1 = serial)")
		check      = flag.Bool("check", false, "run every cell twice and verify byte-identical reports")
		csv        = flag.Bool("csv", false, "emit CSV instead of an aligned table")
		out        = flag.String("out", "", "persist the run as JSON (e.g. results/sweep.json)")
		engine     = flag.String("engine", "", "scheduler engine: '' or 'fast' (token-owned fast path), 'ref' (reference; differential runs)")
		cpuprof    = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file (go tool pprof)")
		memprof    = flag.String("memprofile", "", "write a heap profile (after GC) to this file on exit")
		traceOut   = flag.String("trace", "", "capture event traces, export Chrome trace-event JSON (Perfetto-loadable) and print each traced cell's analysis to stderr; multi-cell grids get one file per cell. Holds the sched, rma and lock events; token hand-offs (dispatch) are a charge-class diagnostic and are not captured")
		tracecsv   = flag.String("tracecsv", "", "capture event traces, export raw event CSV and print each traced cell's analysis to stderr; multi-cell grids get one file per cell")
		listen     = flag.String("listen", "", "serve the observability plane on this address (e.g. :0 or 127.0.0.1:9137): /metrics (Prometheus), /progress (NDJSON; ?follow=1 streams), /debug/pprof")
		submit     = flag.String("submit", "", "submit the grid to a sweepd daemon (e.g. http://127.0.0.1:9139) instead of computing locally: streams progress, fetches the byte-stable result (works with -out/-csv; never falls back to a local run)")
		metricsOut = flag.String("metrics-out", "", "write the merged post-run metrics snapshot (counters, gauges incl. process heap/sys bytes, phase spans) as JSON to this file — a side channel, never part of reports or fingerprints")
	)
	var tunes tuneAxes
	flag.Var(&tunes, "tune", "tunables axis KEY=v1,v2,... (repeatable, e.g. -tune TR=250,500,1000 -tune TL2=16,32); cross-product applied to schemes accepting KEY")
	var faults faultAxes
	flag.Var(&faults, "faults", "fault-injection profile 'jitter=0.2,stragglers=4x1%,stall=50us@0.01,timeout=200us' (repeatable; each profile becomes an extra cell next to a fault-free baseline cell)")
	flag.Parse()

	ps, err := parsePs(*psFlag, *p)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// Flags whose zero value is meaningful must not be re-defaulted by
	// the grid: -seed 0 and -zipfs 0 set the explicit-zero markers so
	// Grid.fill leaves them alone (see Grid's zero-value semantics).
	var seedSet, zipfSSet bool
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed":
			seedSet = true
		case "zipfs":
			zipfSSet = true
		}
	})

	opts := runOpts{
		grid: sweep.Grid{
			Schemes:   splitList(*schemes, workload.Schemes),
			Workloads: splitList(*workloads, workload.WorkloadNames),
			Profiles:  splitList(*profiles, workload.ProfileNames),
			Ps:        ps,
			Iters:     *iters, ProcsPerNode: *ppn, Seed: *seed, SeedSet: seedSet,
			FW: *fw, Locks: *nlocks, ZipfS: *zipfS, ZipfSSet: zipfSSet, Engine: *engine,
			Tunables: tunes,
			Faults:   faults,
		},
		jobs: *jobs, check: *check, csv: *csv, out: *out,
		cpuprof: *cpuprof, memprof: *memprof,
		trace: *traceOut, tracecsv: *tracecsv,
		listen: *listen, metricsOut: *metricsOut,
	}
	if opts.trace != "" || opts.tracecsv != "" {
		// Tracing a sweep fills the per-cell Jain/locality columns and
		// keeps each cell's raw sink for export.
		opts.grid.Trace = trace.ClassSemantic
	}
	// The grid is checked before profiling starts or anything is
	// submitted: one that would run nothing, or something other than
	// what the flags name, is a usage error.
	if _, err := opts.grid.Cells(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *submit != "" {
		// Client mode: the daemon computes; local-only modes are
		// rejected eagerly rather than silently ignored or run locally.
		if err := checkSubmitFlags(opts); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		os.Exit(runSubmit(*submit, opts, gridTitle(opts.grid)))
	}
	// The work happens inside run so that its deferred profile writers
	// always execute; os.Exit only fires out here, after they flushed.
	os.Exit(run(opts))
}

// gridTitle renders the run label shared by local tables, run files,
// and daemon submissions.
func gridTitle(grid sweep.Grid) string {
	title := fmt.Sprintf("Workload grid: Ps=%v ppn=%d iters=%d seed=%d fw=%g",
		grid.Ps, grid.ProcsPerNode, grid.Iters, grid.Seed, grid.FW)
	if axes := (tuneAxes)(grid.Tunables); len(axes) > 0 {
		title += " tune[" + axes.String() + "]"
	}
	if axes := (faultAxes)(grid.Faults); len(axes) > 0 {
		title += " faults[" + axes.String() + "]"
	}
	return title
}

func run(opts runOpts) int {
	if opts.cpuprof != "" {
		f, err := os.Create(opts.cpuprof)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(os.Stderr, "[cpu profile written to %s]\n", opts.cpuprof)
		}()
	}
	if opts.memprof != "" {
		defer func() {
			f, err := os.Create(opts.memprof)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retention
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			fmt.Fprintf(os.Stderr, "[heap profile written to %s]\n", opts.memprof)
		}()
	}

	grid := opts.grid
	title := gridTitle(grid)

	var plane *obsPlane
	if opts.listen != "" || opts.metricsOut != "" {
		var err error
		if plane, err = newObsPlane(opts.listen, title); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer plane.close()
		grid.Obs = plane.grid()
	}

	start := time.Now()
	cells, err := grid.Cells()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2 // the flags name a grid that does not enumerate
	}
	results, err := sweep.Run(cells, sweep.Options{Workers: opts.jobs, Check: opts.check, Progress: plane.progress()})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	mergeSpan := plane.span("merge")

	tb := sweep.Table(title, results)
	if opts.csv {
		fmt.Printf("# %s\n%s", tb.Title, tb.CSV())
	} else {
		fmt.Println(tb.String())
	}
	fmt.Fprintln(os.Stderr, summary(results, time.Since(start), opts.check))

	if opts.out != "" {
		if err := sweep.Save(opts.out, sweep.RunFile{Label: title, Cells: results}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "[run saved to %s]\n", opts.out)
	}
	mergeSpan.End()
	if opts.metricsOut != "" {
		if err := plane.writeMetrics(opts.metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if opts.trace != "" {
		if err := exportTraces(opts.trace, results, grid.ProcsPerNode, true); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if opts.tracecsv != "" {
		if err := exportTraces(opts.tracecsv, results, grid.ProcsPerNode, false); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	for _, r := range results {
		if r.Trace != nil {
			printAnalysis(os.Stderr, r, grid.ProcsPerNode)
		}
	}
	return 0
}

// summary is the line that closes a local run: how many cells, how long,
// how many of them were taken from a sibling's run instead of simulated
// (sweep.Run), and what was verified.
func summary(results []sweep.CellResult, took time.Duration, check bool) string {
	line := fmt.Sprintf("[%d cells in %v", len(results), took.Round(time.Millisecond))
	derived := 0
	for _, r := range results {
		if r.Derived {
			derived++
		}
	}
	if derived > 0 {
		line += fmt.Sprintf("; %d from a sibling's run", derived)
	}
	if check {
		return line + "; all cells reproduced byte-identically]"
	}
	return line + "; deterministic per seed (re-run with -check to verify)]"
}

// exportTraces writes one trace file per traced cell: the given path
// for a single-cell grid, otherwise the path with an index + cell-key
// slug inserted before the extension. chrome selects the trace-event
// JSON exporter (Perfetto), otherwise raw event CSV.
func exportTraces(path string, results []sweep.CellResult, ppn int, chrome bool) error {
	traced := results[:0:0]
	for _, r := range results {
		if r.Trace != nil {
			traced = append(traced, r)
		}
	}
	if len(traced) == 0 {
		return fmt.Errorf("workbench: no traced cells to export to %s", path)
	}
	for i, r := range traced {
		p := path
		if len(traced) > 1 {
			ext := filepath.Ext(path)
			name := fmt.Sprintf("%s_%s_%s_P%d", r.Key.Scheme, r.Key.Workload, r.Key.Profile, r.Key.P)
			if r.Key.Tunables != "" {
				name += "_" + r.Key.Tunables
			}
			if r.Key.Faults != "" {
				name += "_faults_" + r.Key.Faults
			}
			slug := strings.NewReplacer("/", "-", " ", "", ",", "_", "=", "").Replace(name)
			p = fmt.Sprintf("%s_%02d_%s%s", strings.TrimSuffix(path, ext), i, slug, ext)
		}
		f, err := os.Create(p)
		if err != nil {
			return err
		}
		events := r.Trace.Events()
		if chrome {
			err = trace.WriteChrome(f, events, trace.Meta{Label: r.Key.String(), P: r.Key.P, PPN: ppn})
		} else {
			err = trace.WriteCSV(f, events)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("workbench: export %s: %w", p, err)
		}
		fmt.Fprintf(os.Stderr, "[trace: %d events of cell %s written to %s]\n", len(events), r.Key, p)
	}
	return nil
}

// traceTop is how many ranks and locks the trace analysis lists.
const traceTop = 4

// printAnalysis writes trace.Summarize of one traced cell: acquisitions
// and their Jain fairness, the peak wait depth, the handoff-locality
// histogram (the paper's locality claim, measured), the acquire-wait
// summary with the slowest ranks by P99 and the locks with the most
// cumulative wait, and the RMA op counts.
func printAnalysis(w io.Writer, r sweep.CellResult, ppn int) {
	p := r.Key.P
	topo := topology.ForProcs(p, ppn)
	a := trace.Summarize(r.Trace.Events(), p, topo.Distance, topo.MaxDistance())

	fmt.Fprintf(w, "== %s (P=%d, ppn=%d, %s)\n", r.Key, p, ppn, topo)
	var acquired int64
	for _, c := range a.Acquired {
		acquired += c
	}
	fmt.Fprintf(w, "events=%d acquisitions=%d Jain-fairness=%.4f max-wait-depth=%d\n",
		a.Events, acquired, a.Fairness, a.MaxWaitDepth)
	var handoffs int64
	for _, c := range a.Locality {
		handoffs += c
	}
	if handoffs > 0 {
		fmt.Fprintf(w, "handoff locality (distance: count, share):")
		for d, c := range a.Locality {
			fmt.Fprintf(w, "  d%d: %d (%.1f%%)", d, c, 100*float64(c)/float64(handoffs))
		}
		fmt.Fprintf(w, "  intra-element=%.1f%%\n", 100*a.IntraFrac)
	}
	if a.Wait.N > 0 {
		s := a.Wait
		fmt.Fprintf(w, "acquire wait [µs]: mean=%.2f p50=%.2f p95=%.2f p99=%.2f max=%.2f (n=%d)\n",
			s.Mean, s.P50, s.P95, s.P99, s.Max, s.N)
		tails := append([]trace.RankLatency(nil), a.PerRank...)
		sort.SliceStable(tails, func(i, j int) bool { return tails[i].Wait.P99 > tails[j].Wait.P99 })
		fmt.Fprintf(w, "slowest ranks by P99 wait:")
		for _, t := range tails[:min(traceTop, len(tails))] {
			fmt.Fprintf(w, "  r%d: p99=%.2fµs (n=%d)", t.Rank, t.Wait.P99, t.Wait.N)
		}
		fmt.Fprintln(w)
	}
	if len(a.PerLock) > 0 {
		hot := append([]trace.LockLatency(nil), a.PerLock...)
		sort.SliceStable(hot, func(i, j int) bool { return hot[i].Wait.SampleTotal > hot[j].Wait.SampleTotal })
		n := min(traceTop, len(hot))
		tb := &stats.Table{
			Title:   fmt.Sprintf("hottest locks by cumulative wait (top %d of %d)", n, len(hot)),
			Columns: []string{"Lock", "Waits", "Total[ms]", "Mean[us]", "P95[us]", "P99[us]", "Max[us]"},
		}
		for _, l := range hot[:n] {
			s := l.Wait
			tb.AddRow(fmt.Sprintf("L%d", l.Lock), fmt.Sprint(s.N),
				fmt.Sprintf("%.3f", s.SampleTotal/1e3), fmt.Sprintf("%.2f", s.Mean),
				fmt.Sprintf("%.2f", s.P95), fmt.Sprintf("%.2f", s.P99), fmt.Sprintf("%.2f", s.Max))
		}
		fmt.Fprintln(w, tb.String())
	}
	ops := make([]int, 0, len(trace.OpNames))
	for op, c := range a.Ops {
		if c > 0 {
			ops = append(ops, op)
		}
	}
	if len(ops) > 0 {
		sort.Slice(ops, func(i, j int) bool { return trace.OpNames[ops[i]] < trace.OpNames[ops[j]] })
		fmt.Fprintf(w, "rma ops:")
		for _, op := range ops {
			fmt.Fprintf(w, "  %s=%d", trace.OpNames[op], a.Ops[op])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// tuneAxes accumulates repeated -tune flags into sweep tunable axes.
type tuneAxes []sweep.TunableAxis

func (t *tuneAxes) String() string {
	var parts []string
	for _, ax := range *t {
		vals := make([]string, len(ax.Values))
		for i, v := range ax.Values {
			vals[i] = strconv.FormatInt(v, 10)
		}
		parts = append(parts, ax.Key+"="+strings.Join(vals, ","))
	}
	return strings.Join(parts, " ")
}

func (t *tuneAxes) Set(s string) error {
	key, list, ok := strings.Cut(s, "=")
	key = strings.TrimSpace(key)
	if !ok || key == "" {
		return fmt.Errorf("want KEY=v1,v2,..., got %q", s)
	}
	var vals []int64
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return fmt.Errorf("bad value %q in -tune %s", part, s)
		}
		vals = append(vals, v)
	}
	*t = append(*t, sweep.TunableAxis{Key: key, Values: vals})
	return nil
}
