// Command benchmark is the repository's benchmark: six named workloads
// over real workbench and sweepd child processes built from this
// checkout, end-to-end metrics measured with tracing off, and a traced
// run that times calls into each layer. See README.md and, for the
// contract with the driver, BENCHMARK.json at the repository root.
//
//	bash benchmark/run.sh --workload tiny-cells --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --seed 1                  # every workload
//	bash benchmark/run.sh --seed 1 --trace 1        # the per-layer run
//	bash benchmark/run.sh --seed 1 --sets 2 --runs 10   # A/A: two sets of ten runs
//	bash benchmark/run.sh --smoke                   # a few cells per workload
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	var (
		name     = flag.String("workload", "all", "workload to run, or 'all' ("+strings.Join(workloadNames, ", ")+")")
		seed     = flag.Int64("seed", 1, "the benchmark's only input: grid seed and source of the per-job TR values")
		seconds  = flag.Float64("seconds", 10, "length of each workload's timed part")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced per-layer run")
		traceOut = flag.String("trace-out", "", "where the traced run writes its spans as Chrome trace-event JSON (default .bench_build/trace-<workload>.json)")
		sets     = flag.Int("sets", 1, "A/A mode: sets of runs to compare (with -runs)")
		runs     = flag.Int("runs", 1, "A/A mode: runs per set, each with the next seed")
		smoke    = flag.Bool("smoke", false, "cut every workload to a few cells and one second (the package test's scale)")
		root     = flag.String("root", "..", "the rmalocks checkout to build and measure")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 || *sets < 1 || *runs < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	names := workloadNames
	if *name != "all" {
		names = []string{*name}
	}
	o := options{seconds: *seconds, setups: 3, cliRuns: 3, smoke: *smoke}
	if *smoke {
		o.seconds, o.setups, o.cliRuns = 1, 1, 1
	}
	e, err := newEnv(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	code := 0
	if *sets**runs > 1 {
		code = e.compareSets(names, *seed, *sets, *runs, o)
	} else {
		printHeader(e, *seed)
		for _, n := range names {
			out := *traceOut
			if out == "" {
				out = filepath.Join(e.root, ".bench_build", "trace-"+n+".json")
			}
			res, err := e.run(n, *seed, o, *trace == 1, out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", n, err)
				code = 1
				break
			}
			if !report(res, *trace == 1) {
				code = 1
			}
		}
	}
	e.close()
	os.Exit(code)
}

// run measures one workload, untraced or traced.
func (e *env) run(name string, seed int64, o options, traced bool, traceOut string) (*result, error) {
	w, err := newWorkload(name, seed, o.smoke)
	if err != nil {
		return nil, err
	}
	measure := e.runLocal
	if w.Kind != kindLocal {
		measure = e.runDaemon
	}
	if !traced {
		return measure(w, o, nil)
	}
	rec := newRecorder()
	res, err := measure(w, o, rec)
	if err != nil {
		return nil, err
	}
	if w.Kind == kindLocal {
		// The daemon-side layers on a short daemon-warm session, so that
		// every traced run reports every layer.
		probe, err := newWorkload("daemon-warm", seed, o.smoke)
		if err != nil {
			return nil, err
		}
		po := o
		po.seconds = o.seconds * 0.4
		pres, err := e.runDaemon(probe, po, rec)
		if err != nil {
			return nil, fmt.Errorf("daemon probe: %w", err)
		}
		res.merge(pres)
	}
	if err := e.startup(res, rec); err != nil {
		return nil, err
	}
	if err := e.measureLayers(res, rec, seed, o.smoke); err != nil {
		return nil, err
	}
	if err := rec.writeChrome(traceOut); err != nil {
		return nil, err
	}
	res.note("%d spans written to %s", len(rec.spans), traceOut)
	return res, nil
}

// startup times workbench on a one-cell P=8 grid: process start, flag
// parsing, one trivial cell, exit.
func (e *env) startup(res *result, rec *recorder) error {
	g := grid{Schemes: []string{"foMPI-Spin"}, Workloads: []string{"empty"}, Profiles: []string{"uniform"},
		Ps: []int{8}, Iters: 1, Seed: 1, FW: 1, Locks: 1, Cells: 1}
	for i := 0; i < 5; i++ {
		run, cells, err := e.rep(rec, g)
		if err != nil {
			return fmt.Errorf("startup probe: %w", err)
		}
		res.tally.checkCells("startup probe", cells, g, nil)
		res.add("proc.startup_ms", run.wallS*1000)
	}
	return nil
}

func printHeader(e *env, seed int64) {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", e.root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	load := math.NaN()
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		fmt.Sscan(string(data), &load) //nolint:errcheck // NaN says unknown
	}
	fmt.Printf("# rmalocks benchmark: commit=%s %s cpu=%q nproc=%d GOMAXPROCS=%d seed=%d load1=%.2f build_s=%.2f\n",
		commit, runtime.Version(), cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), seed, load, e.buildS)
	if load > float64(runtime.NumCPU()) {
		fmt.Printf("# WARNING: 1-minute load average %.2f exceeds the %d CPUs; timings will be noisy\n", load, runtime.NumCPU())
	}
}

// report prints a workload's metrics by name — unit, median, quartiles
// and sample count — then the result line the driver reads: every
// end-to-end metric (or, traced, every per-layer metric). It returns
// false if the result is unusable or a check failed.
func report(res *result, traced bool) bool {
	defs := endToEnd
	if traced {
		defs = perLayer()
	}
	fmt.Printf("# workload %s\n", res.workload)
	fmt.Printf("%-40s %-8s %14s %14s %14s %5s\n", "metric", "unit", "median", "q1", "q3", "n")
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	ok := true
	for _, d := range defs {
		v, have := res.value(d.Name)
		if !have || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "benchmark: %s: metric %s was not measured\n", res.workload, d.Name)
			ok = false
			continue
		}
		metrics[d.Name] = metric{v, d.Unit}
		if s := res.samples[d.Name]; len(s) > 1 {
			q1, q3 := quartiles(s)
			fmt.Printf("%-40s %-8s %14.6g %14.6g %14.6g %5d\n", d.Name, d.Unit, v, q1, q3, len(s))
		} else {
			fmt.Printf("%-40s %-8s %14.6g %14s %14s %5d\n", d.Name, d.Unit, v, "-", "-", 1)
		}
	}
	t := res.tally
	fmt.Printf("%-40s %-8s %14.6g   (%d of %d cells failed)\n", "fail_ratio", "ratio",
		float64(t.failed)/math.Max(1, float64(t.attempted)), t.failed, t.attempted)
	fmt.Printf("results_digest %s\n", res.digest)
	for _, n := range res.notes {
		fmt.Println("#", n)
	}
	for _, r := range t.reasons {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED:", r)
	}
	if !ok {
		return false
	}
	correct := t.failed == 0 && len(t.reasons) == 0 && t.attempted > 0
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": t.attempted, "failed": t.failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return false
	}
	fmt.Println(string(line))
	return correct
}
