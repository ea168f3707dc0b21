package main

import (
	"fmt"
	"os"
	"time"
)

// localWorkers is the -j every local workload runs with: the core count
// of the reference box.
const localWorkers = "2"

// options sizes a run.
type options struct {
	seconds float64 // length of the timed part
	setups  int     // set-ups per run; their median is setup_s
	cliRuns int     // `workbench -submit` children per traced run
	smoke   bool
}

// result collects one workload's measurements: per-repetition samples
// (reported as their median) and scalars.
type result struct {
	workload string
	tally    tally
	samples  map[string][]float64
	scalars  map[string]float64
	digest   string
	notes    []string
}

func newResult(workload string) *result {
	return &result{workload: workload, samples: map[string][]float64{}, scalars: map[string]float64{}}
}

func (r *result) add(name string, v float64) { r.samples[name] = append(r.samples[name], v) }
func (r *result) set(name string, v float64) { r.scalars[name] = v }
func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// value is the number reported for a metric: the scalar, or the median
// of the samples.
func (r *result) value(name string) (float64, bool) {
	if v, ok := r.scalars[name]; ok {
		return v, true
	}
	if s := r.samples[name]; len(s) > 0 {
		return median(s), true
	}
	return 0, false
}

// merge copies other's measurements in, keeping r's where both have one.
func (r *result) merge(other *result) {
	for k, v := range other.samples {
		if _, ok := r.value(k); !ok {
			r.samples[k] = v
		}
	}
	for k, v := range other.scalars {
		if _, ok := r.value(k); !ok {
			r.scalars[k] = v
		}
	}
	r.tally.attempted += other.tally.attempted
	r.tally.failed += other.tally.failed
	r.tally.reasons = append(r.tally.reasons, other.tally.reasons...)
	r.notes = append(r.notes, other.notes...)
}

// rep runs the grid once in a fresh `workbench -j 2 ... -out f` child
// and returns what the child cost and the cells it wrote.
func (e *env) rep(rec *recorder, g grid, extra ...string) (childRun, []cellOut, error) {
	out := e.path("out.json")
	args := append([]string{"-j", localWorkers}, g.flags()...)
	args = append(args, "-out", out)
	args = append(args, extra...)
	end, _ := rec.begin("proc", "workbench", "", 0, 0)
	run, err := runChild(e.workbench, args...)
	end()
	if err != nil {
		return run, nil, err
	}
	data, err := os.ReadFile(out)
	if err != nil {
		return run, nil, err
	}
	cells, err := parseRun(data)
	return run, cells, err
}

// phaseMetrics turns a -metrics-out snapshot's phase totals into the
// harness's setup/run/drain shares of cell time and the merge total.
func phaseMetrics(res *result, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	ph, err := parsePhases(data)
	if err != nil {
		return err
	}
	total := ph["setup"] + ph["run"] + ph["drain"]
	if total <= 0 {
		return fmt.Errorf("%s: no setup/run/drain phase time", path)
	}
	res.add("workload.phase_setup_share", ph["setup"]/total)
	res.add("workload.phase_run_share", ph["run"]/total)
	res.add("workload.phase_drain_share", ph["drain"]/total)
	res.add("sweep.merge_ns", ph["merge"])
	return nil
}

// runLocal measures a local workload: identical repetitions of one
// `workbench -j 2` child at a time, so the spread between them is noise.
func (e *env) runLocal(w workload, o options, rec *recorder) (*result, error) {
	res := newResult(w.Name)
	t := &res.tally
	g := w.Grid

	// Set-up is the untimed warm-up repetition, several times over so
	// that its median is a steady number. The first one's cells become
	// the reference every later repetition must reproduce.
	var ref []cellOut
	setups := o.setups
	if rec != nil {
		setups = 1
	}
	for i := 0; i < setups; i++ {
		run, cells, err := e.rep(rec, g)
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		t.checkCells("warm-up", cells, g, ref)
		if ref == nil {
			ref = cells
		}
		res.add("setup_s", run.wallS)
	}
	res.digest = digest(ref)

	if rec == nil {
		// One serial run on the reference engine covers worker-count
		// and engine invariance of every cell.
		start := time.Now()
		_, cells, err := e.rep(nil, g, "-j", "1", "-engine", "ref") // the later -j wins
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		t.checkCells("-j 1 -engine ref oracle", cells, g, ref)
		res.note("oracle pass (-j 1 -engine ref) took %.2fs", time.Since(start).Seconds())
	}

	// Timed repetitions. The traced run alternates plain and
	// -metrics-out repetitions over half the time, so that the overhead
	// of the snapshot is measured against plain repetitions made under
	// the same conditions.
	seconds := o.seconds
	if rec != nil {
		seconds /= 2
	}
	metricsOut := e.path("metrics.json")
	var tracedWall []float64
	start := time.Now()
	for n := 0; n < 3 || time.Since(start).Seconds() < seconds; n++ {
		run, cells, err := e.rep(rec, g)
		if err != nil {
			t.failAll(g.Cells, "repetition %d: %v", n, err)
			continue
		}
		t.checkCells(fmt.Sprintf("repetition %d", n), cells, g, ref)
		res.add("cells_per_s", float64(g.Cells)/run.wallS)
		res.add("job_p50_ms", run.wallS*1000)
		res.add("cpu_s", run.cpuS)
		res.add("peak_rss_mb", run.rssMB)
		res.add("sweep.worker_utilisation", run.cpuS/(run.wallS*2))
		if rec == nil {
			continue
		}
		run, cells, err = e.rep(rec, g, "-metrics-out", metricsOut)
		if err != nil {
			t.failAll(g.Cells, "traced repetition %d: %v", n, err)
			continue
		}
		t.checkCells(fmt.Sprintf("traced repetition %d", n), cells, g, ref)
		tracedWall = append(tracedWall, run.wallS*1000)
		if err := phaseMetrics(res, metricsOut); err != nil {
			return nil, err
		}
	}
	res.note("%d timed repetitions of %d cells", len(res.samples["job_p50_ms"]), g.Cells)
	if rec != nil && len(tracedWall) > 0 {
		res.set("trace_overhead_pct", (median(tracedWall)/median(res.samples["job_p50_ms"])-1)*100)
	}
	return res, nil
}
