package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rmalocks/internal/sweep"
	"rmalocks/internal/topology"
	"rmalocks/internal/trace"
)

// TestTuneAxesSet pins the -tune flag grammar. What the axes mean — a
// key given twice, an axis with no values — is Grid.Cells' to judge.
func TestTuneAxesSet(t *testing.T) {
	var axes tuneAxes
	if err := axes.Set("TR=250,500,1000"); err != nil {
		t.Fatal(err)
	}
	if err := axes.Set("TL2=16,32"); err != nil {
		t.Fatal(err)
	}
	want := []sweep.TunableAxis{
		{Key: "TR", Values: []int64{250, 500, 1000}},
		{Key: "TL2", Values: []int64{16, 32}},
	}
	if len(axes) != len(want) {
		t.Fatalf("parsed %d axes, want %d", len(axes), len(want))
	}
	for i, ax := range axes {
		if ax.Key != want[i].Key || len(ax.Values) != len(want[i].Values) {
			t.Errorf("axis %d = %+v, want %+v", i, ax, want[i])
		}
	}

	if err := axes.Set("TR=42"); err != nil {
		t.Fatal(err)
	}
	g := derivingGrid()
	g.Tunables = axes
	var dup sweep.DuplicateAxisError
	if _, err := g.Cells(); !errors.As(err, &dup) || dup.Key != "TR" {
		t.Errorf("repeated -tune key: err = %v, want a DuplicateAxisError", err)
	}

	for _, bad := range []string{"", "TR", "=1,2", "TR=a,b"} {
		var fresh tuneAxes
		if err := fresh.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted malformed input", bad)
		}
	}
}

// derivingGrid is an 8-cell grid in which T_R = 400 and 800 never bind,
// so each of their RMA-RW cells is derived from T_R = 200's run.
func derivingGrid() sweep.Grid {
	return sweep.Grid{Schemes: []string{"RMA-RW", "foMPI-RW"}, Workloads: []string{"empty"},
		Profiles: []string{"uniform"}, Ps: []int{8, 16}, Iters: 10, FW: 0.1,
		Tunables: []sweep.TunableAxis{{Key: "TR", Values: []int64{200, 400, 800}}}}
}

// TestSummaryCountsDerivedCells pins the closing line of a local run:
// it says how many cells came from a sibling's run.
func TestSummaryCountsDerivedCells(t *testing.T) {
	cells, err := derivingGrid().Cells()
	if err != nil {
		t.Fatal(err)
	}
	results, err := sweep.Run(cells, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := summary(results, 1500*time.Microsecond, false)
	want := "[8 cells in 2ms; 4 from a sibling's run; deterministic per seed (re-run with -check to verify)]"
	if got != want {
		t.Errorf("summary = %q, want %q", got, want)
	}
	if got := summary(results[6:], time.Millisecond, true); !strings.HasPrefix(got, "[2 cells in 1ms; all cells") {
		t.Errorf("summary without derived cells = %q", got)
	}
}

// TestMetricsOutCarriesHostMemory: -metrics-out holds the process's
// heap and sys bytes as gauges, and the run file of the same grid is
// byte-equal with and without it — host numbers never reach a Report.
func TestMetricsOutCarriesHostMemory(t *testing.T) {
	dir := t.TempDir()
	bare, observed, metrics := filepath.Join(dir, "bare.json"), filepath.Join(dir, "observed.json"), filepath.Join(dir, "metrics.json")
	captureOutput(t, func() {
		if code := run(runOpts{grid: derivingGrid(), out: bare}); code != 0 {
			t.Errorf("bare run exited %d", code)
		}
		if code := run(runOpts{grid: derivingGrid(), out: observed, metricsOut: metrics}); code != 0 {
			t.Errorf("-metrics-out run exited %d", code)
		}
	})
	a, errA := os.ReadFile(bare)
	b, errB := os.ReadFile(observed)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if !bytes.Equal(a, b) {
		t.Error("-metrics-out changed the run file")
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Gauges map[string]float64 `json:"gauges"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	for _, g := range []string{"process_heap_bytes", "process_sys_bytes"} {
		if snap.Gauges[g] <= 0 {
			t.Errorf("gauge %s = %v, want > 0 (gauges %v)", g, snap.Gauges[g], snap.Gauges)
		}
	}
}

// TestGridTooLargeExitsTwo: flags naming more cells than a grid may
// enumerate are a usage error, refused before a cell is built.
func TestGridTooLargeExitsTwo(t *testing.T) {
	grid := derivingGrid()
	grid.Ps = nil
	for p := 1; p <= 20000; p++ {
		grid.Ps = append(grid.Ps, p)
	}
	if code := run(runOpts{grid: grid}); code != 2 {
		t.Errorf("a %d-P grid exited %d, want 2", len(grid.Ps), code)
	}
}

// TestFoMPIARuns: -schemes foMPI-A, the paper's lock-free DHT baseline
// (Fig. 6), runs beside the locks, and its table is sweep.Run's.
func TestFoMPIARuns(t *testing.T) {
	grid := flagGrid("foMPI-A,RMA-RW", "dhtvol", "uniform")
	grid.Ps, grid.Iters, grid.FW = []int{16}, 10, 0.05
	stdout, stderr := captureOutput(t, func() {
		if code := run(runOpts{grid: grid}); code != 0 {
			t.Errorf("exited %d", code)
		}
	})
	results, err := sweep.Run(mustCells(t, grid), sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := sweep.Table(gridTitle(grid), results).String() + "\n"; stdout != want || results[0].Key.Scheme != "foMPI-A" {
		t.Errorf("stdout:\n%s\nwant sweep.Run's table:\n%s\nstderr: %s", stdout, want, stderr)
	}
}

// TestGridThatRunsNothingExitsTwo: flags naming an entry the grid would
// not run are a usage error that names the entry.
func TestGridThatRunsNothingExitsTwo(t *testing.T) {
	var faults faultAxes
	if err := faults.Set("timeout=200us"); err != nil {
		t.Fatal(err)
	}
	grid := flagGrid("D-MCS", "empty", "uniform")
	grid.Faults = faults
	var code int
	_, stderr := captureOutput(t, func() { code = run(runOpts{grid: grid}) })
	if code != 2 || !strings.Contains(stderr, "timeout=200000") {
		t.Errorf("exited %d with %q, want 2 and the profile named", code, stderr)
	}
}

func mustCells(t *testing.T, g sweep.Grid) []sweep.Cell {
	t.Helper()
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

// captureOutput runs f with os.Stdout and os.Stderr redirected to files
// and returns what it wrote to each.
func captureOutput(t *testing.T, f func()) (stdout, stderr string) {
	t.Helper()
	dir := t.TempDir()
	var files [2]*os.File
	for i, name := range []string{"stdout", "stderr"} {
		fh, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		defer fh.Close()
		files[i] = fh
	}
	saved := [2]*os.File{os.Stdout, os.Stderr}
	os.Stdout, os.Stderr = files[0], files[1]
	f()
	os.Stdout, os.Stderr = saved[0], saved[1]
	var out [2]string
	for i, fh := range files {
		data, err := os.ReadFile(fh.Name())
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(data)
	}
	return out[0], out[1]
}

// TestTraceAnalysisOnStderr: a traced run prints the cell's analysis,
// trace.Summarize of the cell's events, to stderr, and stdout holds the
// table alone.
func TestTraceAnalysisOnStderr(t *testing.T) {
	grid := sweep.Grid{Schemes: []string{"RMA-MCS"}, Workloads: []string{"empty"},
		Profiles: []string{"uniform"}, Ps: []int{32}, ProcsPerNode: 16, Iters: 10, FW: 1,
		Trace: trace.ClassSemantic}
	path := filepath.Join(t.TempDir(), "trace.json")
	stdout, stderr := captureOutput(t, func() {
		if code := run(runOpts{grid: grid, trace: path}); code != 0 {
			t.Errorf("traced run exited %d", code)
		}
	})

	cells, err := grid.Cells()
	if err != nil {
		t.Fatal(err)
	}
	results, err := sweep.Run(cells, sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := sweep.Table(gridTitle(grid), results).String() + "\n"; stdout != want {
		t.Errorf("stdout is not the table alone:\n%s\nwant:\n%s", stdout, want)
	}

	topo := topology.ForProcs(32, 16)
	a := trace.Summarize(results[0].Trace.Events(), 32, topo.Distance, topo.MaxDistance())
	if a.MaxWaitDepth == 0 || a.Locality[1] == 0 {
		t.Fatalf("contended cell analyzed to depth %d, locality %v", a.MaxWaitDepth, a.Locality)
	}
	want := []string{
		"== RMA-MCS/empty/uniform/P=32 (P=32, ppn=16, ",
		fmt.Sprintf("events=%d ", a.Events),
		fmt.Sprintf("Jain-fairness=%.4f max-wait-depth=%d\n", a.Fairness, a.MaxWaitDepth),
		fmt.Sprintf("intra-element=%.1f%%\n", 100*a.IntraFrac),
		"slowest ranks by P99 wait:",
		"hottest locks by cumulative wait (top 4 of 8)",
		"rma ops:",
	}
	for d, c := range a.Locality {
		want = append(want, fmt.Sprintf("  d%d: %d (", d, c))
	}
	for _, w := range want {
		if !strings.Contains(stderr, w) {
			t.Errorf("stderr lacks %q:\n%s", w, stderr)
		}
	}
	if n := strings.Count(stderr, "handoff locality"); n != 1 {
		t.Errorf("stderr holds %d analyses of a one-cell grid, want 1", n)
	}
}
