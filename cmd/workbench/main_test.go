package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"rmalocks/internal/sweep"
)

// TestTuneAxesSet pins the -tune flag grammar, in particular that a
// repeated axis key is rejected at flag parsing with a clear error —
// the first line of defense before Grid.Cells' typed
// DuplicateAxisError.
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

	err := axes.Set("TR=42")
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("repeated -tune key: err = %v, want duplicate-axis error", err)
	}
	if len(axes) != 2 {
		t.Fatalf("failed Set mutated the axes: %+v", axes)
	}

	for _, bad := range []string{"", "TR", "=1,2", "TR=", "TR=a,b"} {
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
	results, err := sweep.Run(cells, sweep.Options{Workers: 1})
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

// TestRunFileSameForAnyWorkerCount: two -out files of one grid are
// cmp-equal whatever -j is, derived cells included (derivingGrid has
// four, which TestSummaryCountsDerivedCells pins).
func TestRunFileSameForAnyWorkerCount(t *testing.T) {
	grid := derivingGrid()
	dir := t.TempDir()
	var files [][]byte
	for _, jobs := range []int{1, 4} {
		out := filepath.Join(dir, "j"+strconv.Itoa(jobs)+".json")
		if code := run(runOpts{grid: grid, jobs: jobs, csv: true, out: out}); code != 0 {
			t.Fatalf("run -j %d exited %d", jobs, code)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, data)
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Errorf("-j 1 and -j 4 wrote different run files\n-j 1: %s\n-j 4: %s", files[0], files[1])
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
