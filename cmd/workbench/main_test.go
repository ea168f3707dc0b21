package main

import (
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

// TestSummaryCountsDerivedCells pins the closing line of a local run:
// it says how many cells came from a sibling's run. T_R = 400 and 800
// never bind at this size, so each is derived from T_R = 200.
func TestSummaryCountsDerivedCells(t *testing.T) {
	cells, err := sweep.Grid{Schemes: []string{"RMA-RW", "foMPI-RW"}, Workloads: []string{"empty"},
		Profiles: []string{"uniform"}, Ps: []int{8, 16}, Iters: 10, FW: 0.1,
		Tunables: []sweep.TunableAxis{{Key: "TR", Values: []int64{200, 400, 800}}}}.Cells()
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
