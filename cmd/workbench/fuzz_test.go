package main

import (
	"errors"
	"slices"
	"strconv"
	"testing"

	"rmalocks/internal/sweep"
	"rmalocks/internal/workload"
)

// FuzzTuneAxis: no -tune value panics, and one tuneAxes.Set accepts
// re-parses from String() to the same axis. Seeds: testdata/fuzz.
func FuzzTuneAxis(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		var axes tuneAxes
		if axes.Set(s) != nil {
			return
		}
		var again tuneAxes
		if err := again.Set(axes.String()); err != nil {
			t.Fatalf("Set(%q) gave %q, which Set rejects: %v", s, axes.String(), err)
		}
		if again[0].Key != axes[0].Key || !slices.Equal(again[0].Values, axes[0].Values) {
			t.Fatalf("Set(%q) = %+v, but its String %q re-parses to %+v", s, axes[0], axes.String(), again[0])
		}
	})
}

// FuzzFlagLists: no comma list panics -schemes, -workloads, -profiles or
// -ps. A list either fails to parse, as a typed error (only -ps can:
// its entries are integers), or Grid.Cells accepts the grid it makes —
// and then every entry names some cell — or refuses it with a typed
// error. Seeds: testdata/fuzz.
func FuzzFlagLists(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		for _, ax := range []struct {
			flag string
			all  []string
			set  func(*sweep.Grid, []string)
			of   func(sweep.Key) string
		}{
			{"schemes", workload.Schemes, func(g *sweep.Grid, v []string) { g.Schemes = v }, func(k sweep.Key) string { return k.Scheme }},
			{"workloads", workload.WorkloadNames, func(g *sweep.Grid, v []string) { g.Workloads = v }, func(k sweep.Key) string { return k.Workload }},
			{"profiles", workload.ProfileNames, func(g *sweep.Grid, v []string) { g.Profiles = v }, func(k sweep.Key) string { return k.Profile }},
		} {
			g := oneCellGrid()
			entries := splitList(s, ax.all)
			ax.set(&g, entries)
			checkList(t, ax.flag, s, g, entries, ax.of)
		}
		ps, err := parsePs(s, 64)
		if err != nil {
			var bad *BadEntryError
			if !errors.As(err, &bad) {
				t.Fatalf("-ps %q: untyped error %v", s, err)
			}
			return
		}
		g := oneCellGrid()
		g.Ps = ps
		entries := make([]string, len(ps))
		for i, p := range ps {
			entries[i] = strconv.Itoa(p)
		}
		checkList(t, "ps", s, g, entries, func(k sweep.Key) string { return strconv.Itoa(k.P) })
	})
}

func oneCellGrid() sweep.Grid {
	return sweep.Grid{Schemes: []string{"RMA-RW"}, Workloads: []string{"empty"}, Profiles: []string{"uniform"}, Ps: []int{8}}
}

// checkList enumerates g, the one-cell grid with list s on one axis
// (entries): a typed error, or cells in which every entry is a
// coordinate.
func checkList(t *testing.T, flag, s string, g sweep.Grid, entries []string, of func(sweep.Key) string) {
	t.Helper()
	cells, err := g.Cells()
	if err != nil {
		var ae sweep.AxisError
		var rep sweep.RepeatedValueError
		var many sweep.TooManyCellsError
		if !errors.As(err, &ae) && !errors.As(err, &rep) && !errors.As(err, &many) {
			t.Fatalf("-%s %q: untyped error %v", flag, s, err)
		}
		return
	}
	for _, e := range entries {
		if !slices.ContainsFunc(cells, func(c sweep.Cell) bool { return of(c.Key) == e }) {
			t.Fatalf("-%s %q: entry %q names no cell of the grid", flag, s, e)
		}
	}
}
