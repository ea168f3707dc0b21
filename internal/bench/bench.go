// Package bench holds the paper's evaluation (§5) as data: every figure
// and ablation is a Figure value — a title, columns, metric projections
// and labelled series of sweep cells — and one runner, Run, hands all
// cells of an invocation to a single sweep.Run and orders the reports
// into table rows. figures.go lists the values; claims.go re-checks the
// paper's headline claims over the same rows.
package bench

import (
	"fmt"
	"slices"
	"strconv"

	"rmalocks/internal/stats"
	"rmalocks/internal/sweep"
	"rmalocks/internal/workload"
)

// Scheme names, aliased from the workload harness so the two packages
// cannot drift.
const (
	SchemeFoMPISpin = workload.SchemeFoMPISpin
	SchemeDMCS      = workload.SchemeDMCS
	SchemeRMAMCS    = workload.SchemeRMAMCS
	SchemeFoMPIRW   = workload.SchemeFoMPIRW
	SchemeRMARW     = workload.SchemeRMARW
	// SchemeFoMPIA labels the DHT's lock-free baseline: raw atomics and
	// no lock, so not a scheme of the registry.
	SchemeFoMPIA = "foMPI-A"
)

// Scale selects the sweep size of the figures: Quick keeps unit tests
// and in-repo benchmarks fast, Full mirrors the paper's process counts.
type Scale struct {
	Name   string
	Ps     []int // swept process counts, ascending
	Iters  int   // measured cycles per process
	DHTOps int   // DHT operations per process
}

// Quick is the test-sized sweep.
var Quick = Scale{Name: "quick", Ps: []int{8, 16, 32, 64}, Iters: 30, DHTOps: 12}

// Medium covers the crossover region at moderate cost.
var Medium = Scale{Name: "medium", Ps: []int{8, 16, 32, 64, 128, 256}, Iters: 40, DHTOps: 16}

// Full mirrors the paper's sweep (16–1024 processes, plus 8 to show the
// intra-node spike).
var Full = Scale{Name: "full", Ps: []int{8, 16, 32, 64, 128, 256, 512, 1024}, Iters: 50, DHTOps: 20}

// ScaleByName resolves a scale preset.
func ScaleByName(name string) (Scale, error) {
	for _, sc := range []Scale{Quick, Medium, Full} {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scale{}, fmt.Errorf("bench: unknown scale %q (quick|medium|full)", name)
}

// Metric projects one report onto a table column.
type Metric func(workload.Report) float64

// Figure is one table of the evaluation.
type Figure struct {
	// Name selects the figure on the command line ("3a", "locality").
	Name  string
	Title string
	// Columns names every column: the label columns — "P" among them
	// where the process count is printed — then one per Metric. Rows are
	// ordered by the label columns from the left: the labels before "P"
	// in series order, then P ascending, then the remaining labels in
	// series order.
	Columns []string
	Metrics []Metric
	Series  []Series
}

// Series is one labelled line of a figure: a row per cell.
type Series struct {
	// Labels fills the row's label columns, "P" aside.
	Labels []string
	// Grid enumerates the series' cells, one per process count.
	Grid sweep.Grid
	// Cells replaces Grid for a shape no grid coordinate expresses yet
	// (the single-volume DHT with its lock-free baseline, a scaled
	// latency model): hand-built cells, which have no content address.
	Cells []sweep.Cell
}

// Row is one table row: its label cells, P included, and the report its
// metric cells are projected from.
type Row struct {
	Labels []string
	Report workload.Report
}

// Pick returns the figure or ablation of figs called name, or all of
// them for "all".
func Pick(figs []Figure, name string) ([]Figure, error) {
	if name == "all" {
		return figs, nil
	}
	var have []string
	for _, f := range figs {
		if f.Name == name {
			return []Figure{f}, nil
		}
		have = append(have, f.Name)
	}
	return nil, fmt.Errorf("bench: nothing named %q (have %v, or all)", name, have)
}

// Run executes every cell of figs in one sweep.Run on the worker pool —
// a cell two figures share (3a and 3b print two metrics of the same
// runs) once — and returns each figure's rows in table order.
func Run(figs []Figure) ([][]Row, error) {
	type rowRef struct {
		labels   []string
		panel, p int
		cell     int // index into cells
	}
	var cells []sweep.Cell
	byInput := map[string]int{}
	refs := make([][]rowRef, len(figs))
	for fi, f := range figs {
		nlabels := len(f.Columns) - len(f.Metrics)
		pcol := slices.Index(f.Columns[:nlabels], "P")
		lead := pcol // labels ordered before P: all of them without a P column
		if pcol < 0 {
			lead = nlabels
		}
		panel := 0
		for si, s := range f.Series {
			if si > 0 && !slices.Equal(s.Labels[:lead], f.Series[si-1].Labels[:lead]) {
				panel++
			}
			sc := s.Cells
			if sc == nil {
				var err error
				if sc, err = s.Grid.Cells(); err != nil {
					return nil, fmt.Errorf("bench: figure %s: %w", f.Name, err)
				}
			}
			for _, c := range sc {
				at, shared := byInput[c.Input]
				if !shared {
					at = len(cells)
					cells = append(cells, c)
					if c.Input != "" {
						byInput[c.Input] = at
					}
				}
				labels := s.Labels
				if pcol >= 0 {
					labels = slices.Insert(slices.Clone(labels), pcol, strconv.Itoa(c.Key.P))
				}
				refs[fi] = append(refs[fi], rowRef{labels, panel, c.Key.P, at})
			}
		}
		slices.SortStableFunc(refs[fi], func(a, b rowRef) int {
			if a.panel != b.panel {
				return a.panel - b.panel
			}
			return a.p - b.p
		})
	}
	results, err := sweep.Run(cells, sweep.Options{})
	if err != nil {
		return nil, err
	}
	rows := make([][]Row, len(figs))
	for fi := range figs {
		for _, r := range refs[fi] {
			rows[fi] = append(rows[fi], Row{Labels: r.labels, Report: results[r.cell].Report})
		}
	}
	return rows, nil
}

// Table renders the figure's rows, as Run returned them.
func (f Figure) Table(rows []Row) *stats.Table {
	t := &stats.Table{Title: f.Title, Columns: f.Columns}
	for _, r := range rows {
		cells := append([]string(nil), r.Labels...)
		for _, m := range f.Metrics {
			cells = append(cells, stats.FmtF(m(r.Report)))
		}
		t.AddRow(cells...)
	}
	return t
}
