package sweep_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"rmalocks/internal/fault"
	"rmalocks/internal/sweep"
	"rmalocks/internal/workload"
)

// mustCells enumerates a grid that the test knows is well-formed.
func mustCells(tb testing.TB, g sweep.Grid) []sweep.Cell {
	tb.Helper()
	cells, err := g.Cells()
	if err != nil {
		tb.Fatal(err)
	}
	return cells
}

// testGrid is a small but representative grid: two schemes (one mutex,
// one RW), two profiles, two process counts.
func testGrid() sweep.Grid {
	return sweep.Grid{
		Schemes:   []string{workload.SchemeDMCS, workload.SchemeRMARW},
		Workloads: []string{"empty"},
		Profiles:  []string{"uniform", "zipf"},
		Ps:        []int{8, 16},
		Iters:     12,
		FW:        0.2,
		Locks:     4,
	}
}

func TestGridCanonicalOrder(t *testing.T) {
	cells := mustCells(t, sweep.Grid{
		Schemes:   []string{"D-MCS", "RMA-RW"},
		Workloads: []string{"empty"},
		Profiles:  []string{"uniform", "zipf"},
		Ps:        []int{1, 2},
	})
	var got []string
	for _, c := range cells {
		got = append(got, c.Key.String())
	}
	want := []string{
		"D-MCS/empty/uniform/P=1", "D-MCS/empty/uniform/P=2", "D-MCS/empty/zipf/P=1", "D-MCS/empty/zipf/P=2",
		"RMA-RW/empty/uniform/P=1", "RMA-RW/empty/uniform/P=2", "RMA-RW/empty/zipf/P=1", "RMA-RW/empty/zipf/P=2",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("order:\n got %v\nwant %v", got, want)
	}
}

func TestRunCheckMode(t *testing.T) {
	g := testGrid()
	g.Ps = []int{8}
	if _, err := sweep.Run(mustCells(t, g), sweep.Options{Workers: 4, Check: true}); err != nil {
		t.Fatalf("deterministic grid failed -check: %v", err)
	}
}

// TestRunReusesResults runs a grid into the storage of another grid's
// results: Run returns them there, and they encode as a run into fresh
// storage does, so nothing of the other grid's cells shows through. A
// storage too small for the grid is left alone.
func TestRunReusesResults(t *testing.T) {
	encode := func(cells []sweep.CellResult) []byte {
		t.Helper()
		b, err := sweep.Encode(sweep.RunFile{Label: "reuse", Cells: cells})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want, err := sweep.Run(mustCells(t, testGrid()), sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	other := testGrid()
	other.Iters, other.FW = 20, 0.5
	storage, err := sweep.Run(mustCells(t, other), sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sweep.Run(mustCells(t, testGrid()), sweep.Options{Results: storage[:0]})
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &storage[0] {
		t.Error("Run allocated results beside storage with room for every cell")
	}
	if !bytes.Equal(encode(got), encode(want)) {
		t.Error("results run into another grid's storage differ from a fresh run's")
	}
	short, err := sweep.Run(mustCells(t, testGrid()), sweep.Options{Results: storage[: 0 : len(storage)-1]})
	if err != nil {
		t.Fatal(err)
	}
	if &short[0] == &storage[0] {
		t.Error("Run wrote past the capacity of the storage it was given")
	}
}

func TestRunPropagatesCellErrors(t *testing.T) {
	g := testGrid()
	g.Tunables = []sweep.TunableAxis{{Key: "TR", Values: []int64{-1}}}
	if _, err := sweep.Run(mustCells(t, g), sweep.Options{}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("err = %v, want the out-of-range T_R of a cell", err)
	}
}

func TestForEachDeterministicFirstError(t *testing.T) {
	// The lowest-index failure must win for every worker count: serial,
	// fewer workers than failures, oversubscribed (workers > jobs, which
	// ForEach clamps), and the GOMAXPROCS default (0).
	errLow, errHigh := errors.New("low"), errors.New("high")
	for _, workers := range []int{0, 1, 2, 5, 8, 32, 64} {
		for trial := 0; trial < 8; trial++ {
			err := sweep.ForEach(32, workers, func(i int) error {
				switch i {
				case 3:
					return errLow
				case 20:
					return errHigh
				default:
					return nil
				}
			})
			if !errors.Is(err, errLow) {
				t.Fatalf("workers=%d trial %d: err=%v want lowest-index error", workers, trial, err)
			}
		}
	}
}

func TestForEachRunsEveryJob(t *testing.T) {
	var ran int64
	if err := sweep.ForEach(100, 7, func(i int) error {
		atomic.AddInt64(&ran, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran != 100 {
		t.Errorf("ran=%d want 100", ran)
	}
}

// TestSaveLoadCompareRoundTrip: a run file is a pure function of its
// grid. Loading one and encoding it again gives the saved bytes, and a
// serial re-run of the same grid saves the same bytes as the parallel
// run did — cmp equality is the one comparison two runs need.
func TestSaveLoadCompareRoundTrip(t *testing.T) {
	g := testGrid()
	g.Ps = []int{8}
	save := func(name string, workers int) (string, []byte) {
		t.Helper()
		results, err := sweep.Run(mustCells(t, g), sweep.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "results", name)
		if err := sweep.Save(path, sweep.RunFile{Label: "test run", Cells: results}); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return path, data
	}
	path, saved := save("parallel.json", 4)
	loaded, err := sweep.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	again, err := sweep.Encode(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, saved) {
		t.Errorf("Encode(Load(file)) differs from the saved bytes\n got: %s\nwant: %s", again, saved)
	}
	if _, serial := save("serial.json", 1); !bytes.Equal(serial, saved) {
		t.Errorf("-j 1 re-run saved different bytes\n got: %s\nwant: %s", serial, saved)
	}
}

// tableRow renders a one-cell table and returns its single data row.
func tableRow(t *testing.T, rep workload.Report) string {
	t.Helper()
	tbl := sweep.Table("t", []sweep.CellResult{{Report: rep}})
	lines := strings.Split(strings.TrimRight(tbl.String(), "\n"), "\n")
	return lines[len(lines)-1]
}

// TestTableJainGate: the Jain column must render whenever either
// trace-derived signal is present — in particular a fairness index
// without a handoff-locality histogram (a traced cell whose handoffs
// never reached the analyzer) — and stay "-" for untraced cells.
func TestTableJainGate(t *testing.T) {
	base := workload.Report{Scheme: "s", Workload: "w", Profile: "p", P: 4}

	fairOnly := base
	fairOnly.Fairness = 0.9375 // no HandoffLocality
	if row := tableRow(t, fairOnly); !strings.Contains(row, "0.9375") {
		t.Errorf("fairness-only row lacks the Jain index: %q", row)
	}

	withHist := base
	withHist.Fairness = 0.9375
	withHist.HandoffLocality = []int64{1, 2}
	if row := tableRow(t, withHist); !strings.Contains(row, "0.9375") {
		t.Errorf("traced row lacks the Jain index: %q", row)
	}

	if row := tableRow(t, base); strings.Count(row, "-") < 2 {
		// Untraced: both the Jain and Extra columns render as "-".
		t.Errorf("untraced row should dash the Jain column: %q", row)
	}
}

// TestTableExtraAllKeys: the Extra column renders every key of the
// report's Extra map in sorted order — including keys no workload
// shipped when the column was written — so new workloads' extras are
// never silently dropped, and rendering stays deterministic.
func TestTableExtraAllKeys(t *testing.T) {
	rep := workload.Report{Scheme: "s", Workload: "w", Profile: "p", P: 4,
		Extra: map[string]float64{
			"zz_new":    3,
			"stored":    128,
			"aa_metric": 0.5,
			"overflows": 7,
		}}
	row := tableRow(t, rep)
	const want = "aa_metric=0.5 overflows=7 stored=128 zz_new=3"
	if !strings.Contains(row, want) {
		t.Errorf("extra column not sorted-complete:\n row:  %q\n want: %q", row, want)
	}

	empty := workload.Report{Scheme: "s", Workload: "w", Profile: "p", P: 4}
	if row := tableRow(t, empty); !strings.HasSuffix(strings.TrimRight(row, " "), "-") {
		t.Errorf("empty extras should render as dash: %q", row)
	}
}

// TestGridExplicitZeroZipfS: ZipfSSet makes the zero exponent (a
// uniform draw) expressible, while a zero-valued grid without the flag
// keeps the documented 1.2 default — existing baselines never move.
func TestGridExplicitZeroZipfS(t *testing.T) {
	g := sweep.Grid{
		Schemes:   []string{workload.SchemeDMCS},
		Workloads: []string{"empty"},
		Profiles:  []string{"zipf"},
		Ps:        []int{8},
		Iters:     8,
	}
	spec := func(g sweep.Grid) workload.Spec {
		cells := mustCells(t, g)
		s, err := cells[0].Spec()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	if s := spec(g).Profile.(*workload.Zipf).S(); s != 1.2 {
		t.Errorf("defaulted grid ZipfS = %v, want 1.2", s)
	}

	g.ZipfSSet = true // ZipfS stays 0: explicitly uniform
	if s := spec(g).Profile.(*workload.Zipf).S(); s != 0 {
		t.Errorf("explicit-zero grid ZipfS = %v, want 0", s)
	}
	if seed := spec(g).Seed; seed != 1 {
		t.Errorf("Seed defaulting perturbed by ZipfSSet: %v", seed)
	}

	g.ZipfSSet = false
	g.SeedSet = true // Seed stays 0 (the machine layer maps it to 1)
	if seed := spec(g).Seed; seed != 0 {
		t.Errorf("explicit-zero seed rewritten to %v", seed)
	}
}

// TestCellsDuplicateAxis: a repeated tunables axis key must surface as
// a typed error from enumeration instead of a silent first-wins skip —
// even when no named scheme accepts the key (projection would otherwise
// hide the duplicate).
func TestCellsDuplicateAxis(t *testing.T) {
	g := sweep.Grid{
		Schemes:   []string{workload.SchemeRMARW},
		Workloads: []string{"empty"},
		Profiles:  []string{"uniform"},
		Ps:        []int{8},
		Tunables: []sweep.TunableAxis{
			{Key: "TR", Values: []int64{100}},
			{Key: "TR", Values: []int64{200}},
		},
	}
	_, err := g.Cells()
	var dup sweep.DuplicateAxisError
	if !errors.As(err, &dup) || dup.Key != "TR" {
		t.Fatalf("err = %v, want DuplicateAxisError{TR}", err)
	}

	// foMPI-Spin accepts no TR axis at all: the duplicate must still be
	// rejected (checked before per-scheme projection).
	g.Schemes = []string{workload.SchemeFoMPISpin}
	if _, err := g.Cells(); !errors.As(err, &dup) {
		t.Fatalf("projection hid the duplicate axis: err = %v", err)
	}
}

// TestCellsRepeatedValue: a value listed twice on one axis would
// enumerate two cells with the same Key, so enumeration rejects it with
// a typed error naming the axis and the value — on every axis, and
// before per-scheme projection.
func TestCellsRepeatedValue(t *testing.T) {
	fp, err := fault.Parse("jitter=0.2")
	if err != nil {
		t.Fatal(err)
	}
	same, err := fault.Parse("jitter=0.2")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		edit        func(*sweep.Grid)
		axis, value string
	}{
		{func(g *sweep.Grid) { g.Schemes = []string{"D-MCS", "RMA-RW", "D-MCS"} }, "schemes", "D-MCS"},
		{func(g *sweep.Grid) { g.Workloads = []string{"empty", "empty"} }, "workloads", "empty"},
		{func(g *sweep.Grid) { g.Profiles = []string{"uniform", "zipf", "zipf"} }, "profiles", "zipf"},
		{func(g *sweep.Grid) { g.Ps = []int{16, 16} }, "ps", "16"},
		{func(g *sweep.Grid) { g.Tunables = []sweep.TunableAxis{{Key: "TR", Values: []int64{500, 500}}} }, "TR", "500"},
		{func(g *sweep.Grid) { g.Faults = []*fault.Profile{fp, same} }, "faults", "jitter=0.2"},
		// foMPI-Spin takes no TR axis: the repeat is still rejected.
		{func(g *sweep.Grid) {
			g.Schemes = []string{workload.SchemeFoMPISpin}
			g.Tunables = []sweep.TunableAxis{{Key: "TR", Values: []int64{7, 7}}}
		}, "TR", "7"},
	} {
		g := sweep.Grid{
			Schemes:   []string{workload.SchemeDMCS, workload.SchemeRMARW},
			Workloads: []string{"empty"},
			Profiles:  []string{"uniform"},
			Ps:        []int{8},
		}
		tc.edit(&g)
		_, err := g.Cells()
		var rep sweep.RepeatedValueError
		if !errors.As(err, &rep) || rep.Axis != tc.axis || rep.Value != tc.value {
			t.Errorf("%s=%s: err = %v, want RepeatedValueError{%s %s}", tc.axis, tc.value, err, tc.axis, tc.value)
		}
	}
}

// TestCellsRejectsBadEngineAndP: an engine name or a rank count that the
// layers below would panic on is an enumeration error naming the field.
func TestCellsRejectsBadEngineAndP(t *testing.T) {
	for _, tc := range []struct {
		edit func(*sweep.Grid)
		want string
	}{
		{func(g *sweep.Grid) { g.Engine = "psim" }, `engine: rma: unknown engine "psim"`},
		{func(g *sweep.Grid) { g.Engine = "bogus" }, `engine: rma: unknown engine "bogus"`},
		{func(g *sweep.Grid) { g.Ps = []int{8, -3} }, `ps axis: "-3": not a rank count`},
		{func(g *sweep.Grid) { g.ProcsPerNode = -1 }, "ppn: negative ranks per node -1"},
	} {
		g := testGrid()
		tc.edit(&g)
		if _, err := g.Cells(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("err = %v, want it to contain %q", err, tc.want)
		}
	}
}

// TestCellsRejectsEntriesThatRunNothing: an entry a grid names but would
// not run — an unknown name, an empty axis, a P below 1, a tunables
// axis or fault profile no scheme of the grid takes — is an AxisError
// naming the axis and the entry, never a grid that runs something else.
func TestCellsRejectsEntriesThatRunNothing(t *testing.T) {
	timeout := mustFault(t, "timeout=200us")
	for _, tc := range []struct {
		edit        func(*sweep.Grid)
		axis, value string
		have        string // in the error, when the axis lists what it accepts
	}{
		{func(g *sweep.Grid) { g.Schemes = []string{"D-MCS", "RMA-MSC"} }, "schemes", "RMA-MSC", "foMPI-A"},
		{func(g *sweep.Grid) { g.Schemes = []string{"fompi-a"} }, "schemes", "fompi-a", "RMA-RW"},
		{func(g *sweep.Grid) { g.Workloads = []string{"dth"} }, "workloads", "dth", "dhtvol"},
		{func(g *sweep.Grid) { g.Profiles = []string{"unifrom"} }, "profiles", "unifrom", "bursty"},
		{func(g *sweep.Grid) { g.Schemes = nil }, "schemes", "", ""},
		{func(g *sweep.Grid) { g.Workloads = []string{} }, "workloads", "", ""},
		{func(g *sweep.Grid) { g.Profiles = nil }, "profiles", "", ""},
		{func(g *sweep.Grid) { g.Ps = []int{0} }, "ps", "0", ""},
		{func(g *sweep.Grid) { g.Tunables = []sweep.TunableAxis{{Key: "TR"}} }, "TR", "", ""},
		{func(g *sweep.Grid) {
			g.Schemes = []string{"D-MCS", "foMPI-Spin"}
			g.Tunables = []sweep.TunableAxis{{Key: "TR", Values: []int64{1, 2}}}
		}, "tunables", "TR", ""},
		{func(g *sweep.Grid) { g.Tunables = []sweep.TunableAxis{{Key: "TX", Values: []int64{1, 2}}} }, "tunables", "TX", "TL<level>"},
		{func(g *sweep.Grid) {
			g.Schemes = []string{"D-MCS"}
			g.Faults = []*fault.Profile{timeout}
		}, "faults", "timeout=200000", ""},
		{func(g *sweep.Grid) { g.Faults = []*fault.Profile{{}} }, "faults", "", ""},
		{func(g *sweep.Grid) {
			g.Schemes = []string{"foMPI-A", "RMA-RW"}
			g.Workloads = []string{"empty", "counter"}
		}, "schemes", "foMPI-A", "dht,dhtvol"},
		{func(g *sweep.Grid) {
			g.Schemes = []string{"foMPI-A"}
			g.Workloads = []string{"dht", "sharedop"}
		}, "workloads", "sharedop", "dht,dhtvol"},
	} {
		g := testGrid()
		tc.edit(&g)
		_, err := g.Cells()
		var ae sweep.AxisError
		if !errors.As(err, &ae) || ae.Axis != tc.axis || ae.Value != tc.value || !strings.Contains(err.Error(), tc.have) {
			t.Errorf("%s %q: err = %v, want an AxisError naming them", tc.axis, tc.value, err)
		}
	}

	// What the checks accept: aliases, foMPI-A, foMPI-A beside a
	// workload without an atomic family that another scheme runs, a
	// per-level key, a timeout profile beside a scheme that can time out.
	for _, edit := range []func(*sweep.Grid){
		func(g *sweep.Grid) { g.Schemes = []string{"rmarw", "foMPI-A"}; g.Workloads = []string{"dhtvol"} },
		func(g *sweep.Grid) { g.Schemes = []string{"foMPI-A", "RMA-RW"}; g.Workloads = []string{"empty", "dht"} },
		func(g *sweep.Grid) { g.Tunables = []sweep.TunableAxis{{Key: "TL2", Values: []int64{8}}} },
		func(g *sweep.Grid) { g.Schemes = append(g.Schemes, "foMPI-Spin"); g.Faults = []*fault.Profile{timeout} },
	} {
		g := testGrid()
		edit(&g)
		if _, err := g.Cells(); err != nil {
			t.Errorf("%+v: %v", g, err)
		}
	}
}

// TestFoMPIAProjectsOntoAtomicWorkloads: foMPI-A enumerates only the
// workloads that have an atomic operation family, so a grid that puts
// it beside one without (run by the grid's other scheme) runs to the
// end instead of failing its lockless cells after every other cell has
// simulated.
func TestFoMPIAProjectsOntoAtomicWorkloads(t *testing.T) {
	g := sweep.Grid{
		Schemes:   []string{"foMPI-A", "RMA-RW"},
		Workloads: []string{"empty", "dht"},
		Profiles:  []string{"uniform"},
		Ps:        []int{8},
		Iters:     5,
	}
	cells := mustCells(t, g)
	var keys []string
	for _, c := range cells {
		keys = append(keys, c.Key.String())
	}
	want := []string{"foMPI-A/dht/uniform/P=8", "RMA-RW/empty/uniform/P=8", "RMA-RW/dht/uniform/P=8"}
	if !slices.Equal(keys, want) {
		t.Fatalf("cells %v, want %v", keys, want)
	}
	if _, err := sweep.Run(cells, sweep.Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
}
