package sweep_test

import (
	"errors"
	"testing"

	"rmalocks/internal/fault"
	"rmalocks/internal/obs"
	"rmalocks/internal/sweep"
	"rmalocks/internal/workload"
)

// wireGrid exercises every wire-expressible axis.
func wireGrid(t *testing.T) sweep.Grid {
	t.Helper()
	fp, err := fault.Parse("jitter=0.2,stall=50000@0.01,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	g := sweep.Grid{
		Schemes:       []string{workload.SchemeDMCS, workload.SchemeRMARW},
		Workloads:     []string{"empty"},
		Profiles:      []string{"uniform", "zipf"},
		Ps:            []int{8, 16},
		ProcsPerNode:  4,
		Iters:         50,
		Seed:          99,
		SeedSet:       true,
		FW:            0.3,
		Locks:         16,
		ZipfS:         1.1,
		ZipfSSet:      true,
		ThinkNs:       1500,
		ThinkJitterNs: 200,
		Tunables:      []sweep.TunableAxis{{Key: "TR", Values: []int64{500, 1000}}},
		Faults:        []*fault.Profile{nil, fp},
		Engine:        "ref",
	}
	g.Params.TL = []int64{100, 200}
	g.Params.TDC = 3
	g.Params.TR = 750
	return g
}

// TestGridCodecRoundTrip: decode(encode(g)) enumerates the identical
// cell set — same keys, same content addresses — so a submitted grid
// computes exactly what the local grid would.
func TestGridCodecRoundTrip(t *testing.T) {
	g := wireGrid(t)
	data, err := sweep.EncodeGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := sweep.DecodeGrid(data)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	cells2, err := g2.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(cells2) {
		t.Fatalf("cell counts differ: %d vs %d", len(cells), len(cells2))
	}
	for i := range cells {
		if cells[i].Key != cells2[i].Key {
			t.Errorf("cell %d key: %s vs %s", i, cells[i].Key, cells2[i].Key)
		}
		if cells[i].Input != cells2[i].Input {
			t.Errorf("cell %d content address drifted across the wire:\n %s\n %s",
				i, cells[i].Input, cells2[i].Input)
		}
		if cells[i].Input == "" {
			t.Errorf("cell %d of a wire grid is uncacheable", i)
		}
	}
}

// TestGridCodecRejectsUnserializable: in-process attachments fail with
// a typed WireError naming the field.
func TestGridCodecRejectsUnserializable(t *testing.T) {
	for _, tc := range []struct {
		field  string
		mutate func(*sweep.Grid)
	}{
		{"Obs", func(g *sweep.Grid) { g.Obs = obs.NewMetrics() }},
		{"Trace", func(g *sweep.Grid) { g.Trace = 1 }},
		{"MemStats", func(g *sweep.Grid) { g.MemStats = true }},
	} {
		g := wireGrid(t)
		tc.mutate(&g)
		_, err := sweep.EncodeGrid(g)
		var we sweep.WireError
		if !errors.As(err, &we) || we.Field != tc.field {
			t.Errorf("%s grid: err = %v, want WireError{%s}", tc.field, err, tc.field)
		}
	}
}

// TestGridCodecStrictDecode: unknown fields and bad fault specs are
// rejected eagerly.
func TestGridCodecStrictDecode(t *testing.T) {
	if _, err := sweep.DecodeGrid([]byte(`{"schemes":["x"],"typo_field":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := sweep.DecodeGrid([]byte(`{"schemes":["x"],"faults":["no-such-fault=1"]}`)); err == nil {
		t.Error("invalid fault spec accepted")
	}
}

// TestCellInputSemantics pins the content-address contract: stable for
// identical grids, distinct across any result-affecting axis, and empty
// (uncacheable) for host-dependent or unserializable cells.
func TestCellInputSemantics(t *testing.T) {
	base := mustCells(t, testGrid())
	same := mustCells(t, testGrid())
	for i := range base {
		if base[i].Input == "" {
			t.Fatalf("cell %s has no content address", base[i].Key)
		}
		if base[i].Input != same[i].Input {
			t.Fatalf("cell %s address unstable across enumerations", base[i].Key)
		}
	}

	seen := map[string]string{}
	for _, c := range base {
		if prev, dup := seen[c.Input]; dup {
			t.Fatalf("cells %s and %s share a content address", prev, c.Key)
		}
		seen[c.Input] = c.Key.String()
	}

	// A tunable axis changes addresses only for cells of schemes that
	// accept the key (axesFor projection) — the dirty-cell invalidation
	// sweepd relies on: the d-MCS half of the grid stays cache-clean
	// when only RMA-RW's TR moves.
	tuned := testGrid()
	tuned.Tunables = []sweep.TunableAxis{{Key: "TR", Values: []int64{12345}}}
	tcells := mustCells(t, tuned)
	if len(tcells) != len(base) {
		t.Fatalf("single-value axis changed the cell count: %d vs %d", len(tcells), len(base))
	}
	changed, unchanged := 0, 0
	for i, c := range tcells {
		if c.Input == base[i].Input {
			unchanged++
		} else {
			changed++
		}
	}
	if changed == 0 || unchanged == 0 {
		t.Fatalf("TR axis dirtied %d and kept %d cells; want a proper split", changed, unchanged)
	}

	// Host-dependent or unserializable outputs are uncacheable.
	ms := testGrid()
	ms.MemStats = true
	for _, c := range mustCells(t, ms) {
		if c.Input != "" {
			t.Fatal("MemStats cell carries a content address")
		}
	}
	tr := testGrid()
	tr.Trace = 1
	for _, c := range mustCells(t, tr) {
		if c.Input != "" {
			t.Fatal("Trace cell carries a content address")
		}
	}
}
