package sweep

import (
	"slices"
	"testing"

	"rmalocks/internal/fault"
)

// rmaRWGrid is one RMA-RW series of the Quick evaluation at P=64.
func rmaRWGrid(wl string, fw float64, axes ...TunableAxis) Grid {
	return Grid{Schemes: []string{"RMA-RW"}, Workloads: []string{wl}, Profiles: []string{"uniform"},
		Ps: []int{64}, Iters: 30, FW: fw, Locks: 1, Tunables: axes}
}

func axis(key string, vals ...int64) TunableAxis { return TunableAxis{Key: key, Values: vals} }

// TestDerivedCellsEqualColdRuns is the differential test of derivation:
// every cell of grids where thresholds bind and where they do not, run
// with derivation on, must carry the fingerprint of a cold run on the
// reference engine (which never derives). The pinned derived counts keep
// it from passing vacuously: a witness that admitted nothing would
// derive nothing, one that admitted too much would derive a binding
// cell and fail the comparison.
func TestDerivedCellsEqualColdRuns(t *testing.T) {
	var fig4bc []Grid
	// Figure 4b's (T_L,1, T_L,2) pairs, then 4c's splits of T_W = 1000
	// (its third, 100-10, is 4b's 1000): siblings across grids, as the
	// evaluation runs them.
	for _, v := range [][2]int64{{50, 10}, {100, 10}, {100, 25}, {100, 50}, {100, 75}, {20, 50}, {40, 25}} {
		fig4bc = append(fig4bc, rmaRWGrid("sharedop", 0.25, axis("TL1", v[0]), axis("TL2", v[1])))
	}
	locality := rmaRWGrid("empty", 1, axis("TL2", 1, 2, 4, 8, 16, 32, 64, 128))
	locality.Schemes = []string{"RMA-MCS"}
	for _, tc := range []struct {
		name    string
		grids   []Grid
		derived int
	}{
		// T_R = 100 binds (a counter sees ≈500 reads at this size); 200
		// does not, and its witness admits 500, 1000 and 6000.
		{"TR", []Grid{rmaRWGrid("empty", 0.002, axis("TR", 100, 200, 500, 1000, 6000))}, 3},
		// RMA-MCS's locality ablation: T_L,2 binds at every value.
		{"TL2-locality", []Grid{locality}, 0},
		// T_L,2 = 10 binds and 25 does not; T_W never does: two runs.
		{"fig4bc", fig4bc, 5},
		// examples/paramspace: T_DC is structure, so a TDC=1 cell never
		// comes from a TDC=16 run. T_R = 100 binds at TDC=16 only and
		// T_L,2 = 16 nowhere: 6 runs, 12 derived.
		{"paramspace", []Grid{{Schemes: []string{"RMA-RW"}, Workloads: []string{"empty"}, Profiles: []string{"uniform"},
			Ps: []int{64}, Iters: 60, FW: 0.02, Locks: 1,
			Tunables: []TunableAxis{axis("TR", 100, 1000, 6000), axis("TL2", 4, 16, 64), axis("TDC", 1, 16)}}}, 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var hot, cold []Cell
			for _, g := range tc.grids {
				cells, err := g.Cells()
				if err != nil {
					t.Fatal(err)
				}
				hot = append(hot, cells...)
				g.Engine = "ref"
				if cells, err = g.Cells(); err != nil {
					t.Fatal(err)
				}
				cold = append(cold, cells...)
			}
			got, err := Run(hot, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			want, err := Run(cold, Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			// Workers deriving from one another's runs, for -race.
			par, err := Run(hot, Options{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			derived := 0
			for i := range got {
				if par[i].Fingerprint != want[i].Fingerprint {
					t.Errorf("%s (4 workers, derived %v) differs from its cold run", par[i].Key, par[i].Derived)
				}
				if got[i].Derived {
					derived++
				}
				if want[i].Derived {
					t.Errorf("%s: derived on the reference engine", want[i].Key)
				}
				if got[i].Fingerprint != want[i].Fingerprint {
					t.Errorf("%s (derived %v) differs from its cold run:\n got %s\nwant %s",
						got[i].Key, got[i].Derived, got[i].Fingerprint, want[i].Fingerprint)
				}
			}
			if derived != tc.derived {
				t.Errorf("%d of %d cells derived, want %d", derived, len(got), tc.derived)
			}
		})
	}
}

// TestClaimOrder pins the order Run claims cells in: every sibling
// group's first cell before any group's second, and a grid without
// tunable axes — or with derivation off — in canonical order.
func TestClaimOrder(t *testing.T) {
	g := Grid{Schemes: []string{"foMPI-Spin", "RMA-MCS", "RMA-RW"}, Workloads: []string{"empty"},
		Profiles: []string{"uniform"}, Ps: []int{8, 16}, Iters: 5,
		Tunables: []TunableAxis{axis("TR", 200, 400), axis("TL2", 4, 8)}}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, c := range cells {
		keys = append(keys, c.Key.String())
	}
	pending := make([]int, len(cells))
	for i := range pending {
		pending[i] = i
	}
	order, _ := claimOrder(cells, pending, false)
	var got []string
	for _, i := range order {
		got = append(got, keys[i])
	}
	want := []string{
		"foMPI-Spin/empty/uniform/P=8", "foMPI-Spin/empty/uniform/P=16",
		"RMA-MCS/empty/uniform/P=8/TL2=4", "RMA-MCS/empty/uniform/P=16/TL2=4",
		"RMA-RW/empty/uniform/P=8/TL2=4,TR=200", "RMA-RW/empty/uniform/P=16/TL2=4,TR=200",
		"RMA-MCS/empty/uniform/P=8/TL2=8", "RMA-MCS/empty/uniform/P=16/TL2=8",
		"RMA-RW/empty/uniform/P=8/TL2=8,TR=200", "RMA-RW/empty/uniform/P=16/TL2=8,TR=200",
		"RMA-RW/empty/uniform/P=8/TL2=4,TR=400", "RMA-RW/empty/uniform/P=16/TL2=4,TR=400",
		"RMA-RW/empty/uniform/P=8/TL2=8,TR=400", "RMA-RW/empty/uniform/P=16/TL2=8,TR=400",
	}
	if !slices.Equal(got, want) {
		t.Errorf("claim order:\n got %q\nwant %q", got, want)
	}
	for _, check := range []bool{false, true} {
		cells := cells
		if !check {
			g.Tunables = nil
			if cells, err = g.Cells(); err != nil {
				t.Fatal(err)
			}
		}
		order, _ := claimOrder(cells, pending[:len(cells)], check)
		if !slices.Equal(order, pending[:len(cells)]) {
			t.Errorf("check=%v, %d cells: claim order %v, want canonical", check, len(cells), order)
		}
	}
}

// TestSiblingOfMatchesClaimOrder: the sibling group of an address,
// recomputed from the address alone as a cache does on load, is the
// group Run puts the cell in, and the scheme and tunables are the
// cell's. Strings that are not current addresses have no group.
func TestSiblingOfMatchesClaimOrder(t *testing.T) {
	jitter, err := fault.Parse("jitter=0.2")
	if err != nil {
		t.Fatal(err)
	}
	g := Grid{Schemes: []string{"foMPI-Spin", "RMA-MCS", "RMA-RW"}, Workloads: []string{"empty", "dht"},
		Profiles: []string{"uniform", "zipf"}, Ps: []int{8, 16}, Iters: 5,
		Tunables: []TunableAxis{axis("TR", 200, 400), axis("TL2", 4, 8)}, Faults: []*fault.Profile{jitter}}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	pending := make([]int, len(cells))
	for i := range pending {
		pending[i] = i
	}
	_, s := claimOrder(cells, pending, false)
	for i, c := range cells {
		group, name, tun, ok := SiblingOf(c.Input)
		if !ok || group != s.addr[s.group[i]] || name != c.Key.Scheme || tun.Canonical() != c.Key.Tunables {
			t.Errorf("SiblingOf(%q) = %q, %q, %v, %v; Run's group %q", c.Input, group, name, tun, ok, s.addr[s.group[i]])
		}
	}
	for _, in := range []string{
		"",
		"cell/v1 RMA-RW/empty/uniform/P=8 ppn=16",
		"cell/v2 RMA-RW/empty/uniform/P=8",
		"cell/v2 RMA-RW/empty/uniform/P=08 ppn=16",
		"cell/v2 RMA-RW/empty/P=8 ppn=16",
		"cell/v2 RMA-RW/empty/uniform/P=8/ ppn=16",
		"cell/v2 RMA-RW/empty/uniform/P=8/TR=01 ppn=16",
		"cell/v2 RMA-RW/empty/uniform/P=8/TR=1/TR=2 ppn=16",
		"cell/v2 RMA-RW/empty/uniform/P=8/faults=jitter=0.2/TR=1 ppn=16",
	} {
		if _, _, _, ok := SiblingOf(in); ok {
			t.Errorf("SiblingOf(%q) found a group", in)
		}
	}
}
