package sweep

import (
	"bytes"
	"fmt"
	"strings"
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
// with derivation on, must carry the fingerprint, and encode to the
// bytes, of a cold run on the reference engine (which never derives).
// The derived cells' bytes are spliced from their sources' over the TR,
// TL1/TL2 and TDC axes, so the byte comparison holds the splice to the
// encoder. The pinned derived counts keep
// it from passing vacuously: a witness that admitted nothing would
// derive nothing, one that admitted too much would derive a binding
// cell and fail the comparison. Kept beside the identity matrix: it pins
// derived counts on the evaluation's grids, not on the identity grid.
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
			// Four workers: a group runs on one of them, so the derived
			// cells are those of a serial run.
			got, err := Run(hot, Options{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			want, err := Run(cold, Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			derived := 0
			for i := range got {
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
				// A derived cell's bytes are spliced, not marshalled: a
				// fragment one byte off keeps the fingerprint right.
				if got[i].Derived && got[i].frag == nil {
					t.Errorf("%s: derived without a fragment", got[i].Key)
				}
				g, err := Encode(RunFile{Cells: got[i : i+1]})
				if err != nil {
					t.Fatal(err)
				}
				w, err := Encode(RunFile{Cells: want[i : i+1]})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(g, w) {
					t.Errorf("%s (derived %v) encodes differently from its cold run:\n got %s\nwant %s",
						got[i].Key, got[i].Derived, g, w)
				}
			}
			if derived != tc.derived {
				t.Errorf("%d of %d cells derived, want %d", derived, len(got), tc.derived)
			}
		})
	}
}

// sameGroups reports the first cell for which SiblingOf disagrees with
// the cell's own description: the group address is the cell's with its
// tunables cleared, and the scheme and tunables are the cell's. It
// returns "" when they agree.
func sameGroups(cells []Cell) string {
	var buf []byte
	for _, c := range cells {
		sib := *c.cs
		sib.Tunables, sib.tun = "", nil
		buf = sib.appendInput(buf[:0], nil)
		a, name, tun, ok := SiblingOf(c.Input)
		if !ok || a != string(buf) || name != c.Key.Scheme || tun.Canonical() != c.Key.Tunables {
			return fmt.Sprintf("SiblingOf(%q) = %q, %q, %v, %v; want %q", c.Input, a, name, tun, ok, buf)
		}
	}
	return ""
}

// TestSiblingOfClearsTunables: the sibling group of an address,
// recomputed from the address alone, is the cell's description with its
// tunables cleared, and the scheme and tunables are the cell's. Strings
// that are not current addresses have no group.
func TestSiblingOfClearsTunables(t *testing.T) {
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
	if msg := sameGroups(cells); msg != "" {
		t.Error(msg)
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

// FuzzSiblingOf drives the parser that takes a stored entry's address
// back to its sibling group, the only route by which a derived cell
// reaches stored bytes. Whatever the address, SiblingOf must not panic,
// and a group it returns is an address of its own, with no tunables,
// in the same group. For the cells of a grid DecodeGrid accepts, it
// returns each cell's description with the tunables cleared, scheme and
// tunables.
func FuzzSiblingOf(f *testing.F) {
	const grid = `{"schemes":["foMPI-Spin","RMA-MCS","RMA-RW"],"workloads":["empty","dht"],"profiles":["uniform"],"ps":[8,16],"iters":5,"tunables":[{"key":"TR","values":[200,400]},{"key":"TL2","values":[4,8]}]`
	f.Add([]byte(grid+`}`), "cell/v2 RMA-RW/empty/uniform/P=8/TL2=4,TR=200 ppn=16 iters=5")
	f.Add([]byte(grid+`,"faults":["jitter=0.2"],"engine":"ref"}`), "cell/v2 RMA-RW/empty/uniform/P=8/faults=jitter=0.2 ppn=16")
	f.Add([]byte(`{"schemes":["RMA-RW"],"workloads":["dhtvol"],"profiles":["zipf"],"ps":[4],"remote_pct":400}`), "cell/v2 RMA-RW/empty/uniform/P=8/TR=1/TR=2 ppn=16")
	f.Add([]byte(nil), "cell/v2 RMA-RW/empty/uniform/P=08 ppn=16")
	f.Fuzz(func(t *testing.T, body []byte, input string) {
		if group, name, tun, ok := SiblingOf(input); ok {
			g2, name2, tun2, ok2 := SiblingOf(group)
			if !ok2 || g2 != group || name2 != name || len(tun2) != 0 {
				t.Fatalf("SiblingOf(%q) = %q, but SiblingOf of that = %q, %q, %v, %v", input, group, g2, name2, tun2, ok2)
			}
			if (len(tun) == 0) != (group == input) {
				t.Fatalf("SiblingOf(%q) = %q with tunables %v", input, group, tun)
			}
		}
		g, err := DecodeGrid(body)
		if err != nil {
			return
		}
		n := len(g.Schemes) * len(g.Workloads) * len(g.Profiles) * max(len(g.Ps), 1) * (len(g.Faults) + 1)
		for _, ax := range g.Tunables {
			n *= max(len(ax.Values), 1)
		}
		if n > 1<<10 {
			return // enumerating it would measure the fuzzer's memory, not the parser
		}
		cells, err := g.Cells()
		if err != nil {
			return
		}
		for _, c := range cells {
			if !strings.HasPrefix(c.Input, inputPrefix) {
				t.Fatalf("cell %s has address %q", c.Key, c.Input)
			}
		}
		if msg := sameGroups(cells); msg != "" {
			t.Fatal(msg)
		}
	})
}
