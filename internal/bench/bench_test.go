package bench

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rmalocks/internal/rma"
	"rmalocks/internal/sweep"
)

// figure picks one figure or ablation by name and runs it.
func figure(t *testing.T, figs []Figure, name string) (Figure, []Row) {
	t.Helper()
	one, err := Pick(figs, name)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Run(one)
	if err != nil {
		t.Fatal(err)
	}
	return one[0], rows[0]
}

// labelled keeps the rows that carry label in any label column.
func labelled(rows []Row, label string) []Row {
	var out []Row
	for _, r := range rows {
		for _, l := range r.Labels {
			if l == label {
				out = append(out, r)
				break
			}
		}
	}
	return out
}

func TestRunMutexAllSchemes(t *testing.T) {
	_, rows := figure(t, Figures(Scale{Ps: []int{16}, Iters: 20}), "3b")
	for _, scheme := range []string{SchemeFoMPISpin, SchemeDMCS, SchemeRMAMCS} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			got := labelled(rows, scheme)
			if len(got) != 1 {
				t.Fatalf("%d rows, want 1", len(got))
			}
			r := got[0].Report
			if r.Ops != 16*20 {
				t.Errorf("Ops=%d want 320", r.Ops)
			}
			if r.ThroughputMops <= 0 || r.Latency.Mean <= 0 {
				t.Errorf("non-positive throughput or latency: %+v", r)
			}
		})
	}
}

func TestRunMutexUnknownScheme(t *testing.T) {
	sc := Scale{Ps: []int{4}, Iters: 5}
	f := Figure{Columns: []string{"P"}, Series: []Series{{Grid: sc.grid("nope", "empty", 1)}}}
	if _, err := Run([]Figure{f}); err == nil {
		t.Error("want error for unknown scheme")
	}
}

func TestRunMutexWorkloads(t *testing.T) {
	figs := Figures(Scale{Ps: []int{8}, Iters: 15})
	for _, c := range []struct{ wl, fig string }{{"ECSB", "3b"}, {"SOB", "3c"}, {"WCSB", "3d"}, {"WARB", "3e"}} {
		c := c
		t.Run(c.wl, func(t *testing.T) {
			f, rows := figure(t, figs, c.fig)
			if !strings.Contains(f.Title, c.wl) {
				t.Errorf("figure %s is not the %s figure: %q", c.fig, c.wl, f.Title)
			}
			for _, r := range rows {
				if r.Report.ThroughputMops <= 0 {
					t.Errorf("bad result: %+v", r)
				}
			}
		})
	}
}

func TestWorkloadsOrderedByCost(t *testing.T) {
	// A CS with work (WCSB) must yield lower throughput than an empty CS.
	figs := Figures(Scale{Ps: []int{16}, Iters: 25})
	_, ecsb := figure(t, figs, "3b")
	_, wcsb := figure(t, figs, "3d")
	e := labelled(ecsb, SchemeDMCS)[0].Report.ThroughputMops
	w := labelled(wcsb, SchemeDMCS)[0].Report.ThroughputMops
	if w >= e {
		t.Errorf("WCSB %.3f >= ECSB %.3f mln/s", w, e)
	}
}

func TestRunRWSchemes(t *testing.T) {
	_, rows := figure(t, Figures(Scale{Ps: []int{16}, Iters: 20}), "5b")
	for _, scheme := range []string{SchemeRMARW, SchemeFoMPIRW} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			got := labelled(rows, scheme)
			if len(got) != 3 {
				t.Fatalf("%d rows, want one per F_W", len(got))
			}
			for _, r := range got {
				if r.Report.Ops != 16*20 || r.Report.ThroughputMops <= 0 {
					t.Errorf("bad result: %+v", r)
				}
			}
		})
	}
}

func TestRunRWDeterministic(t *testing.T) {
	figs := Figures(Scale{Ps: []int{16}, Iters: 20})
	_, a := figure(t, figs, "4c")
	_, b := figure(t, figs, "4c")
	if !reflect.DeepEqual(a, b) {
		t.Errorf("nondeterministic bench:\n%+v\n%+v", a, b)
	}
}

func TestRunDHTAllSchemes(t *testing.T) {
	_, rows := figure(t, Figures(Scale{Ps: []int{8}, DHTOps: 10}), "6")
	for _, scheme := range []string{SchemeFoMPIA, SchemeFoMPIRW, SchemeRMARW} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			got := labelled(rows, scheme)
			if len(got) != 4 {
				t.Fatalf("%d rows, want one per F_W", len(got))
			}
			for _, r := range got {
				rep := r.Report
				if rep.MakespanMs <= 0 {
					t.Errorf("bad total time: %+v", r)
				}
				if rep.Reads+rep.Writes != 7*10 { // P-1 clients
					t.Errorf("ops=%d want 70", rep.Reads+rep.Writes)
				}
				if r.Labels[0] == "20%" && rep.Extra["stored"] == 0 {
					t.Errorf("nothing stored despite inserts: %+v", r)
				}
			}
		})
	}
}

func TestRunDHTPureReads(t *testing.T) {
	_, rows := figure(t, Figures(Scale{Ps: []int{8}, DHTOps: 10}), "6")
	reads := labelled(rows, "0%")
	if len(reads) != 3 {
		t.Fatalf("%d pure-read rows, want one per scheme", len(reads))
	}
	for _, r := range reads {
		if r.Report.Writes != 0 || r.Report.Extra["stored"] != 0 {
			t.Errorf("pure-read run inserted: %+v", r)
		}
	}
}

func TestScaleByName(t *testing.T) {
	for _, n := range []string{"quick", "medium", "full"} {
		s, err := ScaleByName(n)
		if err != nil || s.Name != n {
			t.Errorf("ScaleByName(%q) = %+v, %v", n, s, err)
		}
	}
	if _, err := ScaleByName("bogus"); err == nil {
		t.Error("want error for bogus scale")
	}
}

// TestScaleRemoteOnlyTouchesRemote pins the network ablation: its series
// differ from the Figure 3b cell only in the inter-node cost percent the
// label names, and that percent scales the network alone — local and
// intra-node costs stay calibrated.
func TestScaleRemoteOnlyTouchesRemote(t *testing.T) {
	abl, err := Pick(Ablations(Scale{Ps: []int{16}, Iters: 10}), "network")
	if err != nil {
		t.Fatal(err)
	}
	base := map[string]sweep.Grid{}
	for _, s := range abl[0].Series {
		if s.Labels[0] == "100" {
			base[s.Labels[1]] = s.Grid
		}
	}
	for _, s := range abl[0].Series {
		g := s.Grid
		if fmt.Sprint(g.RemotePct) != s.Labels[0] {
			t.Errorf("series %v: RemotePct %d", s.Labels, g.RemotePct)
		}
		g.RemotePct = 100
		if !reflect.DeepEqual(g, base[s.Labels[1]]) {
			t.Errorf("series %v differs from the calibrated cell beyond RemotePct", s.Labels)
		}
	}
	lat, cal := rma.RemoteLatency(2, 200), rma.RemoteLatency(2, 100)
	if lat.DataRTT[0] != cal.DataRTT[0] || lat.DataRTT[1] != cal.DataRTT[1] {
		t.Error("local/intra-node latencies must not change")
	}
	if lat.DataRTT[2] != cal.DataRTT[2]*2 {
		t.Errorf("inter-node not doubled: %d vs %d", lat.DataRTT[2], cal.DataRTT[2])
	}
}

func TestRunFigureSmokeTiny(t *testing.T) {
	// Every figure must run at a scale its T_DC series do not all fit;
	// the golden pins what the tables say at Quick.
	figs := Figures(Scale{Name: "tiny", Ps: []int{8}, Iters: 8, DHTOps: 6})
	rows, err := Run(figs)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range figs {
		i, f := i, f
		t.Run(f.Name, func(t *testing.T) {
			tb := f.Table(rows[i])
			if len(tb.Rows) == 0 {
				t.Error("empty table")
			}
			if !strings.Contains(tb.Title, "Figure") {
				t.Errorf("bad title %q", tb.Title)
			}
		})
	}
	if _, err := Pick(figs, "9z"); err == nil {
		t.Error("want error for unknown figure")
	}
}

func TestAblationLocalityTable(t *testing.T) {
	f, rows := figure(t, Ablations(Scale{Ps: []int{16}, Iters: 15}), "locality")
	if len(rows) != 8 {
		t.Fatalf("rows=%d want 8", len(rows))
	}
	if !strings.Contains(f.Title, "T_L,2") {
		t.Errorf("bad title %q", f.Title)
	}
}

func TestAblationLocalityShortcutGrowsWithTL(t *testing.T) {
	// More locality budget must produce at least as many shortcuts.
	_, rows := figure(t, Ablations(Scale{Ps: []int{32}, Iters: 25}), "locality")
	lo, hi := labelled(rows, "1")[0].Report, labelled(rows, "128")[0].Report
	if hi.DirectEntries <= lo.DirectEntries {
		t.Errorf("shortcuts: TL=128 gave %d, TL=1 gave %d; expected growth",
			hi.DirectEntries, lo.DirectEntries)
	}
	if hi.ThroughputMops <= lo.ThroughputMops {
		t.Errorf("throughput: TL=128 %.3f <= TL=1 %.3f; locality should pay off",
			hi.ThroughputMops, lo.ThroughputMops)
	}
}

func TestAblationNetworkOrderingRobust(t *testing.T) {
	_, rows := figure(t, Ablations(Scale{Ps: []int{32}, Iters: 15}), "network")
	if len(rows) != 4*3 {
		t.Fatalf("rows=%d", len(rows))
	}
}

func TestRunAblationDispatch(t *testing.T) {
	abl := Ablations(Scale{Ps: []int{16}, Iters: 10})
	for _, f := range abl {
		figure(t, abl, f.Name)
	}
	if _, err := Pick(abl, "nope"); err == nil {
		t.Error("want error for unknown ablation")
	}
}

// TestEveryEvaluationCellAddressed pins the seam to the sweep engine:
// every cell of the evaluation comes from a grid and has a content
// address, so a cache can serve it and a sibling's run can derive it.
func TestEveryEvaluationCellAddressed(t *testing.T) {
	for _, figs := range [][]Figure{Figures(Quick), Ablations(Quick), claimFigures(Quick)} {
		for _, f := range figs {
			for _, s := range f.Series {
				cells, err := s.Grid.Cells()
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range cells {
					if !c.Key.Names(c.Input) {
						t.Errorf("figure %s %v: cell %s has address %q", f.Name, s.Labels, c.Key, c.Input)
					}
				}
			}
		}
	}
}

// TestShapesCrossTheWire: the two shapes that used to be built by hand —
// Figure 6's DHT benchmark and the network ablation's scaled latency —
// are grids a daemon can be sent, and run to the figures' own reports.
func TestShapesCrossTheWire(t *testing.T) {
	sc := Scale{Ps: []int{8, 32}, Iters: 10, DHTOps: 8}
	fig6, err := Pick(Figures(sc), "6")
	if err != nil {
		t.Fatal(err)
	}
	network, err := Pick(Ablations(sc), "network")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range append(fig6, network...) {
		rows, err := Run([]Figure{f})
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]bool{}
		for _, r := range rows[0] {
			want[r.Report.Fingerprint()] = true
		}
		got := 0
		for _, s := range f.Series {
			data, err := sweep.EncodeGrid(s.Grid)
			if err != nil {
				t.Fatal(err)
			}
			g, err := sweep.DecodeGrid(data)
			if err != nil {
				t.Fatal(err)
			}
			cells, err := g.Cells()
			if err != nil {
				t.Fatal(err)
			}
			results, err := sweep.Run(cells, sweep.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range results {
				if !want[r.Fingerprint] {
					t.Errorf("figure %s %v: cell %s from the wire is not a row of the figure", f.Name, s.Labels, r.Key)
				}
				got++
			}
		}
		if got != len(rows[0]) {
			t.Errorf("figure %s: %d cells from the wire, %d rows", f.Name, got, len(rows[0]))
		}
	}
}

// TestRunMutexEngineDifferential runs one figure value on both engines:
// the only difference between the two runs is Grid.Engine.
func TestRunMutexEngineDifferential(t *testing.T) {
	f, err := Pick(Figures(Scale{Ps: []int{16}, Iters: 10}), "3c")
	if err != nil {
		t.Fatal(err)
	}
	run := func(engine string) []Row {
		series := append([]Series(nil), f[0].Series...)
		for i := range series {
			series[i].Grid.ProcsPerNode, series[i].Grid.Seed = 4, 2
			series[i].Grid.Engine = engine
		}
		g := f[0]
		g.Series = series
		rows, err := Run([]Figure{g})
		if err != nil {
			t.Fatal(err)
		}
		return rows[0]
	}
	if fast, ref := run(""), run("ref"); !reflect.DeepEqual(fast, ref) {
		t.Errorf("engines diverged:\n fast: %+v\n ref:  %+v", fast, ref)
	}
}
