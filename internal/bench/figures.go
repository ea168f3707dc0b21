package bench

import (
	"fmt"
	"slices"

	"rmalocks/internal/rma"
	"rmalocks/internal/scheme"
	"rmalocks/internal/sweep"
	"rmalocks/internal/workload"
)

// Metric columns and the projections behind them.
const (
	thrCol = "Throughput[mln/s]"
	latCol = "MeanLatency[us]"
)

func throughput(r workload.Report) float64  { return r.ThroughputMops }
func meanLatency(r workload.Report) float64 { return r.Latency.Mean }
func p99Latency(r workload.Report) float64  { return r.Latency.P99 }
func totalTime(r workload.Report) float64   { return r.MakespanMs }

// shortcutPct is the share of acquisitions that entered through an
// intra-element pass; DirectEntries counts warm-up cycles, so they are
// in the denominator too.
func shortcutPct(r workload.Report) float64 {
	return float64(r.DirectEntries) / float64(r.Ops+r.WarmupOps) * 100
}

// fwLabel formats a writer fraction the way the paper does ("0.2%").
func fwLabel(fw float64) string { return fmt.Sprintf("%g%%", fw*100) }

// grid is the cell shape the microbenchmarks share: one lock under the
// uniform profile, swept over the scale's process counts. The paper's
// benchmark names map onto workloads: ECSB and LB are "empty", SOB is
// "sharedop", WCSB is "counter", WARB is "empty" with think time.
func (sc Scale) grid(schemeName, wl string, fw float64, tun ...sweep.TunableAxis) sweep.Grid {
	return sweep.Grid{Schemes: []string{schemeName}, Workloads: []string{wl}, Profiles: []string{"uniform"},
		Ps: sc.Ps, Iters: sc.Iters, FW: fw, Locks: 1, Tunables: tun}
}

// largest is the scale reduced to its largest process count.
func (sc Scale) largest() Scale {
	sc.Ps = sc.Ps[len(sc.Ps)-1:]
	return sc
}

func tune(key string, v int64) sweep.TunableAxis {
	return sweep.TunableAxis{Key: key, Values: []int64{v}}
}

// Figures lists the paper's Figures 3–6 at the scale. A figure is added
// by adding a value here.
func Figures(sc Scale) []Figure {
	// §5.1: a series per mutex scheme, every entry exclusive.
	mutexes := func(wl string, thinkNs, jitterNs int64) []Series {
		var out []Series
		for _, s := range scheme.Mutexes() {
			g := sc.grid(s, wl, 1)
			g.ThinkNs, g.ThinkJitterNs = thinkNs, jitterNs
			out = append(out, Series{Labels: []string{s}, Grid: g})
		}
		return out
	}
	// §5.2: RMA-RW with one tunable moved off its default (T_DC one
	// counter per node, T_R 1000, T_L,1–T_L,2 40–25).
	rmaRW := func(label, wl string, fw float64, tun ...sweep.TunableAxis) Series {
		return Series{Labels: []string{label}, Grid: sc.grid(SchemeRMARW, wl, fw, tun...)}
	}

	var tdc, tw, splitThr, splitLat, tr, trFW []Series
	for _, v := range []int64{64, 32, 16, 8, 4, 2} {
		s := rmaRW(fmt.Sprint(v), "sharedop", 0.02, tune("TDC", v))
		// A counter every T_DC-th process needs T_DC ≤ P.
		s.Grid.Ps = slices.DeleteFunc(slices.Clone(sc.Ps), func(p int) bool { return int64(p) < v })
		if len(s.Grid.Ps) > 0 { // an empty Ps would mean the grid's default
			tdc = append(tdc, s)
		}
	}
	// Π T_L,i = T_W, as (T_L,1, T_L,2) near the paper's node-level values.
	for _, v := range [][2]int64{{50, 10}, {100, 10}, {100, 25}, {100, 50}, {100, 75}} {
		tw = append(tw, rmaRW(fmt.Sprint(v[0]*v[1]), "sharedop", 0.25, tune("TL1", v[0]), tune("TL2", v[1])))
	}
	// Splits of T_W = 1000, labelled T_L,2-T_L,1 as in the paper's legend.
	for _, v := range [][2]int64{{50, 20}, {25, 40}, {10, 100}} {
		label := fmt.Sprintf("%d-%d", v[0], v[1])
		splitThr = append(splitThr, rmaRW(label, "sharedop", 0.25, tune("TL2", v[0]), tune("TL1", v[1])))
		splitLat = append(splitLat, rmaRW(label, "empty", 0.25, tune("TL2", v[0]), tune("TL1", v[1])))
	}
	for _, v := range []int64{6000, 5000, 4000, 3000, 2000, 1000} {
		tr = append(tr, rmaRW(fmt.Sprint(v), "empty", 0.002, tune("TR", v)))
	}
	for _, fw := range []float64{0.02, 0.05} {
		for _, v := range []int64{3000, 4000, 5000} {
			trFW = append(trFW, rmaRW(fmt.Sprintf("%d-%g", v, fw*100), "empty", fw, tune("TR", v)))
		}
	}
	// §5.2.4: a series per RW scheme and writer fraction.
	rwVs := func(wl string) []Series {
		var out []Series
		for _, s := range []string{SchemeRMARW, SchemeFoMPIRW} {
			for _, fw := range []float64{0.002, 0.02, 0.05} {
				out = append(out, Series{Labels: []string{s, fwLabel(fw)}, Grid: sc.grid(s, wl, fw)})
			}
		}
		return out
	}
	// §5.3: a series per writer fraction (the paper's subfigures a–d)
	// and scheme.
	var dht []Series
	for _, fw := range []float64{0.20, 0.05, 0.02, 0.0} {
		for _, s := range []string{SchemeFoMPIA, SchemeFoMPIRW, SchemeRMARW} {
			var cells []sweep.Cell
			for _, p := range sc.Ps {
				cells = append(cells, dhtCell(s, p, sc.DHTOps, fw))
			}
			dht = append(dht, Series{Labels: []string{fwLabel(fw), s}, Cells: cells})
		}
	}

	mutexCols := func(metric string) []string { return []string{"P", "Scheme", metric} }
	return []Figure{
		{Name: "3a", Title: "Figure 3a: ECSB, MeanLatency[us] vs P",
			Columns: mutexCols(latCol), Metrics: []Metric{meanLatency}, Series: mutexes("empty", 0, 0)},
		{Name: "3b", Title: "Figure 3b: ECSB, Throughput[mln/s] vs P",
			Columns: mutexCols(thrCol), Metrics: []Metric{throughput}, Series: mutexes("empty", 0, 0)},
		{Name: "3c", Title: "Figure 3c: SOB, Throughput[mln/s] vs P",
			Columns: mutexCols(thrCol), Metrics: []Metric{throughput}, Series: mutexes("sharedop", 0, 0)},
		{Name: "3d", Title: "Figure 3d: WCSB, Throughput[mln/s] vs P",
			Columns: mutexCols(thrCol), Metrics: []Metric{throughput}, Series: mutexes("counter", 0, 0)},
		// Wait-after-release: a 1–4 µs pause between releases.
		{Name: "3e", Title: "Figure 3e: WARB, Throughput[mln/s] vs P",
			Columns: mutexCols(thrCol), Metrics: []Metric{throughput}, Series: mutexes("empty", 1000, 3000)},
		{Name: "4a", Title: "Figure 4a: T_DC analysis, SOB, F_W=2%",
			Columns: []string{"P", "T_DC", thrCol}, Metrics: []Metric{throughput}, Series: tdc},
		{Name: "4b", Title: "Figure 4b: Π T_L,i analysis, SOB, F_W=25%",
			Columns: []string{"P", "TL_product", thrCol}, Metrics: []Metric{throughput}, Series: tw},
		{Name: "4c", Title: "Figure 4c: T_L,i analysis, SOB, F_W=25%",
			Columns: []string{"P", "TL2-TL1", thrCol}, Metrics: []Metric{throughput}, Series: splitThr},
		{Name: "4d", Title: "Figure 4d: T_L,i analysis, LB, F_W=25%",
			Columns: []string{"P", "TL2-TL1", latCol}, Metrics: []Metric{meanLatency}, Series: splitLat},
		{Name: "4e", Title: "Figure 4e: T_R analysis, ECSB, F_W=0.2%",
			Columns: []string{"P", "T_R", thrCol}, Metrics: []Metric{throughput}, Series: tr},
		{Name: "4f", Title: "Figure 4f: T_R analysis, ECSB, F_W in {2%, 5%}",
			Columns: []string{"P", "T_R-FW", thrCol}, Metrics: []Metric{throughput}, Series: trFW},
		{Name: "5a", Title: "Figure 5a: RMA-RW vs foMPI-RW, ECSB, MeanLatency[us]",
			Columns: []string{"P", "Scheme", "F_W", latCol}, Metrics: []Metric{meanLatency}, Series: rwVs("empty")},
		{Name: "5b", Title: "Figure 5b: RMA-RW vs foMPI-RW, ECSB, Throughput[mln/s]",
			Columns: []string{"P", "Scheme", "F_W", thrCol}, Metrics: []Metric{throughput}, Series: rwVs("empty")},
		{Name: "5c", Title: "Figure 5c: RMA-RW vs foMPI-RW, SOB, Throughput[mln/s]",
			Columns: []string{"P", "Scheme", "F_W", thrCol}, Metrics: []Metric{throughput}, Series: rwVs("sharedop")},
		{Name: "6", Title: "Figure 6: DHT total time [ms], foMPI-A vs foMPI-RW vs RMA-RW",
			Columns: []string{"F_W", "P", "Scheme", "TotalTime[ms]"}, Metrics: []Metric{totalTime}, Series: dht},
	}
}

// Ablations lists the studies DESIGN.md calls out, which probe a design
// choice directly rather than reproduce a paper figure, at the scale's
// largest process count.
//
//   - locality: the fairness-vs-locality trade of the node-level
//     threshold T_L,2 of RMA-MCS (Figure 1's DQ axis) — throughput, tail
//     latency and the share of acquisitions that short-cut within a node.
//   - network: the Figure 3b comparison with the inter-node costs scaled,
//     checking that the paper's ordering (RMA-MCS ≥ D-MCS ≥ foMPI-Spin at
//     scale) is a property of having any expensive network, not of one
//     calibration point.
func Ablations(sc Scale) []Figure {
	sc = sc.largest()
	P := sc.Ps[0]
	var locality, network []Series
	for _, tl := range []int64{1, 2, 4, 8, 16, 32, 64, 128} {
		locality = append(locality, Series{Labels: []string{fmt.Sprint(tl)},
			Grid: sc.grid(SchemeRMAMCS, "empty", 1, tune("TL2", tl))})
	}
	for _, pct := range []int64{50, 100, 200, 400} {
		for _, s := range scheme.Mutexes() {
			network = append(network, Series{Labels: []string{fmt.Sprint(pct), s},
				Cells: []sweep.Cell{netCell(s, P, sc.Iters, pct)}})
		}
	}
	return []Figure{
		{Name: "locality", Title: fmt.Sprintf("Ablation: T_L,2 fairness-vs-locality trade, RMA-MCS, ECSB, P=%d", P),
			Columns: []string{"T_L2", thrCol, "MeanLat[us]", "P99Lat[us]", "Shortcut[%]"},
			Metrics: []Metric{throughput, meanLatency, p99Latency, shortcutPct}, Series: locality},
		{Name: "network", Title: fmt.Sprintf("Ablation: inter-node cost sensitivity, ECSB, P=%d", P),
			Columns: []string{"NetScale[%]", "Scheme", thrCol}, Metrics: []Metric{throughput}, Series: network},
	}
}

// dhtCell is one run of the paper's DHT benchmark (§5.3): P−1 processes
// issue ops operations each against the volume of rank 0, an insert with
// probability fw and a lookup of a random key otherwise, with no warm-up
// phase; foMPI-A runs the atomic operation family under no lock.
// NoLock, Skip and a disabled warm-up are not grid coordinates, so the
// cell is built by hand.
func dhtCell(schemeName string, P, ops int, fw float64) sweep.Cell {
	return sweep.Cell{
		Key: sweep.Key{Scheme: schemeName, Workload: "dht", Profile: "uniform", P: P},
		Spec: func() (workload.Spec, error) {
			atomic := schemeName == SchemeFoMPIA
			return workload.Spec{
				Scheme: schemeName, NoLock: atomic, P: P, Iters: ops, Warmup: -1,
				Profile: workload.Uniform{FW: fw},
				// Overflow cells for every insert the run can make.
				Workload: &workload.DHTOps{Cells: P*ops + 16, Atomic: atomic},
				Skip:     func(rank, procs int) bool { return rank == 0 },
			}, nil
		},
	}
}

// netCell is an ECSB mutex run under scaleRemote(pct); the latency model
// is not a grid coordinate, so the cell is built by hand.
func netCell(schemeName string, P, iters int, pct int64) sweep.Cell {
	return sweep.Cell{
		Key: sweep.Key{Scheme: schemeName, Workload: "empty", Profile: "uniform", P: P},
		Spec: func() (workload.Spec, error) {
			return workload.Spec{Scheme: schemeName, P: P, Iters: iters, Latency: scaleRemote(pct)}, nil
		},
	}
}

// scaleRemote returns the default latency model with every entry at
// distance >= 2 (inter-node and beyond) scaled to pct percent.
func scaleRemote(pct int64) func(maxDist int) rma.LatencyModel {
	return func(maxDist int) rma.LatencyModel {
		lat := rma.DefaultLatency(maxDist)
		scale := func(tab []int64) {
			for d := 2; d < len(tab); d++ {
				v := tab[d] * pct / 100
				if v < 1 {
					v = 1
				}
				tab[d] = v
			}
		}
		scale(lat.DataRTT)
		scale(lat.AtomicRTT)
		scale(lat.DataOcc)
		scale(lat.AtomicOcc)
		return lat
	}
}
