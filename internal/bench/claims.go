package bench

import (
	"fmt"
	"slices"
	"strconv"

	"rmalocks/internal/workload"
)

// Claim is one of the paper's headline results, re-checked against the
// simulation. Holds reports whether the *shape* of the claim (who wins,
// direction of the effect) reproduces; Detail carries the measured
// numbers and Paper what the paper reports, which EXPERIMENTS.md
// records side by side.
type Claim struct {
	ID          string
	Description string
	Paper       string
	Holds       bool
	Detail      string
}

// claimFigures lists what VerifyClaims measures: Figures 3b, 5b and 6 at
// the largest process count of the scale, plus two pairs no figure
// plots — D-MCS either side of the single-node regime, and RMA-RW at
// the default T_R against one low enough to be reached (a counter sees
// about 16·Iters reads in a run, so the thresholds of Figure 4e never
// are).
func claimFigures(sc Scale) []Figure {
	one := sc.largest()
	var figs []Figure
	for _, f := range Figures(one) {
		switch f.Name {
		case "3b", "5b", "6":
			figs = append(figs, f)
		}
	}
	spike := sc.grid(SchemeDMCS, "empty", 1)
	spike.Ps = []int{16, 32}
	var tr []Series
	for _, v := range []int64{trLow, trDefault} {
		tr = append(tr, Series{Labels: []string{fmt.Sprint(v)}, Grid: one.grid(SchemeRMARW, "empty", 0.002, tune("TR", v))})
	}
	return append(figs,
		Figure{Name: "spike", Columns: []string{"P"}, Series: []Series{{Grid: spike}}},
		Figure{Name: "tr", Columns: []string{"T_R"}, Series: tr})
}

// Claim C6's reader thresholds.
const trLow, trDefault = 100, 1000

// VerifyClaims checks the paper's key claims at the largest process
// count of the scale, over rows of the figures that plot them.
func VerifyClaims(sc Scale) ([]Claim, error) {
	P := sc.Ps[len(sc.Ps)-1]
	figs := claimFigures(sc)
	rows, err := Run(figs)
	if err != nil {
		return nil, err
	}
	// at is the report of the named figure's row with these label cells.
	at := func(name string, labels ...string) workload.Report {
		for fi, f := range figs {
			for _, r := range rows[fi] {
				if f.Name == name && slices.Equal(r.Labels, labels) {
					return r.Report
				}
			}
		}
		if err == nil {
			err = fmt.Errorf("bench: claims: figure %s has no row %v", name, labels)
		}
		return workload.Report{}
	}
	atP := strconv.Itoa(P)
	lat := func(s string) float64 { return at("3b", atP, s).Latency.Mean }
	thr := func(s string) float64 { return at("3b", atP, s).ThroughputMops }
	rw := func(s string, fw float64) float64 { return at("5b", atP, s, fwLabel(fw)).ThroughputMops }
	dht := func(s string, fw float64) float64 { return at("6", fwLabel(fw), atP, s).MakespanMs }
	d16, d32 := at("spike", "16").ThroughputMops, at("spike", "32").ThroughputMops
	trLo, trHi := at("tr", fmt.Sprint(trLow)).ThroughputMops, at("tr", fmt.Sprint(trDefault)).ThroughputMops

	claims := []Claim{{
		ID:          "C1-latency",
		Description: fmt.Sprintf("§5.1: RMA-MCS acquire+release latency beats foMPI-Spin and D-MCS at P=%d", P),
		Paper:       "≈10x below foMPI-Spin and ≈4x below D-MCS at P=1024",
		Holds:       lat(SchemeRMAMCS) < lat(SchemeDMCS) && lat(SchemeRMAMCS) < lat(SchemeFoMPISpin),
		Detail: fmt.Sprintf("mean latency µs: RMA-MCS=%.1f D-MCS=%.1f foMPI-Spin=%.1f (ratios %.1fx, %.1fx)",
			lat(SchemeRMAMCS), lat(SchemeDMCS), lat(SchemeFoMPISpin),
			lat(SchemeFoMPISpin)/lat(SchemeRMAMCS), lat(SchemeDMCS)/lat(SchemeRMAMCS)),
	}, {
		ID:          "C2-mutex-throughput",
		Description: fmt.Sprintf("§5.1: RMA-MCS ECSB throughput beats D-MCS and foMPI-Spin at P=%d", P),
		Paper:       "RMA-MCS highest of the three at scale",
		Holds:       thr(SchemeRMAMCS) > thr(SchemeDMCS) && thr(SchemeRMAMCS) > thr(SchemeFoMPISpin),
		Detail: fmt.Sprintf("mln locks/s: RMA-MCS=%.2f D-MCS=%.2f foMPI-Spin=%.3f",
			thr(SchemeRMAMCS), thr(SchemeDMCS), thr(SchemeFoMPISpin)),
	}, {
		ID:          "C3-intranode-spike",
		Description: "§5.1: ECSB throughput drops when leaving the single-node regime (P=16→32, D-MCS)",
		Paper:       "throughput peaks while all processes share a node, then falls",
		Holds:       d32 < d16,
		Detail:      fmt.Sprintf("D-MCS mln locks/s: P=16 %.2f → P=32 %.2f", d16, d32),
	}, {
		ID:          "C4-rw-vs-fompi",
		Description: fmt.Sprintf("§5.2.4: RMA-RW outperforms foMPI-RW at P=%d for every F_W", P),
		Paper:       ">6x for P≥64",
		Holds: rw(SchemeRMARW, 0.002) > rw(SchemeFoMPIRW, 0.002) &&
			rw(SchemeRMARW, 0.02) > rw(SchemeFoMPIRW, 0.02) &&
			rw(SchemeRMARW, 0.05) > rw(SchemeFoMPIRW, 0.05),
		Detail: fmt.Sprintf("mln locks/s at F_W=0.2%%: RMA-RW=%.2f foMPI-RW=%.2f (%.1fx); "+
			"F_W=2%%: %.2f vs %.2f; F_W=5%%: %.2f vs %.2f",
			rw(SchemeRMARW, 0.002), rw(SchemeFoMPIRW, 0.002), rw(SchemeRMARW, 0.002)/rw(SchemeFoMPIRW, 0.002),
			rw(SchemeRMARW, 0.02), rw(SchemeFoMPIRW, 0.02),
			rw(SchemeRMARW, 0.05), rw(SchemeFoMPIRW, 0.05)),
	}, {
		ID:          "C5-fw-ordering",
		Description: "§5.2.4: lower writer fraction gives higher RW throughput (0.2% > 2% > 5%)",
		Paper:       "0.2% > 2% > 5%",
		Holds:       rw(SchemeRMARW, 0.002) > rw(SchemeRMARW, 0.02) && rw(SchemeRMARW, 0.02) > rw(SchemeRMARW, 0.05),
		Detail: fmt.Sprintf("RMA-RW mln locks/s: 0.2%%=%.2f 2%%=%.2f 5%%=%.2f",
			rw(SchemeRMARW, 0.002), rw(SchemeRMARW, 0.02), rw(SchemeRMARW, 0.05)),
	}, {
		ID:          "C6-tr-preference",
		Description: "§5.2.3: increasing T_R improves read-dominated throughput (F_W=0.2%)",
		Paper:       "larger T_R, higher throughput at F_W=0.2%",
		// Strict: two runs the threshold does not tell apart are not
		// evidence of its effect.
		Holds:  trHi > trLo,
		Detail: fmt.Sprintf("mln locks/s: T_R=%d %.2f vs T_R=%d %.2f", trDefault, trHi, trLow, trLo),
	}, {
		ID:          "C7-dht",
		Description: fmt.Sprintf("§5.3: RMA-RW beats foMPI-RW on the DHT at F_W=5%%, P=%d", P),
		Paper:       "RMA-RW below foMPI-RW in total time; foMPI-A lowest",
		Holds:       dht(SchemeRMARW, 0.05) < dht(SchemeFoMPIRW, 0.05),
		Detail: fmt.Sprintf("total ms at F_W=5%%: RMA-RW=%.2f foMPI-RW=%.2f foMPI-A=%.2f; "+
			"F_W=0%%: RMA-RW=%.2f foMPI-RW=%.2f",
			dht(SchemeRMARW, 0.05), dht(SchemeFoMPIRW, 0.05), dht(SchemeFoMPIA, 0.05),
			dht(SchemeRMARW, 0), dht(SchemeFoMPIRW, 0)),
	}}
	// A row at did not find is a bug in the lookups above, not a result.
	if err != nil {
		return nil, err
	}
	return claims, nil
}
