package main

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// The registry axes spelled out: a scheme, workload or profile added to
// the programs' "all" later must not silently change what a workload of
// this benchmark measures.
var (
	allSchemes   = []string{"foMPI-Spin", "D-MCS", "RMA-MCS", "foMPI-RW", "RMA-RW"}
	rwSchemes    = []string{"foMPI-RW", "RMA-RW"}
	allWorkloads = []string{"empty", "sharedop", "counter", "dht"}
	allProfiles  = []string{"uniform", "zipf", "bursty", "sweep"}
)

type tuneAxis struct {
	Key    string
	Values []int64
}

// grid is the benchmark's one description of a sweep; the programs only
// ever see what flags() and wire() generate from it.
type grid struct {
	Schemes, Workloads, Profiles []string
	Ps                           []int
	Iters                        int
	Seed                         int64
	FW                           float64
	Locks                        int
	Tunes                        []tuneAxis
	// Cells is the cell count the grid must enumerate (tunable axes
	// apply only to the schemes that accept them, so it is not a plain
	// product); a run producing another count fails the check.
	Cells int
}

func joinInts(v []int) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = strconv.Itoa(x)
	}
	return strings.Join(s, ",")
}

// flags renders the grid as workbench flags. Every result-affecting
// flag is passed explicitly, so wire() can mirror what `workbench
// -submit` would send for the same flags.
func (g grid) flags() []string {
	f := []string{
		"-schemes", strings.Join(g.Schemes, ","),
		"-workloads", strings.Join(g.Workloads, ","),
		"-profiles", strings.Join(g.Profiles, ","),
		"-ps", joinInts(g.Ps),
		"-iters", strconv.Itoa(g.Iters),
		"-seed", strconv.FormatInt(g.Seed, 10),
		"-fw", strconv.FormatFloat(g.FW, 'g', -1, 64),
		"-locks", strconv.Itoa(g.Locks),
	}
	for _, t := range g.Tunes {
		vals := make([]string, len(t.Values))
		for i, v := range t.Values {
			vals[i] = strconv.FormatInt(v, 10)
		}
		f = append(f, "-tune", t.Key+"="+strings.Join(vals, ","))
	}
	return f
}

// wire renders the grid as the sweepd POST /jobs body, field for field
// what workbench sends for flags(): ppn and zipfs at the flag defaults,
// seed_set because -seed is always passed.
func (g grid) wire() []byte {
	type tunable struct {
		Key    string  `json:"key"`
		Values []int64 `json:"values"`
	}
	w := struct {
		Schemes   []string  `json:"schemes"`
		Workloads []string  `json:"workloads"`
		Profiles  []string  `json:"profiles"`
		Ps        []int     `json:"ps"`
		PPN       int       `json:"ppn"`
		Iters     int       `json:"iters"`
		Seed      int64     `json:"seed"`
		SeedSet   bool      `json:"seed_set"`
		FW        float64   `json:"fw"`
		Locks     int       `json:"locks"`
		ZipfS     float64   `json:"zipfs"`
		Tunables  []tunable `json:"tunables,omitempty"`
	}{
		Schemes: g.Schemes, Workloads: g.Workloads, Profiles: g.Profiles,
		Ps: g.Ps, PPN: 16, Iters: g.Iters, Seed: g.Seed, SeedSet: true,
		FW: g.FW, Locks: g.Locks, ZipfS: 1.2,
	}
	for _, t := range g.Tunes {
		w.Tunables = append(w.Tunables, tunable{Key: t.Key, Values: t.Values})
	}
	data, err := json.Marshal(w)
	if err != nil {
		panic(err) // plain strings and numbers always marshal
	}
	return data
}

// withTR returns the grid with a single-value TR axis: only the RMA-RW
// cells take the axis, so exactly those change address.
func (g grid) withTR(tr int64) grid {
	g.Tunes = []tuneAxis{{Key: "TR", Values: []int64{tr}}}
	return g
}

// only returns the grid restricted to one scheme, for checking the
// recomputed part of a daemon-dirty job against a local run.
func (g grid) only(scheme string, cells int) grid {
	g.Schemes = []string{scheme}
	g.Cells = cells
	return g
}

type workloadKind int

const (
	kindLocal workloadKind = iota
	kindDaemonWarm
	kindDaemonDirty
)

type workload struct {
	Name string
	Kind workloadKind
	// Grid is what a local workload runs per repetition and what a
	// daemon workload cold-fills and resubmits.
	Grid grid
	// DirtyCells is the number of cells a daemon-dirty job recomputes.
	DirtyCells int
	// RSSAfter is the job of the timed window after which a daemon
	// workload reads the daemon's peak RSS: about half the jobs a window
	// serves on the reference box, late enough that the garbage
	// collector's phase no longer decides the reading.
	RSSAfter int
}

var workloadNames = []string{"tiny-cells", "spin-contended", "queue-scale", "read-mostly", "daemon-warm", "daemon-dirty"}

// sweepGrid is the 240-cell grid the daemon workloads serve: every
// scheme, workload and profile at three small process counts.
func sweepGrid(seed int64, smoke bool) grid {
	g := grid{Schemes: allSchemes, Workloads: allWorkloads, Profiles: allProfiles,
		Ps: []int{16, 32, 64}, Iters: 50, Seed: seed, FW: 0.1, Locks: 8, Cells: 240}
	if smoke {
		g.Ps, g.Iters, g.Cells = []int{16}, 10, 80
	}
	return g
}

// trBase is the first TR value of a daemon-dirty run: above anything the
// other workloads use, distinct per seed, and far from overflow.
func trBase(seed int64) int64 {
	s := seed % 1000
	if s < 0 {
		s = -s
	}
	return 10000 + s*10000
}

// newWorkload derives a workload's inputs from the seed. Sizes give a
// repetition of about one second on the 2-core reference box; smoke cuts
// each to a few cells for the package test.
func newWorkload(name string, seed int64, smoke bool) (workload, error) {
	w := workload{Name: name}
	switch name {
	case "tiny-cells":
		w.Grid = grid{Schemes: allSchemes, Workloads: allWorkloads, Profiles: allProfiles,
			Ps: []int{8, 12, 16, 20, 24}, Iters: 10, Seed: seed, FW: 0.1, Locks: 8,
			Tunes: []tuneAxis{{"TR", []int64{200, 400, 600, 800}}, {"TL1", []int64{16, 64}}},
			Cells: 1040}
		if smoke {
			w.Grid.Ps, w.Grid.Cells = []int{8}, 208
		}
	case "spin-contended":
		w.Grid = grid{Schemes: []string{"foMPI-Spin", "foMPI-RW"}, Workloads: []string{"empty"},
			Profiles: []string{"uniform"}, Ps: []int{64, 128, 256}, Iters: 10, Seed: seed,
			FW: 1, Locks: 1, Cells: 6}
		if smoke {
			w.Grid.Ps, w.Grid.Cells = []int{16, 32}, 4
		}
	case "queue-scale":
		w.Grid = grid{Schemes: []string{"D-MCS", "RMA-MCS", "RMA-RW"}, Workloads: []string{"empty"},
			Profiles: []string{"uniform"}, Ps: []int{8192}, Iters: 8, Seed: seed,
			FW: 1, Locks: 1, Cells: 3}
		if smoke {
			w.Grid.Ps = []int{256}
		}
	case "read-mostly":
		w.Grid = grid{Schemes: rwSchemes, Workloads: []string{"dht", "counter"},
			Profiles: []string{"uniform", "zipf"}, Ps: []int{512}, Iters: 40, Seed: seed,
			FW: 0.02, Locks: 8, Cells: 8}
		if smoke {
			w.Grid.Ps, w.Grid.Iters = []int{32}, 10
		}
	case "daemon-warm":
		w.Kind, w.Grid, w.RSSAfter = kindDaemonWarm, sweepGrid(seed, smoke), 400
	case "daemon-dirty":
		w.Kind, w.Grid, w.RSSAfter = kindDaemonDirty, sweepGrid(seed, smoke), 20
		// RMA-RW's share of the grid: one scheme of five.
		w.DirtyCells = w.Grid.Cells / len(allSchemes)
	default:
		return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	return w, nil
}
