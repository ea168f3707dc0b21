// Command lockbench regenerates the figures of the paper's evaluation
// (Figures 3–6) and this repository's two ablations on the simulated
// machine.
//
// Usage:
//
//	lockbench -figure 3b -scale medium
//	lockbench -figure all -scale quick -csv
//	lockbench -ablation all
//
// Figures: 3a–3e (RMA-MCS vs D-MCS vs foMPI-Spin), 4a–4f (RMA-RW
// parameter studies), 5a–5c (RMA-RW vs foMPI-RW), 6 (the distributed
// hashtable: foMPI-A vs foMPI-RW vs RMA-RW). Ablations: locality,
// network. Scales: quick, medium, full (the paper's 8…1024 process
// sweep). All cells of an invocation run as one sweep on every core.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"rmalocks/internal/bench"
)

func main() {
	var (
		figure   = flag.String("figure", "all", "figure to regenerate (3a..3e, 4a..4f, 5a..5c, 6, or 'all')")
		ablation = flag.String("ablation", "", "run an ablation instead: locality, network, or 'all'")
		scale    = flag.String("scale", "quick", "sweep size: quick, medium, full")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
	)
	flag.Parse()

	sc, err := bench.ScaleByName(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	figs, name := bench.Figures(sc), *figure
	if *ablation != "" {
		figs, name = bench.Ablations(sc), *ablation
	}
	start := time.Now()
	figs, err = bench.Pick(figs, name)
	var rows [][]bench.Row
	if err == nil {
		rows, err = bench.Run(figs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for i, f := range figs {
		t := f.Table(rows[i])
		if *csv {
			fmt.Printf("# %s\n%s\n", t.Title, t.CSV())
		} else {
			fmt.Println(t.String())
		}
	}
	fmt.Fprintf(os.Stderr, "[%d tables done in %v]\n", len(figs), time.Since(start).Round(time.Millisecond))
}
