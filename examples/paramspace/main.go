// Paramspace reproduces a slice of the paper's parameter-space
// exploration (§3, Figure 1; §5.2.3): the RMA-RW lock's behaviour as a
// function of its three typed tunables — the reader threshold T_R, the
// locality thresholds T_L,i, and the distributed-counter threshold
// T_DC — on a read-dominated workload. The scheme registry makes the
// parameter space enumerable: the program first prints what the
// registry declares (capabilities, tunables, defaults, ranges), then
// sweeps a TR × TL2 × TDC cross-product through the sweep engine and
// prints one merged table.
//
// Run with:
//
//	go run ./examples/paramspace           # the full slice
//	go run ./examples/paramspace -smoke    # tiny grid (CI smoke mode)
package main

import (
	"flag"
	"fmt"
	"log"

	"rmalocks"
)

func main() {
	smoke := flag.Bool("smoke", false, "tiny grid for CI smoke runs")
	jobs := flag.Int("j", 0, "worker pool size (0 = GOMAXPROCS)")
	flag.Parse()
	if err := explore(*smoke, *jobs); err != nil {
		log.Fatal(err)
	}
}

// explore prints the registry, sweeps the slice and fails if a cell
// fails or the registry accepts an out-of-range tunable; the test calls
// it directly in both modes.
func explore(smoke bool, jobs int) error {
	// --- Discovery: the registry's view of the parameter space. ---
	fmt.Println("Registered lock schemes:")
	for _, name := range rmalocks.Schemes() {
		d, err := rmalocks.Describe(name)
		if err != nil {
			return err
		}
		fmt.Printf("  %-10s caps=%-8s %s\n", d.Name, d.Caps, d.Doc)
		for _, spec := range d.Tunables {
			key := spec.Key
			if spec.PerLevel {
				key += "<level>"
			}
			fmt.Printf("             %-9s default=%-5d range=[%d, %d]  %s\n",
				key, spec.Default, spec.Min, spec.Max, spec.Doc)
		}
	}
	fmt.Println()

	// --- The swept slice: RMA-RW under a read-dominated load (the
	// regime where T_R and the locality thresholds matter most). T_R
	// stays at 100 and above: T_R = 10 ends the T_DC = 1 cells in the
	// protocol's reader tail-starvation (DESIGN.md, "Verification
	// strategy"). ---
	grid := rmalocks.SweepGrid{
		Schemes:   []string{"RMA-RW"},
		Workloads: []string{"empty"},
		Profiles:  []string{"uniform"},
		Ps:        []int{64},
		Iters:     60,
		FW:        0.02, // 2% writers: the paper's read-dominated point
		Locks:     1,
		Tunables: []rmalocks.SweepTunableAxis{
			{Key: "TR", Values: []int64{100, 1000, 6000}},
			{Key: "TL2", Values: []int64{4, 16, 64}},
			{Key: "TDC", Values: []int64{1, 16}},
		},
	}
	if smoke {
		grid.Ps = []int{16}
		grid.Iters = 10
		grid.Tunables = []rmalocks.SweepTunableAxis{
			{Key: "TR", Values: []int64{100, 1000}},
			{Key: "TL2", Values: []int64{4, 32}},
		}
	}

	cells, err := grid.Cells()
	if err != nil {
		return err
	}
	results, err := rmalocks.RunSweep(cells, rmalocks.SweepOptions{Workers: jobs})
	if err != nil {
		return err
	}
	fmt.Println(rmalocks.SweepTable("RMA-RW parameter space: TR x TL2 x TDC (FW=2%)", results))

	// A validation taste: the registry rejects what the paper's Figure 1
	// would reject.
	_, err = rmalocks.NewLock(rmalocks.NewMachine(rmalocks.MachineSpec{}), "RMA-RW", rmalocks.Tune("TR", -5))
	if err == nil {
		return fmt.Errorf("paramspace: the registry accepted TR=-5")
	}
	fmt.Printf("validation works: %v\n", err)
	return nil
}
