// tuning: explore the three-dimensional parameter space of RMA-RW
// (Figure 1 of the paper) on a three-level machine — racks, nodes,
// processes — and report the best configuration for a given workload,
// following the paper's §6 tuning recipe (fix T_DC first, then T_R and
// T_L,i).
//
// Run with: go run ./examples/tuning
package main

import (
	"fmt"
	"log"

	"rmalocks"
)

const (
	racks = 2
	nodes = 4
	ppn   = 8
	fwPct = 5 // writer percentage of the workload to tune for
	iters = 80
)

type config struct {
	tdc int
	tr  int64
	tl  []int64 // machine level, rack level, node level
}

func throughput(cfg config) float64 {
	machine := rmalocks.NewMachine(rmalocks.MachineSpec{Racks: racks, Nodes: nodes, ProcsPerNode: ppn})
	lock, err := rmalocks.NewLock(machine, "RMA-RW",
		rmalocks.Tune("TDC", int64(cfg.tdc)), rmalocks.Tune("TR", cfg.tr), rmalocks.TuneLevels("TL", cfg.tl...))
	if err != nil {
		log.Fatal(err)
	}
	err = machine.Run(func(p *rmalocks.Proc) {
		rng := p.Rand()
		for i := 0; i < iters; i++ {
			if rng.Intn(100) < fwPct {
				lock.AcquireWrite(p)
				p.Compute(200)
				lock.ReleaseWrite(p)
			} else {
				lock.AcquireRead(p)
				p.Compute(200)
				lock.ReleaseRead(p)
			}
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	ops := float64(machine.Procs() * iters)
	return ops / float64(machine.MaxClock()) * 1e3 // mln locks/s
}

func main() {
	fmt.Printf("Tuning RMA-RW on a %d-rack x %d-node x %d-proc machine, F_W=%d%%\n\n",
		racks, nodes, ppn, fwPct)

	// Step 1 (paper §6): T_DC has the largest impact; sweep it.
	fmt.Println("step 1: sweep T_DC (one counter every T_DC-th process)")
	bestTDC, bestT := 0, 0.0
	for _, tdc := range []int{2, 4, 8, 16, 32} {
		th := throughput(config{tdc: tdc, tr: 1000, tl: []int64{4, 8, 16}})
		marker := ""
		if th > bestT {
			bestT, bestTDC = th, tdc
			marker = "  <-- best so far"
		}
		fmt.Printf("  T_DC=%-3d  %6.3f mln locks/s%s\n", tdc, th, marker)
	}

	// Step 2: with T_DC fixed, trade reader vs writer throughput via T_R.
	fmt.Println("\nstep 2: sweep T_R (consecutive readers per counter)")
	bestTR, bestT2 := int64(0), 0.0
	for _, tr := range []int64{100, 500, 1000, 3000, 6000} {
		th := throughput(config{tdc: bestTDC, tr: tr, tl: []int64{4, 8, 16}})
		marker := ""
		if th > bestT2 {
			bestT2, bestTR = th, tr
			marker = "  <-- best so far"
		}
		fmt.Printf("  T_R=%-5d %6.3f mln locks/s%s\n", tr, th, marker)
	}

	// Step 3: locality vs fairness via the T_L split across the three
	// levels (larger thresholds on more expensive levels).
	fmt.Println("\nstep 3: sweep the T_L,i split (machine-rack-node)")
	type split struct {
		name string
		tl   []int64
	}
	bestName, bestT3 := "", 0.0
	for _, s := range []split{
		{"2-8-32", []int64{2, 8, 32}},
		{"4-8-16", []int64{4, 8, 16}},
		{"8-8-8", []int64{8, 8, 8}},
		{"16-8-4", []int64{16, 8, 4}},
	} {
		th := throughput(config{tdc: bestTDC, tr: bestTR, tl: s.tl})
		marker := ""
		if th > bestT3 {
			bestT3, bestName = th, s.name
			marker = "  <-- best so far"
		}
		fmt.Printf("  T_L=%-8s %6.3f mln locks/s%s\n", s.name, th, marker)
	}

	fmt.Printf("\nrecommended: T_DC=%d, T_R=%d, T_L=%s  (%.3f mln locks/s)\n",
		bestTDC, bestTR, bestName, bestT3)
}
