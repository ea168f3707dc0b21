// Faulttour demonstrates graceful vs pathological degradation under
// deterministic fault injection: the same stall-heavy fault profile is
// applied to a centralized CAS spinlock running bounded acquires with
// backoff (foMPI-Spin + timeout — a waiter that cannot enter in time
// abandons the attempt, so tails stay bounded) and to an MCS-queue
// lock (RMA-MCS — a queued waiter cannot leave, so every rank behind
// a stalled holder convoys and the tail latency explodes with the
// stall magnitude).
//
// Everything is reproducible: the fault schedule is a pure function of
// (machine seed, profile seed, rank, event index), so the "chaos" is
// byte-identical on every run and engine — which is what lets the
// smoke test assert on degradation shape.
//
// Run with:
//
//	go run ./examples/faulttour           # the full tour
//	go run ./examples/faulttour -smoke    # small grid (CI smoke mode)
package main

import (
	"flag"
	"fmt"
	"log"

	"rmalocks"
)

// The two protagonists.
const (
	graceful = "foMPI-Spin" // CapTimeout: bounded acquires + backoff
	convoy   = "RMA-MCS"    // queue lock: no way out once enqueued
)

// Fault grammar specs shared by main and the smoke test: perturb stalls
// random ranks mid-protocol (including lock holders); bounded adds the
// acquire timeout only CapTimeout schemes accept.
const (
	perturbSpec = "stall=200us@0.05,jitter=0.1"
	boundedSpec = perturbSpec + ",timeout=100us"
)

func main() {
	smoke := flag.Bool("smoke", false, "small grid for CI smoke runs")
	jobs := flag.Int("j", 0, "worker pool size (0 = GOMAXPROCS)")
	flag.Parse()
	if err := tour(*smoke, *jobs); err != nil {
		log.Fatal(err)
	}
}

// tour runs the comparison and asserts the degradation shape; the
// smoke test calls it directly.
func tour(smoke bool, jobs int) error {
	perturb, err := rmalocks.ParseFaults(perturbSpec)
	if err != nil {
		return err
	}
	bounded, err := rmalocks.ParseFaults(boundedSpec)
	if err != nil {
		return err
	}

	grid := rmalocks.SweepGrid{
		Schemes:   []string{graceful, convoy},
		Workloads: []string{"empty"},
		Profiles:  []string{"uniform"},
		Ps:        []int{64},
		Iters:     40,
		FW:        0.5,
		Locks:     2,
		// The fault axis: every coordinate gets a fault-free baseline
		// cell, the stall profile, and — for CapTimeout schemes only —
		// the stall profile with bounded acquires.
		Faults: []*rmalocks.FaultProfile{perturb, bounded},
	}
	if smoke {
		grid.Ps = []int{16}
		grid.Iters = 15
	}

	cells, err := grid.Cells()
	if err != nil {
		return err
	}
	results, err := rmalocks.RunSweep(cells, rmalocks.SweepOptions{Workers: jobs})
	if err != nil {
		return err
	}
	fmt.Println(rmalocks.SweepTable("Graceful (timeout+backoff) vs convoy (queue behind a stalled holder)", results))

	// Pull the p99 inflation of the two faulted variants under
	// comparison: bounded acquires for the spinlock, the bare stall
	// profile for the queue lock.
	infl := func(scheme, faults string) (float64, error) {
		for _, r := range results {
			if r.Key.Scheme == scheme && r.Key.Faults == faults {
				v, ok := r.Report.Extra["p99_infl"]
				if !ok {
					return 0, fmt.Errorf("faulttour: cell %s has no p99_infl", r.Key)
				}
				return v, nil
			}
		}
		return 0, fmt.Errorf("faulttour: no cell for %s with faults=%q", scheme, faults)
	}
	gInfl, err := infl(graceful, bounded.Canonical())
	if err != nil {
		return err
	}
	cInfl, err := infl(convoy, perturb.Canonical())
	if err != nil {
		return err
	}

	fmt.Printf("p99 inflation under %s:\n", perturbSpec)
	fmt.Printf("  %-12s %6.2fx  (bounded acquires: timed-out waiters abandon, tail stays near the stall length)\n", graceful, gInfl)
	fmt.Printf("  %-12s %6.2fx  (MCS queue: every waiter convoys behind the stalled holder)\n", convoy, cInfl)

	// The asserted shape: the queue lock degrades strictly worse than
	// the bounded spinlock under the same stall profile. The smoke test
	// runs this same function, so the claim is CI-checked.
	if cInfl <= gInfl {
		return fmt.Errorf("faulttour: expected convoying %s (%.2fx) to degrade worse than bounded %s (%.2fx)",
			convoy, cInfl, graceful, gInfl)
	}
	fmt.Printf("=> graceful degradation requires an exit path: CapTimeout schemes bound their tails, queue schemes convoy.\n")
	return nil
}
