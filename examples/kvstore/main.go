// kvstore: a read-mostly key-value store on the distributed hashtable of
// the paper's §5.3, comparing the three synchronization schemes on a
// Facebook-like workload (0.2% writes, the rate the paper cites for the
// TAO social graph).
//
// Run with: go run ./examples/kvstore
package main

import (
	"fmt"
	"log"

	"rmalocks"
)

// kvstore runs the comparison and fails unless RMA-RW finishes the
// read-mostly traffic in less time than foMPI-RW; the test calls it
// directly.
func kvstore() error {
	// The paper's DHT benchmark: rank 0 hosts the volume, the other 63
	// ranks are its clients. foMPI-A is no lock at all: the hashtable's
	// atomic operations.
	cells, err := rmalocks.SweepGrid{
		Schemes: []string{"foMPI-A", "foMPI-RW", "RMA-RW"}, Workloads: []string{"dhtvol"},
		Profiles: []string{"uniform"}, Ps: []int{64}, Iters: 200, FW: 0.002,
	}.Cells()
	if err != nil {
		return err
	}
	results, err := rmalocks.RunSweep(cells, rmalocks.SweepOptions{})
	if err != nil {
		return err
	}
	fmt.Println("Read-mostly KV store over the distributed hashtable (64 procs, F_W=0.2%)")
	fmt.Println()
	fmt.Printf("%-10s %12s %10s %10s %8s\n", "scheme", "total[ms]", "inserts", "lookups", "stored")
	total := map[string]float64{}
	for _, r := range results {
		rep := r.Report
		total[rep.Scheme] = rep.MakespanMs
		fmt.Printf("%-10s %12.3f %10d %10d %8d\n",
			rep.Scheme, rep.MakespanMs, rep.Writes, rep.Reads, int(rep.Extra["stored"]))
	}
	fmt.Println()
	fmt.Printf("RMA-RW finishes %.1fx sooner than foMPI-RW: read-dominated\n", total["foMPI-RW"]/total["RMA-RW"])
	fmt.Println("traffic proceeds through per-node counters, while foMPI-RW")
	fmt.Println("serializes every client on one rank.")
	if total["RMA-RW"] >= total["foMPI-RW"] {
		return fmt.Errorf("kvstore: RMA-RW took %.3f ms, not less than foMPI-RW's %.3f ms", total["RMA-RW"], total["foMPI-RW"])
	}
	return nil
}

func main() {
	if err := kvstore(); err != nil {
		log.Fatal(err)
	}
}
