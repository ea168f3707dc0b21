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
	const (
		procs = 64
		ops   = 200 // per client
	)
	fmt.Println("Read-mostly KV store over the distributed hashtable (64 procs, F_W=0.2%)")
	fmt.Println()
	fmt.Printf("%-10s %12s %10s %10s %8s\n", "scheme", "total[ms]", "inserts", "lookups", "stored")
	total := map[string]float64{}
	for _, scheme := range []string{"foMPI-A", "foMPI-RW", "RMA-RW"} {
		// foMPI-A is no lock at all: the hashtable's atomic operations.
		atomic := scheme == "foMPI-A"
		rep, err := rmalocks.RunWorkload(rmalocks.WorkloadSpec{
			Scheme: scheme, NoLock: atomic, P: procs, Iters: ops,
			Warmup:   -1, // the paper's DHT benchmark has none
			Profile:  rmalocks.UniformProfile{FW: 0.002},
			Workload: &rmalocks.DHTWorkload{Cells: procs*ops + 16, Atomic: atomic},
			// Rank 0 only hosts the volume; the other ranks are its clients.
			Skip: func(rank, procs int) bool { return rank == 0 },
		})
		if err != nil {
			return err
		}
		total[scheme] = rep.MakespanMs
		fmt.Printf("%-10s %12.3f %10d %10d %8d\n",
			scheme, rep.MakespanMs, rep.Writes, rep.Reads, int(rep.Extra["stored"]))
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
