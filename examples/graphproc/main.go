// graphproc: irregular graph processing with fine-grained vertex locks —
// the workload class the paper's single-operation benchmark (SOB) models.
// Processes relax edges of a random graph under a lock, and we compare
// the centralized foMPI spinlock with the two distributed queue locks.
//
// Run with: go run ./examples/graphproc
package main

import (
	"fmt"
	"log"

	"rmalocks"
)

const (
	nodes    = 4
	ppn      = 8
	vertices = 64
	relaxes  = 60 // edge relaxations per process
)

// relax runs the relaxation under the named lock scheme and returns the
// remote operations it issued.
func relax(name string) (int64, error) {
	machine := rmalocks.NewMachine(rmalocks.MachineSpec{Nodes: nodes, ProcsPerNode: ppn})
	// Vertex data: one word per vertex, distributed round-robin over the
	// ranks (vertex v lives on rank v%P at offset base+v/P).
	p := machine.Procs()
	perRank := (vertices + p - 1) / p
	base := machine.Alloc(perRank)
	// One lock protects the whole partition in this demo (the paper's
	// DHT study uses the same single-lock setup; per-vertex locks work
	// the same way, one Alloc per lock).
	lock, err := rmalocks.NewLock(machine, name)
	if err != nil {
		return 0, err
	}

	err = machine.Run(func(pr *rmalocks.Proc) {
		rng := pr.Rand()
		for i := 0; i < relaxes; i++ {
			u := rng.Intn(vertices)
			v := rng.Intn(vertices)
			lock.AcquireWrite(pr)
			// Relax: dist[v] = min(dist[v], dist[u]+1), two remote words.
			du := pr.Get(u%p, base+u/p)
			pr.Flush(u % p)
			dv := pr.Get(v%p, base+v/p)
			pr.Flush(v % p)
			if du+1 < dv || dv == 0 {
				pr.Put(du+1, v%p, base+v/p)
				pr.Flush(v % p)
			}
			lock.ReleaseWrite(pr)
		}
	})
	if err != nil {
		return 0, err
	}
	total := machine.Procs() * relaxes
	ms := float64(machine.MaxClock()) / 1e6
	remote := machine.Stats().Remote()
	fmt.Printf("%-12s %8.3f ms  (%.2f mln relaxations/s, %d remote ops)\n",
		name, ms, float64(total)/ms/1e3, remote)
	return remote, nil
}

// graphproc runs the comparison and fails unless the centralized
// spinlock needs more than twice the remote operations of either queue
// lock; the test calls it directly.
func graphproc() error {
	fmt.Printf("Vertex-locked graph relaxation: %d procs, %d vertices, %d relaxations/proc\n\n",
		nodes*ppn, vertices, relaxes)
	remote := map[string]int64{}
	for _, name := range []string{"foMPI-Spin", "D-MCS", "RMA-MCS"} {
		n, err := relax(name)
		if err != nil {
			return err
		}
		remote[name] = n
	}
	spin, queue := remote["foMPI-Spin"], max(remote["D-MCS"], remote["RMA-MCS"])
	fmt.Printf("\nfoMPI-Spin issues %.1fx the remote ops of the busier queue lock:\n", float64(spin)/float64(queue))
	fmt.Println("its waiters poll one word on one rank, while a queue lock's waiters")
	fmt.Println("spin on their own rank and are handed the lock once.")
	if spin <= 2*queue {
		return fmt.Errorf("graphproc: foMPI-Spin made %d remote ops, not more than twice the %d of the busier queue lock", spin, queue)
	}
	return nil
}

func main() {
	if err := graphproc(); err != nil {
		log.Fatal(err)
	}
}
