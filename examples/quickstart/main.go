// Quickstart: simulate a 4-node machine, protect a shared counter with
// the topology-aware RMA-RW lock, and print what happened.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"rmalocks"
)

func main() {
	if err := quickstart(); err != nil {
		log.Fatal(err)
	}
}

// quickstart runs the demo and fails unless the lock lost no update;
// the test calls it directly.
func quickstart() error {
	// A 4-node machine with 8 processes per node (32 simulated ranks).
	machine, err := rmalocks.NewMachineErr(rmalocks.MachineSpec{Nodes: 4, ProcsPerNode: 8})
	if err != nil {
		return err
	}

	// The paper's Reader-Writer lock from the scheme registry, with its
	// documented defaults: one physical counter per node (T_DC), reader
	// threshold T_R=1000 and locality thresholds T_L,i = 32. Tunables
	// are validated — try Tune("TR", -1) to see the typed error.
	lock, err := rmalocks.NewLock(machine, "RMA-RW")
	if err != nil {
		return err
	}

	// One shared word on rank 0, protected by the lock.
	counter := machine.Alloc(1)

	const iters = 100
	err = machine.Run(func(p *rmalocks.Proc) {
		for i := 0; i < iters; i++ {
			if p.Rank()%8 == 0 {
				// Two writers per node increment the counter.
				lock.AcquireWrite(p)
				v := p.Get(0, counter)
				p.Flush(0)
				p.Put(v+1, 0, counter)
				p.Flush(0)
				lock.ReleaseWrite(p)
			} else {
				// Everyone else only reads.
				lock.AcquireRead(p)
				p.Get(0, counter)
				p.Flush(0)
				lock.ReleaseRead(p)
			}
		}
	})
	if err != nil {
		return err
	}

	got, want := machine.At(0, counter), int64(machine.Procs()/8*iters)
	fmt.Printf("machine:        %v\n", machine.Topology())
	fmt.Printf("scheme:         %s (caps %v)\n", lock.Name(), lock.Caps())
	fmt.Printf("counter:        %d (want %d)\n", got, want)
	fmt.Printf("virtual time:   %.3f ms\n", float64(machine.MaxClock())/1e6)
	fmt.Printf("rma ops:        %v\n", machine.Stats())
	if got != want {
		return fmt.Errorf("quickstart: counter %d, want %d: the lock lost an update", got, want)
	}
	return nil
}
