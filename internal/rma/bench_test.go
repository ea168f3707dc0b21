package rma

import (
	"fmt"
	"testing"

	"rmalocks/internal/topology"
	"rmalocks/internal/trace"
)

// alternate runs P ranks offset by less than one step, each issuing steps
// Puts to its own window. A Put is an observable operation, so every step
// publishes the rank's pending time and hands the token to the next rank.
// A Compute-only loop would not: Compute never yields.
func alternate(p, steps int, sink *trace.Sink) error {
	m := NewMachineConfig(topology.TwoLevel(1, p), Config{Trace: sink})
	defer m.Release()
	off := m.Alloc(1)
	return m.Run(func(pr *Proc) {
		pr.Compute(int64(pr.Rank() + 1))
		for i := 0; i < steps; i++ {
			pr.Put(int64(i), pr.Rank(), off)
		}
	})
}

// BenchmarkSwitch is the host cost of one token hand-off as rma pays it
// (sync, flush, Advance, coroutine switch, heap pop/push) plus one local
// Put, per step. It first counts the hand-offs of a short traced run and
// fails when the loop does not switch on every step.
func BenchmarkSwitch(b *testing.B) {
	for _, p := range []int{2, 64} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			const probe = 100
			sink := trace.New(trace.ClassCharge)
			if err := alternate(p, probe, sink); err != nil {
				b.Fatal(err)
			}
			handoffs := 0
			for _, e := range sink.Events() {
				if e.Kind == trace.EvDispatch {
					handoffs++
				}
			}
			if handoffs < p*probe {
				b.Fatalf("%d hand-offs in %d steps: the loop does not switch", handoffs, p*probe)
			}
			steps := b.N/p + 1
			b.ReportAllocs()
			b.ResetTimer()
			if err := alternate(p, steps, nil); err != nil {
				b.Fatal(err)
			}
		})
	}
}
