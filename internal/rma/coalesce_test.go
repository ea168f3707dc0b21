package rma

// Lazy publication against the eager oracle (NoCoalesce) at the raw RMA
// level: a protocol-shaped program (FAO tail swaps, Put links, SpinUntil
// grant waits, barriers, contended busy horizons) must be byte-identical —
// same MaxClock, same final window memory, same op counts — on every
// engine × publication-mode combination. This is the substrate the
// workload-level differential suite builds on; FuzzLazyMatchesEager does
// the same for arbitrary programs.

import (
	"fmt"
	"testing"

	"rmalocks/internal/topology"
)

// runCoalesceProgram runs a token ring: each round, rank r spins on its
// grant word, does contended counter traffic (busy-horizon
// serialization, on an all-rank counter and a hosted one) plus local
// compute, then grants its ring successor — exercising SpinUntil wake-ups
// (the horizon-shrink path), publication at block/barrier points, and
// per-target occupancy.
func runCoalesceProgram(t *testing.T, engine string, noCoalesce bool) (int64, []int64, Stats) {
	t.Helper()
	topo := topology.ForProcs(8, 4)
	m := NewMachineConfig(topo, Config{Seed: 3, Engine: engine, NoCoalesce: noCoalesce})
	grant := m.Alloc(1) // per rank: ring grant flag
	cnt := m.Alloc(1)   // rank 0: contended counter
	scratch := m.Alloc(1)
	hcnt := m.AllocHosted(1, 1) // rank 0 only: a second contended counter
	err := m.Run(func(p *Proc) {
		r, procs := p.Rank(), p.Machine().Procs()
		for round := int64(1); round <= 3; round++ {
			if r != 0 {
				p.SpinUntil(r, grant, func(v int64) bool { return v == round })
			}
			// Contended counter traffic plus assorted op coverage.
			p.Accumulate(1, 0, cnt, OpSum)
			old := p.FAO(2, 0, cnt, OpSum)
			p.CAS(old, old+2, r, scratch)
			p.FAO(int64(r)+round, 0, hcnt, OpReplace)
			p.Compute(50 + int64(r))
			p.Put(round, (r+1)%procs, grant) // pass the token on
			if r == 0 {
				// Wait for the ring to come back around.
				p.SpinUntil(0, grant, func(v int64) bool { return v == round })
			}
			p.Flush(0)
			p.Barrier()
		}
	})
	if err != nil {
		t.Fatalf("engine=%q nocoalesce=%v: %v", engine, noCoalesce, err)
	}
	memEnd := make([]int64, 0, 8*m.Words()+1)
	for r := 0; r < m.Procs(); r++ {
		for w := 0; w < m.Words(); w++ {
			memEnd = append(memEnd, m.At(r, w))
		}
	}
	memEnd = append(memEnd, m.At(0, hcnt))
	return m.MaxClock(), memEnd, m.Stats()
}

func TestCoalescingEquivalence(t *testing.T) {
	type combo struct {
		engine     string
		noCoalesce bool
	}
	combos := []combo{
		{EngineFast, false},
		{EngineFast, true},
		{EngineRef, false},
		{EngineRef, true},
	}
	baseClk, baseMem, baseStats := runCoalesceProgram(t, combos[0].engine, combos[0].noCoalesce)
	if baseClk == 0 {
		t.Fatal("program made no virtual progress")
	}
	for _, c := range combos[1:] {
		clk, mem, st := runCoalesceProgram(t, c.engine, c.noCoalesce)
		name := fmt.Sprintf("engine=%q nocoalesce=%v", c.engine, c.noCoalesce)
		if clk != baseClk {
			t.Errorf("%s: MaxClock %d != %d", name, clk, baseClk)
		}
		if fmt.Sprint(mem) != fmt.Sprint(baseMem) {
			t.Errorf("%s: final window memory diverged", name)
		}
		if fmt.Sprint(st) != fmt.Sprint(baseStats) {
			t.Errorf("%s: op stats diverged:\n a: %+v\n b: %+v", name, baseStats, st)
		}
	}
}

// TestNowIncludesPending pins the effective-clock contract: Now() must
// advance by at least the charged duration after every op even while the
// charge is still unpublished to the scheduler.
func TestNowIncludesPending(t *testing.T) {
	topo := topology.ForProcs(2, 2)
	m := NewMachine(topo)
	off := m.Alloc(1)
	err := m.Run(func(p *Proc) {
		if p.Rank() != 0 {
			p.Compute(1 << 30) // far away: rank 0 never has to publish
			return
		}
		last := p.Now()
		for i := 0; i < 10; i++ {
			p.Put(int64(i), 0, off)
			if now := p.Now(); now <= last {
				t.Errorf("op %d: Now()=%d did not advance past %d", i, now, last)
			} else {
				last = now
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMachineRunReuse re-runs one machine and checks buffer reuse does
// not leak state between runs (window memory, busy horizons, watchers).
func TestMachineRunReuse(t *testing.T) {
	topo := topology.ForProcs(4, 2)
	m := NewMachine(topo)
	off := m.Alloc(2)
	var clks [3]int64
	for i := range clks {
		err := m.Run(func(p *Proc) {
			p.Accumulate(int64(p.Rank()+1), 0, off, OpSum)
			p.SpinUntil(0, off, func(v int64) bool { return v >= 10 })
			p.Barrier()
		})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		clks[i] = m.MaxClock()
		if got := m.At(0, off); got != 10 {
			t.Fatalf("run %d: counter=%d want 10", i, got)
		}
	}
	if clks[0] != clks[1] || clks[1] != clks[2] {
		t.Errorf("re-runs diverged: %v", clks)
	}
}
