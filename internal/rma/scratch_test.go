package rma

import (
	"errors"
	"fmt"
	"testing"

	"rmalocks/internal/sim"
	"rmalocks/internal/topology"
)

var scratchEngines = []string{EngineFast, EngineRef}

// handOver moves m's scratch out of it, so a test can give it to the next
// machine directly instead of through the pool (which may drop it, and
// under -race does so at random).
func handOver(m *Machine) *scratch {
	sc := m.sc
	m.sc = nil
	return sc
}

// probe runs a small P=8 program that uses everything a scratch holds —
// window words, hosted words on ranks 0 and 1 that it leaves to reset's
// zeroes, target occupancy, SpinUntil watchers, per-distance counts and
// every rank's generator — on the given scratch (nil: a new one) and
// returns a fingerprint of all it observed, plus the scratch. runs is how
// often the program runs on the one machine; the last run is fingerprinted.
func probe(t *testing.T, engine string, sc *scratch, runs int) (string, *scratch) {
	t.Helper()
	topo := topology.TwoLevel(2, 4)
	m := NewMachineConfig(topo, Config{Seed: 5, Engine: engine})
	if sc == nil {
		sc = &scratch{}
	}
	m.sc = sc
	grant := m.Alloc(1)
	cnt := m.Alloc(1)
	pad := m.Alloc(5)
	host := m.AllocHosted(2, 3)
	m.OnInit(func(m *Machine) {
		for r := 0; r < m.Procs(); r++ {
			m.Fill(r, pad, 5, Nil)
		}
	})
	draws := make([][]int64, topo.Procs())
	body := func(p *Proc) {
		r, procs := p.Rank(), p.Machine().Procs()
		draws[r] = draws[r][:0]
		for round := int64(1); round <= 3; round++ {
			if r != 0 {
				p.SpinUntil(r, grant, func(v int64) bool { return v == round })
			}
			old := p.FAO(1, 0, cnt, OpSum)
			p.CAS(old, Nil, r, pad+int(round))
			p.FAO(int64(r), r%2, host+int(round)-1, OpSum)
			k := p.Rand().Int63n(1000)
			draws[r] = append(draws[r], k, int64(p.Rand().Intn(7)))
			p.Compute(50 + k)
			p.Put(round, (r+1)%procs, grant)
			if r == 0 {
				p.SpinUntil(0, grant, func(v int64) bool { return v == round })
			}
			p.Flush(0)
			p.Barrier()
		}
	}
	for i := 0; i < runs; i++ {
		if err := m.Run(body); err != nil {
			t.Fatalf("engine=%q: %v", engine, err)
		}
	}
	var mem []int64
	for r := 0; r < m.Procs(); r++ {
		for w := 0; w < m.Words(); w++ {
			mem = append(mem, m.At(r, w))
		}
	}
	for r := 0; r < 2; r++ {
		for w := 0; w < 3; w++ {
			mem = append(mem, m.At(r, host+w))
		}
	}
	fp := fmt.Sprint(m.MaxClock(), m.Stats(), mem, draws)
	return fp, handOver(m)
}

// dirty runs a P=64 program with a wide window and a wide hosted region on
// 48 ranks on sc that writes every word of both, keeps every target busy
// and draws from every generator —
// past the replay log's cap on rank 0. With abort, every rank but 0 then
// parks in SpinUntil on a word nobody writes and the run dies at its time
// limit, leaving those watchers registered.
func dirty(t *testing.T, engine string, sc *scratch, seed int64, abort bool) *scratch {
	t.Helper()
	cfg := Config{Seed: seed, Engine: engine}
	if abort {
		cfg.TimeLimit = 1_000_000
	}
	m := NewMachineConfig(topology.TwoLevel(4, 16), cfg)
	m.sc = sc
	const width = 40
	base := m.Alloc(width)
	never := m.Alloc(1)
	const hosts = 48
	host := m.AllocHosted(hosts, width)
	err := m.Run(func(p *Proc) {
		r, procs := p.Rank(), p.Machine().Procs()
		for w := 0; w < width; w++ {
			p.Put(p.Rand().Int63()|1, (r+w)%procs, base+w)
			p.Put(p.Rand().Int63()|1, (r+w)%hosts, host+w)
		}
		if r == 0 {
			for i := 0; i < randLogCap+10; i++ {
				p.Rand().Uint64()
			}
		}
		p.Put(int64(r)+1, r, never)
		p.Flush(r)
		if !abort {
			return
		}
		if r != 0 {
			p.SpinUntil(r, never, func(v int64) bool { return v == Nil })
		}
		for {
			p.Compute(10_000)
		}
	})
	if abort != errors.Is(err, sim.ErrTimeLimit) {
		t.Fatalf("engine=%q abort=%v: err=%v", engine, abort, err)
	}
	return handOver(m)
}

// TestScratchOrderIndependence pins the pooled scratch's contract: what a
// run computes does not depend on what its scratch ran before.
func TestScratchOrderIndependence(t *testing.T) {
	for _, engine := range scratchEngines {
		fresh, sc := probe(t, engine, nil, 1)
		check := func(name, fp string) {
			t.Helper()
			if fp != fresh {
				t.Errorf("engine=%q: probe %s differs from a fresh one:\n fresh: %s\n   got: %s", engine, name, fresh, fp)
			}
		}
		fp, sc := probe(t, engine, sc, 1)
		check("after itself", fp)
		fp, sc = probe(t, engine, dirty(t, engine, sc, 5, false), 1)
		check("after a wide dirty run", fp)
		fp, sc = probe(t, engine, dirty(t, engine, sc, 6, false), 1)
		check("after a run with another seed", fp)
		fp, sc = probe(t, engine, dirty(t, engine, sc, 5, true), 1)
		check("after an aborted run", fp)
		fp, _ = probe(t, engine, sc, 2)
		check("run twice on one machine", fp)
	}
}

// TestScratchShrinkZeroed checks what reset hands the initializers when a
// dirty scratch comes back for a smaller shape: an all-zero window and
// hosted region, idle targets and no watcher anywhere, in range or beyond
// it.
func TestScratchShrinkZeroed(t *testing.T) {
	sc := dirty(t, EngineFast, nil, 5, true)
	var words, busy, parked int
	for _, v := range sc.mem {
		if v != 0 {
			words++
		}
	}
	for _, b := range sc.busy {
		if b != 0 {
			busy++
		}
	}
	for _, ws := range sc.watchers {
		parked += len(ws)
	}
	if words != len(sc.mem) || busy != len(sc.busy) || parked != len(sc.watchers)-1 {
		t.Fatalf("dirty run left %d/%d words, %d/%d busy targets, %d watchers: the test needs all of them",
			words, len(sc.mem), busy, len(sc.busy), parked)
	}

	m := NewMachine(topology.TwoLevel(2, 4))
	m.sc = sc
	m.Alloc(3)
	host := m.AllocHosted(2, 5)
	m.OnInit(func(m *Machine) {
		if len(m.mem) != 8*3+2*5 || len(m.busy) != 8 || len(m.watchers) != 8 {
			t.Errorf("shape: %d words, %d busy, %d watcher lists", len(m.mem), len(m.busy), len(m.watchers))
		}
		for i, v := range m.mem {
			if v != 0 {
				t.Errorf("window word %d = %d after reset", i, v)
			}
		}
		for r := 0; r < 2; r++ {
			for w := 0; w < 5; w++ {
				if v := m.At(r, host+w); v != 0 {
					t.Errorf("hosted word (%d,%d) = %d after reset", r, w, v)
				}
			}
		}
		for r, b := range m.busy {
			if b != 0 {
				t.Errorf("busy[%d] = %d after reset", r, b)
			}
		}
		for r, ws := range m.watchers[:cap(m.watchers)] {
			if len(ws) != 0 {
				t.Errorf("watchers[%d] holds %d entries after reset", r, len(ws))
			}
			for _, w := range ws[:cap(ws)] {
				if w.p != nil || w.cond != nil {
					t.Errorf("watchers[%d] still references a parked waiter", r)
				}
			}
		}
		for d, c := range m.stats.PerDistance {
			if c != (OpCount{}) {
				t.Errorf("PerDistance[%d] = %+v after reset", d, c)
			}
		}
	})
	if err := m.Run(func(p *Proc) {}); err != nil {
		t.Fatal(err)
	}
}

func TestReleasedMachinePanics(t *testing.T) {
	m := testMachine(1, 2)
	off := m.Alloc(2)
	if err := m.Run(func(p *Proc) { p.Put(7, p.Rank(), off) }); err != nil {
		t.Fatal(err)
	}
	if v := m.At(1, off); v != 7 {
		t.Fatalf("At before Release = %d", v)
	}
	m.Release()
	m.Release() // idempotent
	if m.sc != nil || m.mem != nil || m.busy != nil || m.watchers != nil || m.procBuf != nil || m.stats.PerDistance != nil {
		t.Error("Release left a reference into the scratch")
	}
	for name, use := range map[string]func(){
		"At":    func() { m.At(0, off) },
		"Set":   func() { m.Set(0, off, 1) },
		"Fill":  func() { m.Fill(0, off, 2, 1) },
		"Stats": func() { m.Stats() },
		"Run":   func() { _ = m.Run(func(*Proc) {}) },
	} {
		func() {
			defer func() {
				if r := recover(); r != "rma: machine released" {
					t.Errorf("%s on a released machine: recovered %v", name, r)
				}
			}()
			use()
		}()
	}

	// A machine that never ran has nothing to return, but is released
	// all the same.
	idle := testMachine(1, 2)
	idle.Release()
	defer func() {
		if recover() == nil {
			t.Error("Run on a released idle machine did not panic")
		}
	}()
	_ = idle.Run(func(*Proc) {})
}

func TestFill(t *testing.T) {
	m := testMachine(1, 3)
	off := m.Alloc(9)
	m.OnInit(func(m *Machine) {
		m.Fill(1, off+1, 7, Nil)
		m.Fill(2, off, 9, 3)
		m.Fill(2, off+4, 0, 99)
	})
	if err := m.Run(func(*Proc) {}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		for w := 0; w < 9; w++ {
			var want int64
			switch {
			case r == 1 && w >= 1 && w <= 7:
				want = Nil
			case r == 2:
				want = 3
			}
			if got := m.At(r, off+w); got != want {
				t.Errorf("word (%d,%d) = %d want %d", r, w, got, want)
			}
		}
	}
	for _, c := range []struct{ rank, offset, n int }{
		{3, off, 1}, {-1, off, 1}, {0, -1, 2}, {0, off + 8, 2}, {0, off, 10}, {0, off, -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Fill(%d, %d, %d) did not panic", c.rank, c.offset, c.n)
				}
			}()
			m.Fill(c.rank, c.offset, c.n, 1)
		}()
	}
	if got := m.At(0, off+8); got != 0 {
		t.Errorf("a rejected Fill wrote: word (0,8) = %d", got)
	}
}
