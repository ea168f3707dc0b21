package rma

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"rmalocks/internal/sim"
	"rmalocks/internal/topology"
)

func testMachine(nodes, ppn int) *Machine {
	return NewMachine(topology.TwoLevel(nodes, ppn))
}

func TestPutGet(t *testing.T) {
	m := testMachine(2, 2)
	off := m.Alloc(4)
	err := m.Run(func(p *Proc) {
		// Everyone writes its rank to its own slot 0 and reads it back.
		p.Put(int64(p.Rank()+100), p.Rank(), off)
		p.Flush(p.Rank())
		if v := p.Get(p.Rank(), off); v != int64(p.Rank()+100) {
			t.Errorf("rank %d: got %d", p.Rank(), v)
		}
		p.Flush(p.Rank())
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRemotePutVisibleAfterBarrier(t *testing.T) {
	m := testMachine(2, 2)
	off := m.Alloc(1)
	err := m.Run(func(p *Proc) {
		// Ring: rank r writes to rank (r+1) mod P.
		target := (p.Rank() + 1) % m.Procs()
		p.Put(int64(p.Rank()), target, off)
		p.Flush(target)
		p.Barrier()
		want := int64((p.Rank() + m.Procs() - 1) % m.Procs())
		if v := p.Get(p.Rank(), off); v != want {
			t.Errorf("rank %d: got %d want %d", p.Rank(), v, want)
		}
		p.Flush(p.Rank())
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFAOSumIsAtomicUnderContention(t *testing.T) {
	m := testMachine(4, 4)
	off := m.Alloc(1)
	const iters = 50
	err := m.Run(func(p *Proc) {
		for i := 0; i < iters; i++ {
			p.FAO(1, 0, off, OpSum)
			p.Flush(0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.At(0, off); got != int64(m.Procs()*iters) {
		t.Errorf("counter=%d want %d", got, m.Procs()*iters)
	}
}

func TestFAOReplaceReturnsPrevious(t *testing.T) {
	m := testMachine(1, 2)
	off := m.Alloc(1)
	m.OnInit(func(m *Machine) { m.Set(0, off, 7) })
	err := m.Run(func(p *Proc) {
		if p.Rank() != 0 {
			return
		}
		if prev := p.FAO(42, 0, off, OpReplace); prev != 7 {
			t.Errorf("prev=%d want 7", prev)
		}
		p.Flush(0)
		if v := p.Get(0, off); v != 42 {
			t.Errorf("value=%d want 42", v)
		}
		p.Flush(0)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCASMutualExclusion(t *testing.T) {
	// Every process tries to CAS Nil->rank on the same word; exactly one
	// must win per round.
	m := testMachine(4, 4)
	lockOff := m.Alloc(1)
	winsOff := m.Alloc(1)
	m.OnInit(func(m *Machine) { m.Set(0, lockOff, Nil) })
	const rounds = 20
	err := m.Run(func(p *Proc) {
		for r := 0; r < rounds; r++ {
			prev := p.CAS(int64(p.Rank()), Nil, 0, lockOff)
			p.Flush(0)
			if prev == Nil { // we won
				p.FAO(1, 0, winsOff, OpSum)
				p.Flush(0)
				// Release.
				p.Put(Nil, 0, lockOff)
				p.Flush(0)
			}
			p.Barrier()
			p.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	wins := m.At(0, winsOff)
	if wins < rounds {
		t.Errorf("wins=%d, want >= %d (at least one winner per round)", wins, rounds)
	}
}

func TestAccumulateSumAndReplace(t *testing.T) {
	m := testMachine(1, 4)
	off := m.Alloc(2)
	err := m.Run(func(p *Proc) {
		p.Accumulate(int64(p.Rank()+1), 0, off, OpSum)
		p.Flush(0)
		p.Barrier()
		if p.Rank() == 0 {
			if v := p.Get(0, off); v != 1+2+3+4 {
				t.Errorf("sum=%d want 10", v)
			}
			p.Flush(0)
			p.Accumulate(99, 0, off+1, OpReplace)
			p.Flush(0)
			if v := p.Get(0, off+1); v != 99 {
				t.Errorf("replace=%d want 99", v)
			}
			p.Flush(0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistanceAffectsCost(t *testing.T) {
	// A remote inter-node op must cost more virtual time than a local one.
	m := testMachine(2, 2) // ranks 0,1 node 0; ranks 2,3 node 1
	off := m.Alloc(1)
	var localCost, remoteCost int64
	err := m.Run(func(p *Proc) {
		if p.Rank() != 0 {
			return
		}
		t0 := p.Now()
		p.Put(1, 0, off) // self
		localCost = p.Now() - t0
		t0 = p.Now()
		p.Put(1, 2, off) // inter-node
		remoteCost = p.Now() - t0
	})
	if err != nil {
		t.Fatal(err)
	}
	if remoteCost <= localCost {
		t.Errorf("remote cost %d <= local cost %d", remoteCost, localCost)
	}
}

func TestHotSpotSerializes(t *testing.T) {
	// P processes all issue one atomic to rank 0 "at the same time": the
	// makespan must reflect serialization (≥ P * occupancy), unlike ops
	// to distinct targets.
	topo := topology.TwoLevel(4, 4)
	lat := UniformLatency(topo.MaxDistance(), 1000, 500)
	mHot := NewMachineConfig(topo, Config{Latency: &lat})
	off := mHot.Alloc(1)
	if err := mHot.Run(func(p *Proc) {
		p.FAO(1, 0, off, OpSum)
		p.Flush(0)
	}); err != nil {
		t.Fatal(err)
	}
	hot := mHot.MaxClock()

	mSpread := NewMachineConfig(topo, Config{Latency: &lat})
	off2 := mSpread.Alloc(1)
	if err := mSpread.Run(func(p *Proc) {
		p.FAO(1, p.Rank(), off2, OpSum)
		p.Flush(p.Rank())
	}); err != nil {
		t.Fatal(err)
	}
	spread := mSpread.MaxClock()

	if hot < int64(topo.Procs())*500 {
		t.Errorf("hot-spot makespan %d < serialization bound %d", hot, topo.Procs()*500)
	}
	if spread >= hot {
		t.Errorf("spread makespan %d >= hot makespan %d", spread, hot)
	}
}

func TestStatsCounting(t *testing.T) {
	m := testMachine(2, 2)
	off := m.Alloc(1)
	err := m.Run(func(p *Proc) {
		p.Put(1, 0, off)
		p.Get(0, off)
		p.FAO(1, 0, off, OpSum)
		p.CAS(1, 0, 0, off)
		p.Accumulate(1, 0, off, OpSum)
		p.Flush(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	P := int64(m.Procs())
	if s.Kind[opPut] != P || s.Kind[opGet] != P || s.Kind[opFAO] != P ||
		s.Kind[opCAS] != P || s.Kind[opAcc] != P || s.Kind[opFlush] != P {
		t.Errorf("unexpected stats: %v", s)
	}
	if s.Total() != 5*P {
		t.Errorf("Total=%d want %d", s.Total(), 5*P)
	}
	// Rank 0's 5 ops are local; everyone else's are remote.
	if s.Remote() != 5*(P-1) {
		t.Errorf("Remote=%d want %d", s.Remote(), 5*(P-1))
	}
	if s.String() == "" {
		t.Error("empty stats string")
	}
}

func TestTimeLimit(t *testing.T) {
	topo := topology.TwoLevel(1, 2)
	m := NewMachineConfig(topo, Config{TimeLimit: 100_000})
	off := m.Alloc(1)
	err := m.Run(func(p *Proc) {
		for { // livelock: spin forever on a flag nobody sets
			if p.Get(0, off) != 0 {
				return
			}
			p.Flush(0)
		}
	})
	if !errors.Is(err, sim.ErrTimeLimit) {
		t.Fatalf("err=%v want ErrTimeLimit", err)
	}
}

func TestRunTwiceReinitializes(t *testing.T) {
	m := testMachine(1, 2)
	off := m.Alloc(1)
	m.OnInit(func(m *Machine) { m.Set(0, off, 5) })
	body := func(p *Proc) {
		if p.Rank() == 0 {
			if v := p.Get(0, off); v != 5 {
				t.Errorf("init value=%d want 5", v)
			}
			p.Flush(0)
			p.Put(17, 0, off)
			p.Flush(0)
		}
	}
	if err := m.Run(body); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(body); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicMakespan(t *testing.T) {
	run := func() int64 {
		m := testMachine(4, 8)
		off := m.Alloc(1)
		if err := m.Run(func(p *Proc) {
			for i := 0; i < 20; i++ {
				p.FAO(1, (p.Rank()+i)%m.Procs(), off, OpSum)
				p.Flush((p.Rank() + i) % m.Procs())
			}
		}); err != nil {
			t.Fatal(err)
		}
		return m.MaxClock()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic makespan: %d vs %d", a, b)
	}
}

func TestRandDeterministicPerSeed(t *testing.T) {
	draw := func(seed int64) []int64 {
		topo := topology.TwoLevel(1, 4)
		m := NewMachineConfig(topo, Config{Seed: seed})
		out := make([]int64, topo.Procs())
		if err := m.Run(func(p *Proc) {
			out[p.Rank()] = p.Rand().Int63()
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b, c := draw(1), draw(1), draw(2)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("same seed differs at rank %d", i)
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
	// Distinct ranks must get distinct streams.
	if a[0] == a[1] && a[1] == a[2] {
		t.Error("ranks share an RNG stream")
	}
}

func TestLatencyModelValidateAndScale(t *testing.T) {
	lat := DefaultLatency(3)
	if err := lat.validate(3); err != nil {
		t.Fatal(err)
	}
	// Only the network is scaled: local and intra-node costs stay.
	for _, pct := range []int64{50, 200} {
		sc := RemoteLatency(3, pct)
		if sc.DataRTT[0] != lat.DataRTT[0] || sc.AtomicRTT[1] != lat.AtomicRTT[1] {
			t.Errorf("RemoteLatency(%d): local or intra-node cost changed", pct)
		}
		if sc.DataRTT[2] != lat.DataRTT[2]*pct/100 || sc.AtomicOcc[3] != lat.AtomicOcc[3]*pct/100 {
			t.Errorf("RemoteLatency(%d): inter-node %d, want %d", pct, sc.DataRTT[2], lat.DataRTT[2]*pct/100)
		}
	}
	if !reflect.DeepEqual(RemoteLatency(3, 100), lat) {
		t.Error("RemoteLatency(100) is not the calibrated model")
	}
	// Extending deeper hierarchies keeps tables monotone.
	deep := DefaultLatency(6)
	for d := 1; d <= 6; d++ {
		if deep.DataRTT[d] < deep.DataRTT[d-1] {
			t.Errorf("DataRTT not monotone at %d", d)
		}
	}
}

func TestUniformLatencyProperty(t *testing.T) {
	f := func(r, o uint16) bool {
		rtt := int64(r%5000) + 1
		occ := int64(o % 1000)
		m := UniformLatency(2, rtt, occ)
		return m.DataRTT[0] == rtt && m.AtomicRTT[2] == rtt && m.DataOcc[1] == occ
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
