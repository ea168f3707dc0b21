package rmalocks_test

import (
	"path/filepath"
	"testing"

	"rmalocks"
)

func TestQuickstartShape(t *testing.T) {
	// The package-level quick start must work exactly as documented.
	machine := rmalocks.NewMachine(rmalocks.MachineSpec{Nodes: 2, ProcsPerNode: 4})
	lock, err := rmalocks.NewLock(machine, "RMA-RW")
	if err != nil {
		t.Fatal(err)
	}
	counter := machine.Alloc(1)
	err = machine.Run(func(p *rmalocks.Proc) {
		for i := 0; i < 10; i++ {
			if p.Rank() == 0 {
				lock.AcquireWrite(p)
				v := p.Get(0, counter)
				p.Flush(0)
				p.Put(v+1, 0, counter)
				p.Flush(0)
				lock.ReleaseWrite(p)
			} else {
				lock.AcquireRead(p)
				p.Get(0, counter)
				p.Flush(0)
				lock.ReleaseRead(p)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := machine.At(0, counter); got != 10 {
		t.Errorf("counter=%d want 10", got)
	}
}

func TestAllLockKindsViaFacade(t *testing.T) {
	machine := rmalocks.NewMachine(rmalocks.MachineSpec{Nodes: 2, ProcsPerNode: 4, TimeLimit: 60_000_000_000})
	mcs := mustLock(t, machine, "RMA-MCS", rmalocks.Tune("TL2", 4))
	dm := mustLock(t, machine, "D-MCS")
	spin := mustLock(t, machine, "foMPI-Spin")
	frw := mustLock(t, machine, "foMPI-RW")
	var a, b, c, d int64
	err := machine.Run(func(p *rmalocks.Proc) {
		for i := 0; i < 5; i++ {
			mcs.AcquireWrite(p)
			va := a
			p.Compute(50)
			a = va + 1
			mcs.ReleaseWrite(p)

			dm.AcquireWrite(p)
			vb := b
			p.Compute(50)
			b = vb + 1
			dm.ReleaseWrite(p)

			spin.AcquireWrite(p)
			vc := c
			p.Compute(50)
			c = vc + 1
			spin.ReleaseWrite(p)

			frw.AcquireWrite(p)
			vd := d
			p.Compute(50)
			d = vd + 1
			frw.ReleaseWrite(p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(5 * machine.Procs())
	for name, got := range map[string]int64{"rmamcs": a, "dmcs": b, "spin": c, "fompirw": d} {
		if got != want {
			t.Errorf("%s counter=%d want %d", name, got, want)
		}
	}
}

func TestThreeLevelMachineViaFacade(t *testing.T) {
	machine := rmalocks.NewMachine(rmalocks.MachineSpec{Racks: 2, Nodes: 4, ProcsPerNode: 2, TimeLimit: 60_000_000_000})
	if machine.Topology().Levels() != 3 {
		t.Fatalf("levels=%d want 3", machine.Topology().Levels())
	}
	lock := mustLock(t, machine, "RMA-MCS")
	var n int64
	err := machine.Run(func(p *rmalocks.Proc) {
		for i := 0; i < 8; i++ {
			lock.AcquireWrite(p)
			v := n
			p.Compute(100)
			n = v + 1
			lock.ReleaseWrite(p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(8*machine.Procs()) {
		t.Errorf("n=%d want %d", n, 8*machine.Procs())
	}
}

func TestNewMachineForProcs(t *testing.T) {
	m := rmalocks.NewMachineForProcs(40)
	if m.Procs() != 40 {
		t.Errorf("Procs=%d want 40", m.Procs())
	}
	if m.Topology().ProcsPerLeaf() != 16 {
		t.Errorf("ProcsPerLeaf=%d want 16", m.Topology().ProcsPerLeaf())
	}
}

func TestWorkloadFacade(t *testing.T) {
	run := func() rmalocks.WorkloadReport {
		rep, err := rmalocks.RunWorkload(rmalocks.WorkloadSpec{
			Scheme: "RMA-RW", P: 16, ProcsPerNode: 4, Iters: 12, Seed: 9,
			Profile:  rmalocks.UniformProfile{NumLocks: 4, FW: 0.25},
			Workload: &rmalocks.DHTWorkload{Slots: 16, Cells: 512, ShardByLock: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Ops != 16*12 {
		t.Errorf("Ops=%d want 192", a.Ops)
	}
	if a.Fingerprint() != b.Fingerprint() || a.MaxClock != b.MaxClock {
		t.Error("facade workload run not reproducible")
	}
}

func TestMachineSpecDefaults(t *testing.T) {
	m := rmalocks.NewMachine(rmalocks.MachineSpec{})
	if m.Procs() != 16 {
		t.Errorf("default machine has %d procs, want 16 (1 node x 16)", m.Procs())
	}
}

func TestSweepFacade(t *testing.T) {
	grid := rmalocks.SweepGrid{
		Schemes:   []string{"D-MCS"},
		Workloads: []string{"empty"},
		Profiles:  []string{"uniform"},
		Ps:        []int{8, 16},
		Iters:     8,
	}
	cells, err := grid.Cells()
	if err != nil {
		t.Fatal(err)
	}
	results, err := rmalocks.RunSweep(cells, rmalocks.SweepOptions{Workers: 2, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	path := filepath.Join(t.TempDir(), "sweep.json")
	if err := rmalocks.SaveSweep(path, "facade", results); err != nil {
		t.Fatal(err)
	}
	rf, err := rmalocks.LoadSweep(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rf.Cells) != len(results) {
		t.Fatalf("loaded %d cells, want %d", len(rf.Cells), len(results))
	}
	for i, c := range rf.Cells {
		if c.Key != results[i].Key || c.Report.Fingerprint() != results[i].Fingerprint {
			t.Errorf("cell %s not identical after save/load round trip", results[i].Key)
		}
	}
}

func mustLock(t *testing.T, m *rmalocks.Machine, name string, opts ...rmalocks.TuneOption) rmalocks.Lock {
	t.Helper()
	l, err := rmalocks.NewLock(m, name, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return l
}
