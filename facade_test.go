package rmalocks_test

// Tests of the registry-backed facade: NewLock/Tune
// construction, Schemes/Describe discovery, and the validating
// NewMachineErr.

import (
	"errors"
	"strings"
	"testing"

	"rmalocks"
	"rmalocks/internal/locks/rmarw"
	"rmalocks/internal/topology"
)

func TestNewLockWithTunables(t *testing.T) {
	m := rmalocks.NewMachine(rmalocks.MachineSpec{Nodes: 4, ProcsPerNode: 4})
	lock, err := rmalocks.NewLock(m, "rma-rw",
		rmalocks.Tune("TR", 500), rmalocks.Tune("TL1", 16), rmalocks.Tune("TL2", 32))
	if err != nil {
		t.Fatal(err)
	}
	if lock.Name() != "RMA-RW" || !lock.Caps().Has(rmalocks.CapRW) {
		t.Errorf("lock = %s/%v, want RMA-RW with CapRW", lock.Name(), lock.Caps())
	}
	rw := lock.Underlying().(*rmarw.Lock)
	if rw.TR() != 500 || rw.TW() != 16*32 {
		t.Errorf("TR=%d TW=%d, want 500 and 512", rw.TR(), rw.TW())
	}

	// The constructed handle drives a run through the unified interface.
	err = m.Run(func(p *rmalocks.Proc) {
		lock.AcquireRead(p)
		lock.ReleaseRead(p)
		lock.AcquireWrite(p)
		lock.ReleaseWrite(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rw.ReadAcquires != int64(m.Procs()) || rw.WriteAcquires != int64(m.Procs()) {
		t.Errorf("acquires = %d/%d, want %d each", rw.ReadAcquires, rw.WriteAcquires, m.Procs())
	}
}

func TestNewLockValidates(t *testing.T) {
	m := rmalocks.NewMachine(rmalocks.MachineSpec{Nodes: 2, ProcsPerNode: 4})
	if _, err := rmalocks.NewLock(m, "no-such-scheme"); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := rmalocks.NewLock(m, "RMA-RW", rmalocks.Tune("TR", -1)); err == nil {
		t.Error("TR=-1 accepted")
	}
	if _, err := rmalocks.NewLock(m, "D-MCS", rmalocks.Tune("TR", 10)); err == nil {
		t.Error("D-MCS accepted a TR tunable")
	}
	if _, err := rmalocks.NewLock(m, "RMA-MCS", rmalocks.Tune("TL3", 8)); err == nil {
		t.Error("TL3 accepted on a two-level machine")
	}
}

func TestSchemesAndDescribe(t *testing.T) {
	names := rmalocks.Schemes()
	if len(names) != 5 || names[0] != "foMPI-Spin" || names[4] != "RMA-RW" {
		t.Errorf("Schemes() = %v", names)
	}
	for _, name := range names {
		d, err := rmalocks.Describe(name)
		if err != nil {
			t.Fatal(err)
		}
		if d.Name != name || d.Doc == "" {
			t.Errorf("Describe(%s) = %+v", name, d)
		}
	}
	d, _ := rmalocks.Describe("RMA-RW")
	keys := map[string]bool{}
	for _, spec := range d.Tunables {
		keys[spec.Key] = true
	}
	if !keys["TDC"] || !keys["TR"] || !keys["TL"] {
		t.Errorf("RMA-RW tunables = %+v, want TDC/TR/TL", d.Tunables)
	}
}

func TestNewMachineErrValidation(t *testing.T) {
	// Nodes not a multiple of Racks.
	if _, err := rmalocks.NewMachineErr(rmalocks.MachineSpec{Nodes: 5, Racks: 2, ProcsPerNode: 4}); err == nil {
		t.Error("Nodes=5 Racks=2 accepted")
	} else if !strings.Contains(err.Error(), "MachineSpec") {
		t.Errorf("error lacks context: %v", err)
	}
	// Non-positive fields.
	for _, spec := range []rmalocks.MachineSpec{
		{Nodes: -1},
		{ProcsPerNode: -2},
		{Nodes: 4, Racks: -1},
	} {
		if _, err := rmalocks.NewMachineErr(spec); err == nil {
			t.Errorf("invalid spec %+v accepted", spec)
		}
	}
	// A rank count overflowing int32 rank ids is rejected with the
	// typed, errors.As-matchable topology.RankOverflowError.
	if _, err := rmalocks.NewMachineErr(rmalocks.MachineSpec{Nodes: 1 << 20, ProcsPerNode: 1 << 12}); err == nil {
		t.Error("2^32-rank spec accepted")
	} else {
		var roe *topology.RankOverflowError
		if !errors.As(err, &roe) {
			t.Errorf("overflow error %v is not a *RankOverflowError", err)
		}
	}
	// Valid specs still work, including the three-level form.
	m, err := rmalocks.NewMachineErr(rmalocks.MachineSpec{Nodes: 4, Racks: 2, ProcsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m.Topology().Levels() != 3 || m.Procs() != 8 {
		t.Errorf("machine = %v", m.Topology())
	}
	// NewMachine keeps its signature and panics on the same input.
	defer func() {
		if recover() == nil {
			t.Error("NewMachine did not panic on an invalid spec")
		}
	}()
	rmalocks.NewMachine(rmalocks.MachineSpec{Nodes: 5, Racks: 2})
}
