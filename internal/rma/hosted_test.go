package rma

import (
	"fmt"
	"strings"
	"testing"

	"rmalocks/internal/topology"
)

// runHostedProgram runs one P=4 program on two words of ranks 0 and 1 —
// a flag rank 1 waits on in SpinUntil until three other ranks' FAOs have
// raised it, and a counter everybody CASes, Puts and Gets — allocated on
// every rank (Alloc) or on ranks [0, 2) only (AllocHosted), and returns a
// fingerprint of all it observed.
func runHostedProgram(t *testing.T, engine string, hosted bool) string {
	t.Helper()
	m := NewMachineConfig(topology.TwoLevel(2, 2), Config{Seed: 9, Engine: engine})
	defer m.Release()
	pad := m.Alloc(2)
	var flag int
	if hosted {
		flag = m.AllocHosted(2, 2)
	} else {
		flag = m.Alloc(2)
	}
	cnt := flag + 1
	m.OnInit(func(m *Machine) {
		m.Fill(0, cnt, 1, Nil)
		m.Fill(1, cnt, 1, Nil)
	})
	seen := make([]int64, m.Procs())
	ends := make([]int64, m.Procs())
	err := m.Run(func(p *Proc) {
		r := p.Rank()
		see := func(v int64) { seen[r] = seen[r]*1000003 + v + 1 }
		if r == 1 {
			see(p.SpinUntil(1, flag, func(v int64) bool { return v >= 3 }))
			p.Put(30, 0, flag)
		} else {
			p.Compute(1000 + 100*int64(r))
			see(p.FAO(1, 1, flag, OpSum))
		}
		see(p.CAS(int64(r), Nil, r%2, cnt))
		p.Accumulate(int64(r+1), r%2, pad, OpSum)
		p.Flush(r % 2)
		p.Barrier()
		see(p.Get(0, flag))
		see(p.Get(1-r%2, cnt))
		ends[r] = p.Now()
	})
	if err != nil {
		t.Fatalf("engine=%q hosted=%v: %v", engine, hosted, err)
	}
	var mem []int64
	for r := 0; r < 2; r++ {
		mem = append(mem, m.At(r, pad), m.At(r, flag), m.At(r, cnt))
	}
	return fmt.Sprint(seen, ends, mem, m.MaxClock(), m.Stats())
}

// TestHostedWordsBehaveAsAllRank checks that Put, Get, Accumulate, FAO,
// CAS and SpinUntil with its wake-up see, charge and leave behind the same
// on a hosted word as on an all-rank one.
func TestHostedWordsBehaveAsAllRank(t *testing.T) {
	for _, engine := range scratchEngines {
		want := runHostedProgram(t, engine, false)
		if got := runHostedProgram(t, engine, true); got != want {
			t.Errorf("engine=%q: hosted words observed\n %s\nall-rank words\n %s", engine, got, want)
		}
	}
}

// TestHostedBounds checks that a hosted word exists on ranks [0, k) and
// within the hosted width only, and that each refusal names what it
// refused.
func TestHostedBounds(t *testing.T) {
	m := testMachine(2, 2)
	off := m.Alloc(2)
	host := m.AllocHosted(2, 3)
	expectPanic := func(what, want string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			r := recover()
			if r == nil {
				t.Errorf("%s did not panic", what)
			} else if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
				t.Errorf("%s panicked with %q, want it to name %q", what, msg, want)
			}
		}()
		f()
	}
	m.OnInit(func(m *Machine) {
		m.Fill(1, host, 3, 7)
		expectPanic("At on rank 2", fmt.Sprintf("rank 2 has no hosted offset %d", host+1), func() { m.At(2, host+1) })
		expectPanic("Set on rank 3", fmt.Sprintf("rank 3 has no hosted offset %d", host), func() { m.Set(3, host, 1) })
		expectPanic("At past the hosted width", fmt.Sprintf("offset %d out of range", host+3), func() { m.At(0, host+3) })
		expectPanic("At below the hosted base", fmt.Sprintf("offset %d out of range", host-1), func() { m.At(0, host-1) })
		expectPanic("Fill past the hosted width", fmt.Sprintf("offset %d out of range", host+3), func() { m.Fill(0, host+1, 3, 1) })
		expectPanic("Fill from the all-rank words into the hosted ones", "spans", func() { m.Fill(0, off, host-off+1, 1) })
	})
	err := m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Put(1, 3, host+2)
		}
	})
	if want := fmt.Sprintf("rank 3 has no hosted offset %d", host+2); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Put on rank 3's hosted word: err=%v, want it to name %q", err, want)
	}
	if got := m.At(1, host+2); got != 7 {
		t.Errorf("hosted word (1,%d) = %d, want 7", host+2, got)
	}
	if got := m.At(0, off+1); got != 0 {
		t.Errorf("a rejected Fill wrote: word (0,%d) = %d", off+1, got)
	}

	for _, c := range []struct {
		name string
		f    func(m *Machine)
	}{
		{"no hosting rank", func(m *Machine) { m.AllocHosted(0, 1) }},
		{"more hosting ranks than ranks", func(m *Machine) { m.AllocHosted(5, 1) }},
		{"no words", func(m *Machine) { m.AllocHosted(1, 0) }},
		{"another hosting rank count", func(m *Machine) { m.AllocHosted(1, 1); m.AllocHosted(2, 1) }},
		{"after Run", func(m *Machine) { _ = m.Run(func(*Proc) {}); m.AllocHosted(1, 1) }},
	} {
		expectPanic("AllocHosted with "+c.name, "rma: AllocHosted", func() { c.f(testMachine(2, 2)) })
	}
}
