package model

import (
	"strings"
	"testing"
)

func TestDMCSTwoProcs(t *testing.T) {
	r := Check(DMCS{Procs: 2, Iters: 2}, 0)
	if r.Violation != nil || r.Deadlock || r.Truncated {
		t.Fatalf("%v", r)
	}
	if r.States < 10 {
		t.Errorf("suspiciously small state space: %v", r)
	}
}

func TestDMCSThreeProcs(t *testing.T) {
	r := Check(DMCS{Procs: 3, Iters: 2}, 0)
	if r.Violation != nil || r.Deadlock || r.Truncated {
		t.Fatalf("%v", r)
	}
	t.Log(r)
}

func TestDMCSFourProcsOneIter(t *testing.T) {
	r := Check(DMCS{Procs: 4, Iters: 1}, 0)
	if r.Violation != nil || r.Deadlock || r.Truncated {
		t.Fatalf("%v", r)
	}
	t.Log(r)
}

func TestSpinModel(t *testing.T) {
	r := Check(SpinModel{Procs: 3, Iters: 2}, 0)
	if r.Violation != nil || r.Deadlock {
		t.Fatalf("%v", r)
	}
}

func TestRWOneWriterOneReader(t *testing.T) {
	r := Check(RW{Writers: 1, Readers: 1, Iters: 2, TW: 2, TR: 1, AcceptReaderStarvation: true}, 0)
	if r.Violation != nil || r.Deadlock || r.Truncated {
		t.Fatalf("%v", r)
	}
	t.Log(r)
}

func TestRWTwoWritersOneReader(t *testing.T) {
	r := Check(RW{Writers: 2, Readers: 1, Iters: 1, TW: 2, TR: 1, AcceptReaderStarvation: true}, 0)
	if r.Violation != nil || r.Deadlock || r.Truncated {
		t.Fatalf("%v", r)
	}
	t.Log(r)
}

func TestRWOneWriterTwoReaders(t *testing.T) {
	r := Check(RW{Writers: 1, Readers: 2, Iters: 1, TW: 2, TR: 2, AcceptReaderStarvation: true}, 0)
	if r.Violation != nil || r.Deadlock || r.Truncated {
		t.Fatalf("%v", r)
	}
	t.Log(r)
}

func TestRWTwoWritersTwoReaders(t *testing.T) {
	if testing.Short() {
		t.Skip("large state space")
	}
	r := Check(RW{Writers: 2, Readers: 2, Iters: 1, TW: 2, TR: 2, AcceptReaderStarvation: true}, 8_000_000)
	if r.Violation != nil || r.Deadlock {
		t.Fatalf("%v", r)
	}
	t.Log(r)
}

func TestRWPureReaders(t *testing.T) {
	// Readers alone cycle through counter resets without writers; the
	// only terminal states are documented reader tail-starvations.
	r := Check(RW{Writers: 0, Readers: 2, Iters: 2, TW: 2, TR: 2, AcceptReaderStarvation: true}, 0)
	if r.Violation != nil || r.Deadlock || r.Truncated {
		t.Fatalf("%v", r)
	}
}

func TestKnownLimitationReaderTailStarvation(t *testing.T) {
	// The paper's reader protocol (Listing 9) admits an adversarial
	// schedule in which a backed-off reader waits at the T_R barrier
	// while the remaining readers complete enough entries after the
	// final counter reset to refill ARRIVE to T_R: the counter then
	// freezes at T_R and the parked reader spins forever. Without the
	// accept-list, the checker must find that terminal state. A T_R far
	// above the readers per counter does not rule it out: a simulated
	// run of 64 ranks with two readers per counter deadlocks at T_R = 20
	// (internal/workload's TestRMARWReaderTailStarvation).
	r := Check(RW{Writers: 0, Readers: 2, Iters: 2, TW: 2, TR: 1}, 0)
	if !r.Deadlock {
		t.Fatalf("expected the reader tail-starvation to be found, got %v", r)
	}
}

func TestReaderResetMustNotStripWriterBias(t *testing.T) {
	// Regression for the race found by this checker: a reader that
	// probed TAIL before a writer enqueued could reset the counter after
	// the writer set the WRITE bias; a bias-stripping reset wedges the
	// writer's drain loop forever — a true deadlock that
	// AcceptReaderStarvation does NOT mask (the stuck process is a
	// writer). With the fix (reader-side resets keep the bias), every
	// mixed configuration below must be free of writer deadlocks.
	for _, cfg := range []RW{
		{Writers: 1, Readers: 1, Iters: 2, TW: 2, TR: 1, AcceptReaderStarvation: true},
		{Writers: 1, Readers: 1, Iters: 2, TW: 3, TR: 2, AcceptReaderStarvation: true},
		{Writers: 2, Readers: 1, Iters: 2, TW: 2, TR: 1, AcceptReaderStarvation: true},
	} {
		r := Check(cfg, 0)
		if r.Violation != nil || r.Deadlock || r.Truncated {
			t.Fatalf("%v", r)
		}
	}
}

func TestRWPureWriters(t *testing.T) {
	r := Check(RW{Writers: 3, Readers: 0, Iters: 1, TW: 2, TR: 1}, 0)
	if r.Violation != nil || r.Deadlock || r.Truncated {
		t.Fatalf("%v", r)
	}
}

// brokenSpin omits the CAS guard: acquire is a blind store, which must be
// caught as a mutual-exclusion violation — a self-test of the checker.
type brokenSpin struct{ SpinModel }

func (m brokenSpin) Step(st *State, p int) *State {
	n := st.Clone()
	switch n.PC[p] {
	case sTry:
		n.Mem[0] = 1 // no compare: broken on purpose
		n.PC[p] = sCS
	case sCS:
		n.PC[p] = sRel
	case sRel:
		n.Mem[0] = 0
		n.Loc[p][0]++
		if int(n.Loc[p][0]) >= m.Iters {
			n.PC[p] = sDone
		} else {
			n.PC[p] = sTry
		}
	default:
		return nil
	}
	return n
}

func TestCheckerDetectsViolation(t *testing.T) {
	r := Check(brokenSpin{SpinModel{Procs: 2, Iters: 1}}, 0)
	if r.Violation == nil {
		t.Fatal("checker failed to catch a broken lock")
	}
	if !strings.Contains(r.String(), "VIOLATION") {
		t.Errorf("bad report: %v", r)
	}
}

// deadlockModel: two processes wait for each other forever.
type deadlockModel struct{}

func (deadlockModel) Name() string { return "deadlock" }
func (deadlockModel) Init() *State {
	return &State{Mem: []int64{0, 0}, PC: make([]int, 2), Loc: [][]int64{{}, {}}}
}
func (deadlockModel) Done(st *State, p int) bool { return st.PC[p] == 2 }
func (deadlockModel) Step(st *State, p int) *State {
	// Each proc waits for the other's flag, then sets its own — classic.
	other := 1 - p
	switch st.PC[p] {
	case 0:
		if st.Mem[other] == 0 {
			return nil // wait for the other to go first
		}
		n := st.Clone()
		n.PC[p] = 1
		return n
	case 1:
		n := st.Clone()
		n.Mem[p] = 1
		n.PC[p] = 2
		return n
	}
	return nil
}
func (deadlockModel) Check(st *State) error { return nil }

func TestCheckerDetectsDeadlock(t *testing.T) {
	r := Check(deadlockModel{}, 0)
	if !r.Deadlock {
		t.Fatalf("checker missed a deadlock: %v", r)
	}
}

func TestTruncation(t *testing.T) {
	r := Check(DMCS{Procs: 3, Iters: 3}, 50)
	if !r.Truncated {
		t.Errorf("expected truncation at 50 states: %v", r)
	}
}

func TestRolesHelper(t *testing.T) {
	roles := Roles(2, 5)
	want := []bool{true, true, false, false, false}
	for i := range want {
		if roles[i] != want[i] {
			t.Fatalf("Roles(2,5)=%v", roles)
		}
	}
}

func TestStateCloneIndependence(t *testing.T) {
	m := DMCS{Procs: 2, Iters: 1}
	a := m.Init()
	b := a.Clone()
	b.Mem[0] = 99
	b.PC[0] = 5
	b.Loc[0][0] = 42
	if a.Mem[0] == 99 || a.PC[0] == 5 || a.Loc[0][0] == 42 {
		t.Error("Clone shares storage with original")
	}
	if a.key() == b.key() {
		t.Error("distinct states share a key")
	}
}
