package locktest

import (
	"strings"
	"testing"

	"rmalocks/internal/locks"
	"rmalocks/internal/rma"
	"rmalocks/internal/topology"
)

// nop is a lock that excludes nobody.
type nop struct{}

func (nop) Acquire(*rma.Proc)      {}
func (nop) Release(*rma.Proc)      {}
func (nop) AcquireRead(*rma.Proc)  {}
func (nop) ReleaseRead(*rma.Proc)  {}
func (nop) AcquireWrite(*rma.Proc) {}
func (nop) ReleaseWrite(*rma.Proc) {}

// racy is a test-and-set lock whose test and set are two operations: two
// ranks that read the free word before either writes it both enter.
type racy struct{ off int }

func (l racy) Acquire(p *rma.Proc) {
	for p.Get(0, l.off) != 0 {
		p.Compute(50)
	}
	p.Put(1, 0, l.off)
}

func (l racy) Release(p *rma.Proc) { p.Put(0, 0, l.off) }

// tas is the same lock done right, the control of the negative tests.
type tas struct{ off int }

func (l tas) Acquire(p *rma.Proc) {
	for p.CAS(1, 0, 0, l.off) != 0 {
		p.Compute(50)
	}
}

func (l tas) Release(p *rma.Proc) { p.Put(0, 0, l.off) }

func wantProblems(t *testing.T, problems []string, err error, want ...string) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	all := strings.Join(problems, "\n")
	for _, w := range want {
		if !strings.Contains(all, w) {
			t.Errorf("no %q problem reported; got:\n%s", w, all)
		}
	}
}

// The harness has to fail a lock that does not lock: a rank runs its
// whole critical section without giving up the scheduler's token, so only
// checks made in virtual time can see two ranks inside.
func TestStressMutexCatchesBrokenLocks(t *testing.T) {
	topo := topology.TwoLevel(2, 4)
	broken := map[string]MutexFactory{
		"nop":  func(*rma.Machine) locks.Mutex { return nop{} },
		"racy": func(m *rma.Machine) locks.Mutex { return racy{m.Alloc(1)} },
	}
	for name, mk := range broken {
		t.Run(name, func(t *testing.T) {
			problems, err := stressMutex(topo, mk, Options{})
			wantProblems(t, problems, err, "mutual exclusion violated", "lost updates")
		})
	}
	problems, err := stressMutex(topo, func(m *rma.Machine) locks.Mutex { return tas{m.Alloc(1)} }, Options{})
	if err != nil || len(problems) != 0 {
		t.Errorf("correct test-and-set lock failed: %v %q", err, problems)
	}
}

func TestStressRWCatchesBrokenLocks(t *testing.T) {
	topo := topology.TwoLevel(2, 4)
	mixed := func(p *rma.Proc, it int) (bool, int64) { return WriterPattern(p.Rank(), it, 1, 4), 0 }
	problems, _, err := stressRW(topo, func(*rma.Machine) locks.RWMutex { return nop{} }, mixed, Options{})
	wantProblems(t, problems, err, "reader/writer exclusion violated", "counter changed under", "writer counter=")

	// A mutex under WriterOnly is a correct RW lock whose readers never
	// overlap, and the harness says so.
	problems, serial, err := stressRW(topo, func(m *rma.Machine) locks.RWMutex {
		return locks.WriterOnly{Mu: tas{m.Alloc(1)}}
	}, mixed, Options{})
	if err != nil || len(problems) != 0 || !serial {
		t.Errorf("WriterOnly test-and-set: err=%v problems=%q serialReaders=%v, want none and true", err, problems, serial)
	}
}

func TestSectionsCheck(t *testing.T) {
	s := &Sections{iv: []section{
		{start: 10, end: 20, rank: 0},              // readers 0 and 1 overlap: fine
		{start: 15, end: 40, rank: 1},              //
		{start: 30, end: 50, rank: 2, write: true}, // enters under reader 1
		{start: 50, end: 60, rank: 3, write: true}, // back to back: fine
		{start: 55, end: 70, rank: 0},              // enters under writer 3
		{start: 70, end: 80, rank: 1, write: true}, // reader 0 just left: fine
		{start: 75, end: 90, rank: 2, write: true}, // enters under writer 1
	}}
	viol, overlapped := s.Check()
	if !overlapped {
		t.Error("overlapping readers not reported")
	}
	want := []string{
		"writer rank 2 entered at 30 ns while reader rank 1 was inside [15, 40] ns",
		"reader rank 0 entered at 55 ns while writer rank 3 was inside [50, 60] ns",
		"writer rank 2 entered at 75 ns while writer rank 1 was inside [70, 80] ns",
	}
	if strings.Join(viol, "\n") != strings.Join(want, "\n") {
		t.Errorf("violations:\n%s\nwant:\n%s", strings.Join(viol, "\n"), strings.Join(want, "\n"))
	}
}
