// Package locktest provides reusable conformance harnesses for the lock
// implementations: randomized stress programs that check mutual exclusion,
// reader-writer exclusion, progress (via the simulator's virtual-time
// limit) and completion, mirroring the designated-verifier approach of the
// paper's §4.4.
package locktest

import (
	"fmt"
	"sort"
	"testing"

	"rmalocks/internal/locks"
	"rmalocks/internal/rma"
	"rmalocks/internal/topology"
)

// MutexFactory builds a mutex on a machine (called before Machine.Run).
type MutexFactory func(m *rma.Machine) locks.Mutex

// RWFactory builds an RW lock on a machine (called before Machine.Run).
type RWFactory func(m *rma.Machine) locks.RWMutex

// Options tunes a stress run.
type Options struct {
	// Iters is the number of acquire/release cycles per process.
	Iters int
	// CSWork is the virtual nanoseconds spent inside the critical
	// section (plus a small random jitter), creating overlap windows.
	CSWork int64
	// TimeLimit aborts a hung run (virtual ns). Default 60 ms.
	TimeLimit int64
	// Seed seeds the machine RNGs.
	Seed int64
}

func (o *Options) fill() {
	if o.Iters == 0 {
		o.Iters = 20
	}
	if o.CSWork == 0 {
		o.CSWork = 500
	}
	if o.TimeLimit == 0 {
		o.TimeLimit = 60_000_000_000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Sections records every critical section of a run as an interval of
// virtual time, [Proc.Now at entry, Proc.Now at exit], and checks
// exclusion on the intervals after the run. Virtual clocks are the same
// whichever rank held the scheduler's token when, so the check does not
// depend on how the host interleaves rank bodies: a rank runs its whole
// critical section in one host slice (Compute does not yield), and
// host-side "ranks inside" counters never see two.
type Sections struct {
	iv   []section
	open []int64 // per rank: entry clock of the section it is in
}

type section struct {
	start, end int64
	rank       int
	write      bool
}

// NewSections returns a recorder for a machine of procs ranks.
func NewSections(procs int) *Sections {
	return &Sections{open: make([]int64, procs)}
}

// Enter marks p's critical-section entry; call it right after the acquire
// returns.
func (s *Sections) Enter(p *rma.Proc) { s.open[p.Rank()] = p.Now() }

// Exit closes the section p entered, exclusive when write is set; call it
// right before the release.
func (s *Sections) Exit(p *rma.Proc, write bool) {
	r := p.Rank()
	s.iv = append(s.iv, section{start: s.open[r], end: p.Now(), rank: r, write: write})
}

// Check returns one line per section that began before an earlier-starting
// section it excludes had ended (a writer against anybody, a reader
// against a writer), and whether any two readers overlapped.
func (s *Sections) Check() (violations []string, readersOverlapped bool) {
	sort.Slice(s.iv, func(i, j int) bool {
		a, b := s.iv[i], s.iv[j]
		if a.start != b.start {
			return a.start < b.start
		}
		return a.rank < b.rank
	})
	clash := func(c, prev section) {
		violations = append(violations, fmt.Sprintf(
			"%s rank %d entered at %d ns while %s rank %d was inside [%d, %d] ns",
			mode(c.write), c.rank, c.start, mode(prev.write), prev.rank, prev.start, prev.end))
	}
	var lastR, lastW section // the latest-ending reader and writer so far
	for _, c := range s.iv {
		if c.start < lastW.end {
			clash(c, lastW)
		}
		if c.start < lastR.end {
			if c.write {
				clash(c, lastR)
			} else {
				readersOverlapped = true
			}
		}
		if c.write && c.end > lastW.end {
			lastW = c
		} else if !c.write && c.end > lastR.end {
			lastR = c
		}
	}
	return violations, readersOverlapped
}

func mode(write bool) string {
	if write {
		return "writer"
	}
	return "reader"
}

// report turns a stress run's outcome into test failures.
func report(t *testing.T, problems []string, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("stress run failed: %v", err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// exclusion summarises a Sections check as at most one problem line.
func exclusion(what string, viol []string) []string {
	if len(viol) == 0 {
		return nil
	}
	return []string{fmt.Sprintf("%s violated %d times, first: %s", what, len(viol), viol[0])}
}

// StressMutex runs Iters acquire/release cycles on every process and
// checks mutual exclusion plus a lost-update-free shared counter.
func StressMutex(t *testing.T, topo *topology.Topology, mk MutexFactory, opt Options) {
	t.Helper()
	problems, err := stressMutex(topo, mk, opt)
	report(t, problems, err)
}

func stressMutex(topo *topology.Topology, mk MutexFactory, opt Options) (problems []string, err error) {
	opt.fill()
	m := rma.NewMachineConfig(topo, rma.Config{Seed: opt.Seed, TimeLimit: opt.TimeLimit})
	mu := mk(m)
	counter := m.Alloc(1) // on rank 0, deliberately unprotected: the lock must protect it
	cs := NewSections(topo.Procs())
	err = m.Run(func(p *rma.Proc) {
		for it := 0; it < opt.Iters; it++ {
			mu.Acquire(p)
			cs.Enter(p)
			v := p.Get(0, counter)
			p.Compute(opt.CSWork + int64(p.Rand().Intn(100)))
			p.Put(v+1, 0, counter)
			cs.Exit(p, true)
			mu.Release(p)
			p.Compute(int64(p.Rand().Intn(200)) + 1)
		}
	})
	if err != nil {
		return nil, err
	}
	viol, _ := cs.Check()
	problems = exclusion("mutual exclusion", viol)
	want := int64(topo.Procs() * opt.Iters)
	if got := m.At(0, counter); got != want {
		problems = append(problems, fmt.Sprintf("lost updates: counter=%d want %d", got, want))
	}
	return problems, nil
}

// WriterPattern decides deterministically whether iteration it of rank r
// acts as a writer, spreading a writer fraction of fwNum/fwDen evenly
// across ranks and iterations.
func WriterPattern(r, it int, fwNum, fwDen int) bool {
	if fwNum <= 0 {
		return false
	}
	if fwNum >= fwDen {
		return true
	}
	k := (r*7919 + it) % fwDen // deterministic spread over ranks and time
	return k < fwNum
}

// Pattern decides how iteration it of process p behaves: whether it
// enters exclusively (write) and how long it thinks after release.
// Implementations must draw randomness only from p.Rand() so stress runs
// stay deterministic; contention generators from internal/workload plug
// in here via a small closure.
type Pattern func(p *rma.Proc, it int) (write bool, think int64)

// StressRW runs a mixed reader/writer workload (writer fraction
// fwNum/fwDen) and checks reader-writer exclusion, writer-writer
// exclusion, and a writer-protected counter. It also reports whether any
// two readers ever overlapped in the CS (reader parallelism).
func StressRW(t *testing.T, topo *topology.Topology, mk RWFactory, fwNum, fwDen int, opt Options) {
	t.Helper()
	StressRWPattern(t, topo, mk, func(p *rma.Proc, it int) (bool, int64) {
		return WriterPattern(p.Rank(), it, fwNum, fwDen), 0
	}, opt)
}

// StressRWPattern runs a mixed workload whose per-iteration behaviour is
// decided by pat and checks the same invariants as StressRW: mutual
// writer exclusion, reader-writer exclusion, and a writer-protected
// counter; progress is enforced by the virtual-time limit.
func StressRWPattern(t *testing.T, topo *topology.Topology, mk RWFactory, pat Pattern, opt Options) {
	t.Helper()
	problems, serialReaders, err := stressRW(topo, mk, pat, opt)
	report(t, problems, err)
	if serialReaders && topo.Procs() >= 4 {
		t.Logf("note: readers never overlapped; workload may be too small")
	}
}

func stressRW(topo *topology.Topology, mk RWFactory, pat Pattern, opt Options) (problems []string, serialReaders bool, err error) {
	opt.fill()
	m := rma.NewMachineConfig(topo, rma.Config{Seed: opt.Seed, TimeLimit: opt.TimeLimit})
	rw := mk(m)
	counter := m.Alloc(1) // on rank 0, protected only by the lock under test
	cs := NewSections(topo.Procs())
	var writerEntries, readerEntries, torn int64
	err = m.Run(func(p *rma.Proc) {
		for it := 0; it < opt.Iters; it++ {
			write, think := pat(p, it)
			if write {
				rw.AcquireWrite(p)
				cs.Enter(p)
				v := p.Get(0, counter)
				p.Compute(opt.CSWork + int64(p.Rand().Intn(100)))
				p.Put(v+1, 0, counter)
				writerEntries++
				cs.Exit(p, true)
				rw.ReleaseWrite(p)
			} else {
				rw.AcquireRead(p)
				cs.Enter(p)
				readerEntries++
				v := p.Get(0, counter)
				p.Compute(opt.CSWork + int64(p.Rand().Intn(100)))
				if p.Get(0, counter) != v {
					torn++ // a writer snuck in while we read
				}
				cs.Exit(p, false)
				rw.ReleaseRead(p)
			}
			p.Compute(int64(p.Rand().Intn(200)) + 1)
			if think > 0 {
				p.Compute(think)
			}
		}
	})
	if err != nil {
		return nil, false, err
	}
	viol, readersOverlapped := cs.Check()
	problems = exclusion("reader/writer exclusion", viol)
	if torn != 0 {
		problems = append(problems, fmt.Sprintf("counter changed under %d of %d readers", torn, readerEntries))
	}
	if got := m.At(0, counter); got != writerEntries {
		problems = append(problems, fmt.Sprintf("writer counter=%d want %d", got, writerEntries))
	}
	return problems, readerEntries > 0 && !readersOverlapped, nil
}
