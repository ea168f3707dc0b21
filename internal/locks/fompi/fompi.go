// Package fompi implements the two comparison locks of the foMPI MPI-3
// RMA library (Gerstenberger et al., SC'13) that the paper evaluates
// against: a global spinlock (foMPI-Spin) and a centralized Reader-Writer
// lock (foMPI-RW). Both keep their state on a single rank, which is
// exactly the hot spot the paper's distributed designs remove.
package fompi

import (
	"math"

	"rmalocks/internal/rma"
	"rmalocks/internal/spinwait"
)

// word is the one window word, on one rank, that a lock of this package
// keeps its whole state in.
type word struct {
	base int
	home int
	id   int // trace lock id (Machine.RegisterLock)
	// acq holds every rank's acquire in progress, so that a contended
	// acquire, whose state outlives the call that parks it (rma.Proc.Poll),
	// allocates nothing.
	acq []acquire
}

func newWord(m *rma.Machine) word {
	return word{base: m.Alloc(1), home: 0, id: m.RegisterLock(), acq: make([]acquire, m.Procs())}
}

// phase is where an acquire stands in its protocol: every phase is one
// operation on the word, and one try of the acquire (rma.Retry) makes one.
type phase uint8

const (
	// foMPI-Spin: CAS 0→1.
	spinClaim phase = iota
	// foMPI-RW reader: count in; if a writer holds or claims the lock,
	// count out again and wait for the writer bit to clear.
	readArrive
	readBackOut
	readWait
	// foMPI-RW writer: read the word, set the writer bit on it if nobody
	// has, wait for the readers counted in to leave; give the bit back if
	// the deadline passes first.
	writeRead
	writeClaim
	writeDrain
	writeBackOut
)

// noDeadline is the deadline of an unbounded acquire: it never expires.
const noDeadline int64 = math.MaxInt64

// acquire is one rank's acquire in progress: its tries are the protocol's
// phases, each repeated with capped exponential backoff until it gets
// through or the deadline passes. Spinlocks back off much further than
// queue locks: every retry is a remote atomic on the single hot word.
type acquire struct {
	w        *word
	p        *rma.Proc
	retries  *int64 // the lock's contention counter for this mode
	deadline int64
	b        spinwait.Backoff
	seen     int64 // writeClaim: the word as writeRead found it
	phase    phase
	expired  bool // the deadline passed; the word is as the acquire found it
}

// run acquires for p, starting in phase first, and reports whether it got
// the lock before the deadline. Attempts that did not are resolved in the
// trace stream as EvAcqTimeout.
func (w *word) run(p *rma.Proc, write bool, first phase, retries *int64, deadline int64) bool {
	p.TraceAcquireStart(w.id, write)
	a := &w.acq[p.Rank()]
	*a = acquire{w: w, p: p, retries: retries, deadline: deadline, b: spinwait.New(200, 16000), phase: first}
	p.Poll(a)
	if a.expired {
		p.TraceAcquireTimeout(w.id, write)
		return false
	}
	p.TraceAcquired(w.id, write)
	return true
}

// Try implements rma.Retry: one operation on the word, then what follows
// from its result.
func (a *acquire) Try() bool {
	p, home, base := a.p, a.w.home, a.w.base
	switch a.phase {
	case spinClaim:
		prev := p.CAS(1, 0, home, base)
		p.Flush(home)
		return prev == 0 || a.retry()
	case readArrive:
		prev := p.FAO(1, home, base, rma.OpSum)
		p.Flush(home)
		if prev&writerBit == 0 {
			return true
		}
		a.phase = readBackOut
	case readBackOut:
		p.Accumulate(-1, home, base, rma.OpSum)
		p.Flush(home)
		*a.retries++
		a.phase = readWait
	case readWait:
		if a.late() {
			return true
		}
		v := p.Get(home, base)
		p.Flush(home)
		if v&writerBit == 0 {
			a.phase = readArrive
		} else {
			a.b.Pause(p)
		}
	case writeRead:
		v := p.Get(home, base)
		p.Flush(home)
		if v&writerBit != 0 {
			return a.retry()
		}
		a.seen, a.phase = v, writeClaim
	case writeClaim:
		prev := p.CAS(a.seen|writerBit, a.seen, home, base)
		p.Flush(home)
		if prev != a.seen {
			a.phase = writeRead
			return a.retry()
		}
		a.b.Reset()
		a.phase = writeDrain
	case writeDrain:
		v := p.Get(home, base)
		p.Flush(home)
		if v == writerBit {
			return true
		}
		// Past the deadline the claim is backed out, so a timed-out
		// writer never wedges the lock.
		if a.late() {
			a.phase = writeBackOut
		} else {
			a.b.Pause(p)
		}
	case writeBackOut:
		p.Accumulate(-writerBit, home, base, rma.OpSum)
		p.Flush(home)
		return true
	}
	return false
}

// retry ends a try that lost to another rank: count it, then give up if
// the deadline has passed — a claim that failed left nothing behind, so
// abandoning is just stopping — or back off. It reports whether the
// acquire is over.
func (a *acquire) retry() bool {
	*a.retries++
	if a.late() {
		return true
	}
	a.b.Pause(a.p)
	return false
}

// late reports, and records, that the deadline has passed.
func (a *acquire) late() bool {
	if a.p.Now() >= a.deadline {
		a.expired = true
	}
	return a.expired
}

// SpinLock is foMPI-Spin: a test-and-CAS spinlock with exponential backoff
// on one word of one rank.
type SpinLock struct {
	word

	// Retries counts failed CAS attempts (contention indicator).
	Retries int64
}

// NewSpin allocates a foMPI-Spin lock with its word on rank 0.
func NewSpin(m *rma.Machine) *SpinLock {
	l := &SpinLock{word: newWord(m)}
	m.OnInit(func(m *rma.Machine) {
		m.Set(l.home, l.base, 0)
		l.Retries = 0
	})
	return l
}

// Acquire spins with capped exponential backoff until the CAS 0→1 wins.
func (l *SpinLock) Acquire(p *rma.Proc) {
	l.run(p, true, spinClaim, &l.Retries, noDeadline)
}

// TryAcquireFor is the bounded variant of Acquire: it spins until the
// CAS wins or the deadline passes, then gives up cleanly.
func (l *SpinLock) TryAcquireFor(p *rma.Proc, timeout int64) bool {
	return l.run(p, true, spinClaim, &l.Retries, p.Now()+timeout)
}

// Release clears the lock word.
func (l *SpinLock) Release(p *rma.Proc) {
	p.TraceRelease(l.id, true)
	p.Accumulate(0, l.home, l.base, rma.OpReplace)
	p.Flush(l.home)
}

// writerBit marks a writer holding (or claiming) the RW lock; the low bits
// count active readers.
const writerBit int64 = 1 << 62

// RWLock is foMPI-RW: a centralized reader-writer lock on a single word.
// Readers fetch-and-add the reader count; a writer claims the writer bit
// and drains readers. All traffic targets one rank.
type RWLock struct {
	word

	// ReaderRetries / WriterRetries count back-offs (contention).
	ReaderRetries int64
	WriterRetries int64
}

// NewRW allocates a foMPI-RW lock with its word on rank 0.
func NewRW(m *rma.Machine) *RWLock {
	l := &RWLock{word: newWord(m)}
	m.OnInit(func(m *rma.Machine) {
		m.Set(l.home, l.base, 0)
		l.ReaderRetries = 0
		l.WriterRetries = 0
	})
	return l
}

// AcquireRead increments the reader count; if a writer holds or claims the
// lock, it undoes the increment, waits for the writer bit to clear, and
// retries.
func (l *RWLock) AcquireRead(p *rma.Proc) {
	l.run(p, false, readArrive, &l.ReaderRetries, noDeadline)
}

// TryAcquireReadFor is the bounded variant of AcquireRead. The increment
// is already backed out when the wait for the writer begins, so a
// timed-out attempt leaves the word exactly as it found it.
func (l *RWLock) TryAcquireReadFor(p *rma.Proc, timeout int64) bool {
	return l.run(p, false, readArrive, &l.ReaderRetries, p.Now()+timeout)
}

// ReleaseRead decrements the reader count.
func (l *RWLock) ReleaseRead(p *rma.Proc) {
	p.TraceRelease(l.id, false)
	p.Accumulate(-1, l.home, l.base, rma.OpSum)
	p.Flush(l.home)
}

// AcquireWrite claims the writer bit (one writer at a time), then waits
// for active readers to drain. Claiming before draining gives writers
// preference so they cannot starve behind a continuous reader stream.
func (l *RWLock) AcquireWrite(p *rma.Proc) {
	l.run(p, true, writeRead, &l.WriterRetries, noDeadline)
}

// TryAcquireWriteFor is the bounded variant of AcquireWrite. A deadline
// during the claim phase just stops retrying; a deadline during the
// reader drain backs the claimed writer bit out.
func (l *RWLock) TryAcquireWriteFor(p *rma.Proc, timeout int64) bool {
	return l.run(p, true, writeRead, &l.WriterRetries, p.Now()+timeout)
}

// ReleaseWrite clears the writer bit.
func (l *RWLock) ReleaseWrite(p *rma.Proc) {
	p.TraceRelease(l.id, true)
	p.Accumulate(-writerBit, l.home, l.base, rma.OpSum)
	p.Flush(l.home)
}
