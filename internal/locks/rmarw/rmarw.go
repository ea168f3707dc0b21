// Package rmarw implements RMA-RW, the paper's topology-aware distributed
// Reader-Writer lock (§3): the interplay of three distributed structures,
//
//   - DC, a distributed counter with one physical counter every T_DC-th
//     process, counting readers in the critical section and encoding the
//     READ/WRITE mode (§3.2.1, Listing 6);
//   - DQs, per-element distributed MCS queues ordering writers, with
//     locality thresholds T_L,i (§3.2.2);
//   - DT, the tree of DQs binding the levels together and synchronizing
//     writers with readers at the root, with reader threshold T_R and
//     writer threshold T_W = Π T_L,i (§3.2.3).
//
// The protocols follow the paper's Listings 4–10; see DESIGN.md for the
// per-element queue-node placement and the reader-drain loop required by
// §4.1.
package rmarw

import (
	"fmt"
	"math"

	"rmalocks/internal/locks"
	"rmalocks/internal/rma"
	"rmalocks/internal/spinwait"
	"rmalocks/internal/topology"
)

// Bias is added to a physical counter's ARRIVE word to switch it to the
// WRITE mode (the paper uses INT64_MAX/2; any value far above T_R works).
const Bias int64 = 1 << 62

// DefaultTL is the default locality threshold T_L,i for every level
// (the paper's default, matching rmamcs.DefaultTL).
const DefaultTL int64 = 32

// Config selects the three performance parameters of the lock (Figure 1's
// parameter space).
type Config struct {
	// TDC is the distributed-counter threshold T_DC: one physical counter
	// every TDC-th process. Default: one counter per compute node.
	TDC int
	// TR is the reader threshold T_R: the maximum number of readers that
	// enter through one physical counter before yielding to writers.
	// Default 1000.
	TR int64
	// TL[i] is T_L,i for level i (1-based; TL[0] ignored; zero entries
	// default to DefaultTL). T_W is always Π T_L,i per the paper.
	TL []int64
}

// Lock is an RMA-RW lock instance.
type Lock struct {
	tree *locks.DQTree
	topo *topology.Topology
	n    int
	tdc  int
	tr   int64
	tw   int64
	id   int // trace lock id (Machine.RegisterLock)

	arriveOff    int
	departOff    int
	rlockOff     int // per-counter reset latch (see resetCounter)
	counterRanks []int
	// waits holds every rank's wait at a counter in progress (a writer's
	// drain, either side's reset latch), so that a wait the scheduler has
	// to park (rma.Proc.Poll keeps the Retry) allocates nothing.
	waits []counterWait

	// Statistics (single-runner safe).
	ReadAcquires   int64
	WriteAcquires  int64
	ModeChanges    int64 // WRITE→READ hand-overs (counter resets by writers)
	ReaderBackoffs int64 // reader arrivals that had to back off
}

// New allocates an RMA-RW lock with default parameters.
func New(m *rma.Machine) *Lock { return NewConfig(m, Config{}) }

// NewConfig allocates an RMA-RW lock with explicit parameters; it
// panics on invalid ones (the validating form is NewConfigErr, which
// the scheme registry dispatches through).
func NewConfig(m *rma.Machine, cfg Config) *Lock {
	l, err := NewConfigErr(m, cfg)
	if err != nil {
		panic(err.Error())
	}
	return l
}

// NewConfigErr allocates an RMA-RW lock with explicit parameters,
// returning a descriptive error for out-of-range ones instead of
// panicking.
func NewConfigErr(m *rma.Machine, cfg Config) (*Lock, error) {
	topo := m.Topology()
	n := topo.Levels()
	tdc := cfg.TDC
	if tdc == 0 {
		tdc = topo.ProcsPerLeaf()
	}
	if tdc < 1 {
		return nil, fmt.Errorf("rmarw: TDC must be >= 1, got %d", tdc)
	}
	tr := cfg.TR
	if tr == 0 {
		tr = 1000
	}
	if tr < 1 || tr >= Bias/2 {
		return nil, fmt.Errorf("rmarw: TR out of range: %d", tr)
	}
	tl := make([]int64, n+1)
	for i := 1; i <= n; i++ {
		tl[i] = DefaultTL
		if i < len(cfg.TL) && cfg.TL[i] > 0 {
			tl[i] = cfg.TL[i]
		}
	}
	// Pre-check Π T_L,i before any window allocation happens, so an
	// invalid configuration leaves the machine untouched.
	prod := int64(1)
	for i := 1; i <= n; i++ {
		if tl[i] >= math.MaxInt64/prod {
			return nil, fmt.Errorf("rmarw: T_W overflow; choose smaller T_L,i")
		}
		prod *= tl[i]
	}
	l := &Lock{
		topo:         topo,
		n:            n,
		tdc:          tdc,
		tr:           tr,
		counterRanks: topo.CounterRanks(tdc),
		id:           m.RegisterLock(),
		waits:        make([]counterWait, m.Procs()),
	}
	// The pre-check above already bounds Π T_L,i strictly below
	// MaxInt64, so ProductTL cannot saturate here.
	l.tree = locks.NewDQTree(m, tl)
	l.tw = l.tree.ProductTL()
	// ARRIVE, DEPART and the latch: three consecutive words.
	l.arriveOff = m.Alloc(3)
	l.departOff = l.arriveOff + 1
	l.rlockOff = l.arriveOff + 2
	m.OnInit(func(m *rma.Machine) {
		for _, r := range l.counterRanks {
			m.Fill(r, l.arriveOff, 3, 0)
		}
		l.ReadAcquires, l.WriteAcquires = 0, 0
		l.ModeChanges, l.ReaderBackoffs = 0, 0
	})
	return l, nil
}

// TW returns the writer threshold T_W = Π T_L,i.
func (l *Lock) TW() int64 { return l.tw }

// TR returns the reader threshold T_R.
func (l *Lock) TR() int64 { return l.tr }

// TDC returns the distributed-counter threshold T_DC.
func (l *Lock) TDC() int { return l.tdc }

// CounterRanks returns the ranks hosting physical counters.
func (l *Lock) CounterRanks() []int { return l.counterRanks }

// CounterState reads a physical counter's (ARRIVE, DEPART, latch) words
// directly from machine memory; valid in OnInit callbacks and after a run
// (diagnostics and tests).
func (l *Lock) CounterState(m *rma.Machine, rank int) (arrive, depart, latch int64) {
	return m.At(rank, l.arriveOff), m.At(rank, l.departOff), m.At(rank, l.rlockOff)
}

// Tree exposes the underlying DQ tree (statistics, tests).
func (l *Lock) Tree() *locks.DQTree { return l.tree }

// counter returns c(p): the rank of the physical counter assigned to p.
func (l *Lock) counter(p *rma.Proc) int {
	return l.topo.CounterRank(p.Rank(), l.tdc)
}

// ---------------------------------------------------------------------
// Counter manipulation (paper Listing 6).
// ---------------------------------------------------------------------

// setCountersToWrite switches every physical counter to the WRITE mode by
// adding Bias to its arrival word, then—per §4.1—waits until every counter
// shows no active reader (arrivals minus bias all departed).
func (l *Lock) setCountersToWrite(p *rma.Proc) {
	for _, r := range l.counterRanks {
		p.Accumulate(Bias, r, l.arriveOff, rma.OpSum)
		p.Flush(r)
	}
	for _, r := range l.counterRanks {
		p.Poll(l.waitAt(p, r, drainArrive))
	}
}

// waitPhase is where a counterWait stands: every phase is one operation on
// the counter, and one try (rma.Retry) makes one.
type waitPhase uint8

const (
	// A writer's drain, waiting for the readers counted in at the counter
	// to leave: read ARRIVE, read DEPART, back off and start over unless
	// they differ by exactly the bias.
	drainArrive waitPhase = iota
	drainDepart
	// The wait for the counter's reset latch: CAS it 0→1, back off and
	// retry.
	latchClaim
)

// counterWait is one rank's wait at one physical counter.
type counterWait struct {
	l       *Lock
	p       *rma.Proc
	rank    int
	b       spinwait.Backoff
	arrived int64 // drainDepart: ARRIVE as drainArrive read it
	phase   waitPhase
}

// waitAt readies p's wait slot for a wait at the counter on rank, starting
// in phase first.
func (l *Lock) waitAt(p *rma.Proc, rank int, first waitPhase) *counterWait {
	w := &l.waits[p.Rank()]
	*w = counterWait{l: l, p: p, rank: rank, b: spinwait.Default(), phase: first}
	return w
}

// Try implements rma.Retry: one operation on the counter, then what
// follows from its result.
func (w *counterWait) Try() bool {
	p, l := w.p, w.l
	switch w.phase {
	case drainArrive:
		w.arrived = p.Get(w.rank, l.arriveOff)
		w.phase = drainDepart
		return false
	case drainDepart:
		dep := p.Get(w.rank, l.departOff)
		p.Flush(w.rank)
		w.phase = drainArrive
		if w.arrived-Bias == dep {
			return true
		}
		w.b.Pause(p)
		return false
	default: // latchClaim
		prev := p.CAS(1, 0, w.rank, l.rlockOff)
		p.Flush(w.rank)
		if prev == 0 {
			return true
		}
		w.b.Pause(p)
		// Jitter desynchronizes contenders: with a deterministic
		// scheduler, symmetric spinning can lock into a periodic cycle.
		p.Compute(int64(p.Rand().Intn(200)) + 1)
		return false
	}
}

// resetCounter resets one physical counter: subtract the departures from
// both words, reopening the counter for T_R new readers.
//
// Two corrections to the paper's Listing 6, both found by the model
// checker in internal/model (see DESIGN.md):
//
//  1. Resets are serialized with a one-word CAS latch. The snapshot-then-
//     subtract sequence is not safe under concurrency: a reader-side
//     reset (Listing 9 line 20) can overlap a releasing writer's reset,
//     double-subtracting DEPART and corrupting the counter.
//  2. Only a releasing writer (stripBias) removes the WRITE bias. A
//     reader-side reset must never strip it: a writer may have switched
//     the counter to WRITE between the reader's TAIL probe and its reset,
//     and losing that bias would wedge the writer's drain loop forever.
func (l *Lock) resetCounter(p *rma.Proc, rank int, stripBias bool) {
	p.Poll(l.waitAt(p, rank, latchClaim))
	arr := p.Get(rank, l.arriveOff)
	dep := p.Get(rank, l.departOff)
	p.Flush(rank)
	subArr, subDep := -dep, -dep
	if stripBias && arr >= Bias {
		subArr -= Bias
	}
	p.Accumulate(subArr, rank, l.arriveOff, rma.OpSum)
	p.Accumulate(subDep, rank, l.departOff, rma.OpSum)
	p.Flush(rank)
	p.Put(0, rank, l.rlockOff)
	p.Flush(rank)
}

// resetCounters hands the lock to the readers by resetting every counter.
func (l *Lock) resetCounters(p *rma.Proc) {
	for _, r := range l.counterRanks {
		l.resetCounter(p, r, true)
	}
	l.ModeChanges++
}

// ---------------------------------------------------------------------
// Reader protocol (paper Listings 9–10).
// ---------------------------------------------------------------------

// AcquireRead admits the reader once its physical counter is in READ mode
// and below T_R.
func (l *Lock) AcquireRead(p *rma.Proc) {
	p.TraceAcquireStart(l.id, false)
	l.acquireRead(p)
	p.TraceAcquired(l.id, false)
}

func (l *Lock) acquireRead(p *rma.Proc) {
	c := l.counter(p)
	barrier := false
	for {
		if barrier {
			// Wait for a counter reset (ours or a releasing writer's).
			p.SpinUntil(c, l.arriveOff, func(v int64) bool { return v < l.tr })
		}
		// Increment the arrival counter.
		curr := p.FAO(1, c, l.arriveOff, rma.OpSum)
		p.Flush(c)
		if curr < l.tr {
			l.ReadAcquires++
			return
		}
		// T_R reached (or WRITE mode: the bias dwarfs T_R).
		barrier = true
		l.ReaderBackoffs++
		if curr == l.tr {
			// We are the first to reach T_R: pass the lock to the
			// writers if any are waiting, otherwise reopen the counter.
			if l.tree.ReadTail(p, 1, p.Rank()) == rma.Nil {
				l.resetCounter(p, c, false)
				barrier = false
			}
		}
		// Back off and try again; jitter breaks the thundering herd of
		// readers whose +1/-1 pairs would otherwise keep the counter
		// saturated in lockstep at small T_R.
		p.Accumulate(-1, c, l.arriveOff, rma.OpSum)
		p.Flush(c)
		p.Compute(int64(p.Rand().Intn(400)) + 1)
	}
}

// ReleaseRead increments the departing-reader word of c(p).
func (l *Lock) ReleaseRead(p *rma.Proc) {
	p.TraceRelease(l.id, false)
	c := l.counter(p)
	p.Accumulate(1, c, l.departOff, rma.OpSum)
	p.Flush(c)
}

// ---------------------------------------------------------------------
// Writer protocol (paper Listings 4–5, 7–8).
// ---------------------------------------------------------------------

// AcquireWrite climbs the DT from the leaf; at the root it additionally
// synchronizes with the readers through the distributed counter.
func (l *Lock) AcquireWrite(p *rma.Proc) {
	p.TraceAcquireStart(l.id, true)
	l.acquireWrite(p)
	p.TraceAcquired(l.id, true)
}

func (l *Lock) acquireWrite(p *rma.Proc) {
	for i := l.n; i >= 2; i-- {
		status, hadPred := l.tree.EnterQueue(p, i)
		if hadPred {
			if status >= 0 {
				l.WriteAcquires++
				return // direct pass within the element (Listing 4)
			}
			if status != locks.StatusAcquireParent {
				panic(fmt.Sprintf("rmarw: unexpected status %d at level %d", status, i))
			}
		}
		l.tree.SetStatus(p, i, locks.StatusAcquireStart)
	}
	// Level 1 (Listing 7).
	status, hadPred := l.tree.EnterQueue(p, 1)
	switch {
	case hadPred && status >= 0:
		// Predecessor passed the lock; the count stays in our node.
	case hadPred && status == locks.StatusModeChange:
		// The readers have the lock now; take it back.
		l.setCountersToWrite(p)
		l.tree.SetStatus(p, 1, locks.StatusAcquireStart)
	case !hadPred:
		// Queue was empty: claim the lock from the readers.
		l.setCountersToWrite(p)
		l.tree.SetStatus(p, 1, locks.StatusAcquireStart)
	default:
		panic(fmt.Sprintf("rmarw: unexpected root status %d", status))
	}
	l.WriteAcquires++
}

// ReleaseWrite walks down from the leaf (Listing 5), ending at the root
// protocol (Listing 8).
func (l *Lock) ReleaseWrite(p *rma.Proc) {
	p.TraceRelease(l.id, true)
	l.releaseLevel(p, l.n)
}

func (l *Lock) releaseLevel(p *rma.Proc, i int) {
	if i == 1 {
		l.releaseRoot(p)
		return
	}
	succ, status := l.tree.ReadNode(p, i)
	if succ != rma.Nil && status < l.tree.TL[i] {
		l.tree.Pass(p, i, succ, status+1)
		return
	}
	// Threshold reached or no known successor: release the parent level
	// first, then leave this DQ or redirect the successor upward.
	l.releaseLevel(p, i-1)
	if succ == rma.Nil {
		succ = l.tree.Detach(p, i)
		if succ == rma.Nil {
			return
		}
	}
	l.tree.Pass(p, i, succ, locks.StatusAcquireParent)
}

// releaseRoot implements Listing 8: hand over to the readers if T_W is
// reached or no writer waits; otherwise pass to the next writer, possibly
// notifying it of the mode change.
func (l *Lock) releaseRoot(p *rma.Proc) {
	succ, status := l.tree.ReadNode(p, 1)
	countersReset := false
	next := status + 1
	if next == l.tw {
		// Pass the lock to the readers.
		l.resetCounters(p)
		next = locks.StatusModeChange
		countersReset = true
	}
	if succ == rma.Nil {
		if !countersReset {
			l.resetCounters(p)
			next = locks.StatusModeChange
		}
		succ = l.tree.Detach(p, 1)
		if succ == rma.Nil {
			return // no successor: the readers have the lock
		}
	}
	l.tree.Pass(p, 1, succ, next)
}
