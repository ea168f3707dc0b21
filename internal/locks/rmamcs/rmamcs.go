// Package rmamcs implements RMA-MCS, the paper's topology-aware
// distributed MCS lock (§3.5): a distributed tree (DT) of distributed
// queues (DQ), one DQ per machine element per level, with per-level
// locality thresholds T_L,i trading fairness for locality. It is the
// paper's Listings 4–5 restricted to writers only (no distributed counter,
// no readers), with T_L,1 not applicable (the root queue passes the lock
// indefinitely, since there are no readers to hand over to).
package rmamcs

import (
	"fmt"
	"math"

	"rmalocks/internal/locks"
	"rmalocks/internal/rma"
)

// Config selects the locality thresholds.
type Config struct {
	// TL[i] is T_L,i for level i (1-based; TL[0] ignored). Level 1 is
	// forced to "unlimited" per §3.5. Missing or zero entries default to
	// DefaultTL.
	TL []int64
}

// DefaultTL is the default locality threshold for every level below the
// root.
const DefaultTL int64 = 32

// Lock is an RMA-MCS lock instance.
type Lock struct {
	tree *locks.DQTree
	n    int
	id   int // trace lock id (Machine.RegisterLock)

	// Acquires counts lock acquisitions.
	Acquires int64
	// DirectEntries counts acquisitions that short-cut into the CS via an
	// intra-element pass without reaching the root (locality wins).
	DirectEntries int64
}

// New allocates an RMA-MCS lock on m with default thresholds.
func New(m *rma.Machine) *Lock { return NewConfig(m, Config{}) }

// NewConfig allocates an RMA-MCS lock with explicit thresholds.
func NewConfig(m *rma.Machine, cfg Config) *Lock {
	n := m.Topology().Levels()
	l := &Lock{tree: locks.NewDQTree(m, resolve(n, cfg)), n: n, id: m.RegisterLock()}
	m.OnInit(func(*rma.Machine) { l.Acquires = 0; l.DirectEntries = 0 })
	return l
}

// resolve returns the T_L,i (1-based) a lock on an n-level machine is
// built with: defaults filled in, level 1 unlimited. The constructor and
// the descriptor's Resolve both use it.
func resolve(n int, cfg Config) []int64 {
	tl := make([]int64, n+1)
	for i := 2; i <= n; i++ {
		tl[i] = DefaultTL
		if i < len(cfg.TL) && cfg.TL[i] > 0 {
			tl[i] = cfg.TL[i]
		}
	}
	tl[1] = math.MaxInt64 // no readers to yield to at the root (§3.5)
	return tl
}

// Tree exposes the underlying DQ tree (for statistics and tests).
func (l *Lock) Tree() *locks.DQTree { return l.tree }

// Acquire climbs the DT from the leaf level N toward the root (Listing 4).
// At each level it enqueues into the DQ of its machine element; a direct
// pass from a predecessor grants the global lock immediately, otherwise
// the process continues one level up on behalf of its element.
func (l *Lock) Acquire(p *rma.Proc) {
	p.TraceAcquireStart(l.id, true)
	l.acquire(p)
	p.TraceAcquired(l.id, true)
}

func (l *Lock) acquire(p *rma.Proc) {
	for i := l.n; i >= 1; i-- {
		status, hadPred := l.tree.EnterQueue(p, i)
		if hadPred {
			if status >= 0 {
				// T_L,i not reached: the lock was passed to us and we
				// directly proceed to the CS.
				l.Acquires++
				if i >= 2 {
					l.DirectEntries++ // short-cut: never reached the root
				}
				return
			}
			if status != locks.StatusAcquireParent {
				panic(fmt.Sprintf("rmamcs: unexpected status %d at level %d", status, i))
			}
		}
		// No predecessor, or the predecessor released to the parent:
		// start acquiring the next level of the tree.
		l.tree.SetStatus(p, i, locks.StatusAcquireStart)
	}
	// Reached past the root with every level's queue empty or handed
	// over: we hold the global lock.
	l.Acquires++
}

// Release walks the DT from the leaf (Listing 5): at each level it passes
// the lock within the element while T_L,i is not reached; otherwise it
// first releases the parent level, then detaches or tells its successor to
// acquire the parent itself.
func (l *Lock) Release(p *rma.Proc) {
	p.TraceRelease(l.id, true)
	l.releaseLevel(p, l.n)
}

func (l *Lock) releaseLevel(p *rma.Proc, i int) {
	succ, status := l.tree.ReadNode(p, i)
	if succ != rma.Nil && l.tree.TL[i].Exceeds(status) {
		// Pass the lock to succ at level i together with the number of
		// past lock passings within this machine element.
		l.tree.Pass(p, i, succ, status+1)
		return
	}
	// No known successor, or T_L,i reached: release the parent first.
	if i > 1 {
		l.releaseLevel(p, i-1)
	}
	if succ == rma.Nil {
		succ = l.tree.Detach(p, i)
		if succ == rma.Nil {
			return // queue emptied; level-i lock is free
		}
		if i == 1 {
			// A late arrival at the root gets the lock itself (there is
			// no parent to re-acquire).
			l.tree.Pass(p, i, succ, status+1)
			return
		}
	}
	// Notify succ to acquire the lock at level i-1.
	l.tree.Pass(p, i, succ, locks.StatusAcquireParent)
}
