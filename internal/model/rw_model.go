package model

import "fmt"

// RW is the abstract model of RMA-RW on a single-level machine: writers
// form one MCS root queue (Listings 7–8) and synchronize with readers
// through one physical counter (Listings 6, 9, 10). This covers the
// reader/writer interplay — the part of RMA-RW that SPIN checking targets
// in §4.4 — while the tree layers above are covered by the DQ-tree model
// and implementation tests.
//
// Shared memory: [0] TAIL, [1] ARRIVE, [2] DEPART, [3] RLOCK (the
// per-counter reset latch; see below), then per process p: [4+2p] NEXT_p,
// [5+2p] STATUS_p (only used by writers).
//
// RLOCK is a correction to the paper: reset_counter (Listing 6) reads
// ARRIVE/DEPART and then subtracts the snapshot, which is not safe under
// concurrency — a reader-side reset (Listing 9 line 20) can overlap a
// releasing writer's reset, double-subtracting DEPART and leaving a stray
// WRITE bias that wedges every later writer. This checker found the race;
// serializing resets with a one-word CAS latch removes it.
type RW struct {
	Writers int
	Readers int
	Iters   int
	TW      int64 // writer threshold (T_W)
	TR      int64 // reader threshold (T_R)

	// AcceptReaderStarvation treats terminal states in which every
	// remaining process is a reader parked at the T_R barrier as accepted
	// end states instead of deadlocks. This is the paper's reader
	// tail-starvation corner: with finite work, the last T_R arrivals
	// after the final counter reset can refill ARRIVE to exactly T_R
	// while a backed-off reader misses every ARRIVE < T_R window, leaving
	// it spinning forever. Exhaustive search without fairness
	// assumptions always finds it; a large T_R makes it rarer but does
	// not rule it out (internal/workload's TestRMARWReaderTailStarvation
	// hits it at T_R = 20 with two readers per counter).
	AcceptReaderStarvation bool
}

// AcceptStuck implements StuckAcceptor (see AcceptReaderStarvation).
func (m RW) AcceptStuck(st *State) bool {
	if !m.AcceptReaderStarvation {
		return false
	}
	for p := 0; p < m.procs(); p++ {
		if m.Done(st, p) {
			continue
		}
		if m.isWriter(p) || st.PC[p] != rBarrier {
			return false
		}
	}
	return true
}

// rwBias is the model's WRITE-mode bias (any value ≫ TR works).
const rwBias int64 = 1 << 20

// Status encoding (as in the implementation).
const (
	rwWait       int64 = -1
	rwModeChange int64 = -3
)

// Writer program counters.
const (
	wPrep = iota
	wSwap
	wLink
	wSpin
	wBias
	wDrain
	wSetStart
	wCS
	wRel
	wResetLock // CAS the reset latch
	wResetRead // snapshot ARRIVE/DEPART
	wResetArr  // subtract from ARRIVE
	wResetDep  // subtract from DEPART
	wResetRel  // release the latch, resume continuation
	wReadSucc
	wCASTail
	wWaitSucc
	wPass
	wEnd
)

// Reader program counters (offset so they never collide in reports).
const (
	rBarrier = 100 + iota
	rFAO
	rCheck
	rTail
	rResetLock
	rResetRead
	rResetArr
	rResetDep
	rResetRel
	rDec
	rCS
	rRel
	rEnd
)

// Writer locals.
const (
	lPred = iota
	lSucc
	lNextStat
	lArr
	lDep
	lReset // counters already reset this release?
	lCont  // continuation PC after the reset block
	lIter
	numLoc
)

// Reader locals reuse: lArr/lDep for snapshots, lPred as cur, lReset as
// the barrier flag, lIter as the iteration counter.

// Name implements Model.
func (m RW) Name() string {
	return fmt.Sprintf("RMA-RW(1-level) W=%d R=%d iters=%d TW=%d TR=%d",
		m.Writers, m.Readers, m.Iters, m.TW, m.TR)
}

func (m RW) procs() int { return m.Writers + m.Readers }

func (m RW) isWriter(p int) bool { return p < m.Writers }

func nextOf(p int) int   { return 4 + 2*p }
func statusOf(p int) int { return 5 + 2*p }

// Init implements Model.
func (m RW) Init() *State {
	n := m.procs()
	st := &State{
		Mem: make([]int64, 4+2*n),
		PC:  make([]int, n),
		Loc: make([][]int64, n),
	}
	st.Mem[0] = -1 // TAIL
	for p := 0; p < n; p++ {
		st.Mem[nextOf(p)] = -1
		st.Mem[statusOf(p)] = rwWait
		st.Loc[p] = make([]int64, numLoc)
		if m.isWriter(p) {
			st.PC[p] = wPrep
		} else {
			st.PC[p] = rBarrier
		}
	}
	return st
}

// Done implements Model.
func (m RW) Done(st *State, p int) bool {
	return st.PC[p] == wEnd || st.PC[p] == rEnd
}

// Step implements Model.
func (m RW) Step(st *State, p int) *State {
	if m.isWriter(p) {
		return m.stepWriter(st, p)
	}
	return m.stepReader(st, p)
}

func (m RW) stepWriter(st *State, p int) *State {
	n := st.Clone()
	loc := n.Loc[p]
	switch n.PC[p] {
	case wPrep:
		n.Mem[nextOf(p)] = -1
		n.Mem[statusOf(p)] = rwWait
		n.PC[p] = wSwap
	case wSwap:
		loc[lPred] = n.Mem[0]
		n.Mem[0] = int64(p)
		if loc[lPred] == -1 {
			n.PC[p] = wBias
		} else {
			n.PC[p] = wLink
		}
	case wLink:
		n.Mem[nextOf(int(loc[lPred]))] = int64(p)
		n.PC[p] = wSpin
	case wSpin:
		s := st.Mem[statusOf(p)]
		if s == rwWait {
			return nil // blocked
		}
		if s == rwModeChange {
			n.PC[p] = wBias
		} else {
			n.PC[p] = wCS // direct pass: the count stays in STATUS_p
		}
	case wBias:
		n.Mem[1] += rwBias
		n.PC[p] = wDrain
	case wDrain:
		// §4.1: wait until no active readers remain.
		if st.Mem[1]-rwBias != st.Mem[2] {
			return nil // blocked
		}
		n.PC[p] = wSetStart
	case wSetStart:
		n.Mem[statusOf(p)] = 0 // ACQUIRE_START
		n.PC[p] = wCS
	case wCS:
		n.PC[p] = wRel
	case wRel:
		loc[lNextStat] = n.Mem[statusOf(p)] + 1
		loc[lReset] = 0
		if loc[lNextStat] == m.TW {
			loc[lNextStat] = rwModeChange
			loc[lReset] = 1
			loc[lCont] = wReadSucc
			n.PC[p] = wResetLock
		} else {
			n.PC[p] = wReadSucc
		}
	case wResetLock:
		if st.Mem[3] != 0 {
			return nil // latch held
		}
		n.Mem[3] = 1
		n.PC[p] = wResetRead
	case wResetRead:
		loc[lArr] = n.Mem[1]
		loc[lDep] = n.Mem[2]
		n.PC[p] = wResetArr
	case wResetArr:
		sub := loc[lDep]
		if loc[lArr] >= rwBias {
			sub += rwBias
		}
		n.Mem[1] -= sub
		n.PC[p] = wResetDep
	case wResetDep:
		n.Mem[2] -= loc[lDep]
		n.PC[p] = wResetRel
	case wResetRel:
		n.Mem[3] = 0
		n.PC[p] = int(loc[lCont])
	case wReadSucc:
		loc[lSucc] = n.Mem[nextOf(p)]
		if loc[lSucc] != -1 {
			n.PC[p] = wPass
			break
		}
		if loc[lReset] == 0 {
			// Pass the lock to the readers before leaving.
			loc[lNextStat] = rwModeChange
			loc[lReset] = 1
			loc[lCont] = wCASTail
			n.PC[p] = wResetLock
		} else {
			n.PC[p] = wCASTail
		}
	case wCASTail:
		if n.Mem[0] == int64(p) {
			n.Mem[0] = -1
			m.finishWriter(n, p)
		} else {
			n.PC[p] = wWaitSucc
		}
	case wWaitSucc:
		if st.Mem[nextOf(p)] == -1 {
			return nil // blocked
		}
		loc[lSucc] = n.Mem[nextOf(p)]
		n.PC[p] = wPass
	case wPass:
		n.Mem[statusOf(int(loc[lSucc]))] = loc[lNextStat]
		m.finishWriter(n, p)
	default:
		return nil
	}
	return n
}

func (m RW) finishWriter(st *State, p int) {
	st.Loc[p][lIter]++
	if int(st.Loc[p][lIter]) >= m.Iters {
		st.PC[p] = wEnd
	} else {
		st.PC[p] = wPrep
	}
}

func (m RW) stepReader(st *State, p int) *State {
	n := st.Clone()
	loc := n.Loc[p]
	switch n.PC[p] {
	case rBarrier:
		if loc[lReset] != 0 && st.Mem[1] >= m.TR {
			return nil // blocked waiting for a counter reset
		}
		n.PC[p] = rFAO
	case rFAO:
		loc[lPred] = n.Mem[1] // cur
		n.Mem[1]++
		if loc[lPred] < m.TR {
			n.PC[p] = rCS
		} else {
			loc[lReset] = 1 // barrier
			n.PC[p] = rCheck
		}
	case rCheck:
		if loc[lPred] == m.TR {
			n.PC[p] = rTail
		} else {
			n.PC[p] = rDec
		}
	case rTail:
		if n.Mem[0] == -1 { // no waiting writers: reopen the counter
			n.PC[p] = rResetLock
		} else {
			n.PC[p] = rDec
		}
	case rResetLock:
		if st.Mem[3] != 0 {
			return nil // latch held
		}
		n.Mem[3] = 1
		n.PC[p] = rResetRead
	case rResetRead:
		loc[lArr] = n.Mem[1]
		loc[lDep] = n.Mem[2]
		n.PC[p] = rResetArr
	case rResetArr:
		// Reader-side reset never strips the WRITE bias: a writer may
		// have switched the counter to WRITE between our TAIL probe and
		// this reset, and stripping its bias would wedge its drain loop
		// forever (found by this model checker; see DESIGN.md).
		n.Mem[1] -= loc[lDep]
		n.PC[p] = rResetDep
	case rResetDep:
		n.Mem[2] -= loc[lDep]
		n.PC[p] = rResetRel
	case rResetRel:
		n.Mem[3] = 0
		loc[lReset] = 0 // barrier off
		n.PC[p] = rDec
	case rDec:
		n.Mem[1]--
		n.PC[p] = rBarrier
	case rCS:
		n.PC[p] = rRel
	case rRel:
		n.Mem[2]++
		loc[lReset] = 0
		loc[lIter]++
		if int(loc[lIter]) >= m.Iters {
			n.PC[p] = rEnd
		} else {
			n.PC[p] = rBarrier
		}
	default:
		return nil
	}
	return n
}

// Check implements Model: one writer at most, and never a writer together
// with a reader.
func (m RW) Check(st *State) error {
	writers, readers := 0, 0
	for p := 0; p < m.procs(); p++ {
		switch st.PC[p] {
		case wCS:
			writers++
		case rCS:
			readers++
		}
	}
	if writers > 1 {
		return fmt.Errorf("two writers in CS")
	}
	if writers == 1 && readers > 0 {
		return fmt.Errorf("writer sharing CS with %d readers", readers)
	}
	return nil
}
