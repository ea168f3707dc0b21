// Package trace is the deterministic event-tracing subsystem: a
// near-zero-overhead capture layer (Sink) that the scheduler
// (internal/sim and its refsim reference), the RMA machine
// (internal/rma) and every lock implementation (internal/locks/...)
// emit fixed-size events into, plus the analyses, exporters and replay
// validation built on the merged stream.
//
// # Capture model
//
// Every simulated rank owns one append buffer (Buf). The simulator runs
// exactly one process at a time (token ownership, see internal/sim), and
// every emission site writes either to the running rank's own buffer or
// — for dispatch/wake events — to a parked rank's buffer strictly before
// the token handoff that resumes it, so capture needs no locks and no
// atomics: an emission is a slice append plus a sequence increment. The
// happens-before edges of the hand-off itself (a coroutine switch on the
// default engine, mutex + wake channels on refsim) make the whole capture
// race-clean (the differential suite runs traced cells under -race).
//
// Events carry the emitting rank's virtual clock; the canonical merged
// order is (Clock, Rank, Seq). Because the simulation itself is a
// deterministic function of the seed, so is the merged stream: two runs
// of the same spec produce byte-identical traces. The differential suite
// holds it to two contracts. The semantic classes (ClassSched | ClassOp |
// ClassLock) — blocks, wakes, barriers, RMA operations, lock protocol
// events, with their clocks and Seq numbers — are byte-identical across
// scheduler engines and publication modes (lazy, and eager under
// rma.Config.NoCoalesce). The ClassCharge diagnostics record where
// virtual time was published and where the token changed hands, which is
// exactly what lazy publication moves: they differ between the two modes
// by design. Within one mode the hand-offs (EvDispatch) and rma's
// publication points (EvFlush) are still byte-identical across engines;
// EvAdvance alone also depends on the engine (refsim records every
// Advance, the default engine only those that leave its fast path), as
// does EvDispatch's served-inline mark (Arg1).
//
// # Overhead guard
//
// Classes are filtered at emission time: every instrumentation site
// holds a pre-resolved *Buf that is nil unless tracing is enabled for
// its class, so the disabled path costs one predictable nil check (and
// the scheduler's lock-free Advance fast path keeps its ~2ns budget —
// BenchmarkAdvanceUncontended vs BenchmarkAdvanceTraced in internal/sim
// pin both sides).
package trace

import (
	"fmt"
	"sort"
)

// Kind identifies one event type.
type Kind uint8

const (
	// EvDispatch: the execution token was handed to Rank.
	// Arg0 = previous holder's rank (-1 for the initial dispatch).
	// Arg1 = 1 when the hand-off was served inline: Rank was parked in a
	// poll and its retry step failed at this turn, so nobody switched into
	// its coroutine (internal/sim; the reference engine never does this).
	// Mode-dependent (ClassCharge): a lazy run hands the token over only
	// before an operation another rank can observe.
	EvDispatch Kind = iota
	// EvBlock: Rank blocked (SpinUntil wait or scheduler Block).
	EvBlock
	// EvWake: blocked Rank was made runnable again; Clock is its wake-up
	// clock. Arg0 = the waking rank.
	EvWake
	// EvBarrier: Rank arrived at a barrier (Clock = arrival time).
	EvBarrier
	// EvOp: Rank issued one RMA operation. Arg0 = operation code (OpPut
	// ... OpFlush), Arg1 = target rank, Arg2 = landing clock at the
	// target (0 for flushes).
	EvOp
	// EvAcqStart: Rank started acquiring a lock. Arg0 = lock id,
	// Arg1 = mode (0 read, 1 write).
	EvAcqStart
	// EvAcquired: Rank entered the critical section. Arg0 = lock id,
	// Arg1 = mode, Arg2 = the rank's leaf machine element.
	EvAcquired
	// EvRelease: Rank started releasing a lock it holds. Arg0 = lock id,
	// Arg1 = mode.
	EvRelease
	// EvAdvance: Rank published virtual time to the scheduler.
	// Arg0 = the published duration. Engine- and mode-dependent by
	// design (ClassCharge).
	EvAdvance
	// EvFlush: Rank published the virtual time it had charged but not yet
	// told the scheduler about (rma's lazy publication). Arg0 = the
	// published amount (ClassCharge).
	EvFlush
	// EvAcqTimeout: Rank's bounded lock acquire gave up at its deadline,
	// resolving the pending EvAcqStart without an acquisition. Arg0 =
	// lock id, Arg1 = mode (0 read, 1 write).
	EvAcqTimeout

	numKinds
)

var kindNames = [numKinds]string{
	"dispatch", "block", "wake", "barrier",
	"op", "acq-start", "acquired", "release",
	"advance", "flush", "acq-timeout",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Operation codes carried in EvOp's Arg0. The mapping from internal/rma
// operation kinds is fixed by rma's emission table (see rma.Proc).
const (
	OpPut int64 = iota
	OpGet
	OpAcc
	OpFAO
	OpCAS
	OpFlush
)

// OpNames maps EvOp Arg0 codes to display names.
var OpNames = [...]string{"put", "get", "acc", "fao", "cas", "flush"}

// Class is a bitmask of event classes, filtered at emission time: a Buf
// for a masked-out class is nil, so disabled sites cost one nil check
// and masked classes never consume sequence numbers (which keeps the
// enabled classes' streams byte-identical whatever else is masked).
type Class uint8

const (
	// ClassSched covers the scheduler events every run of a spec shares:
	// block, wake, barrier.
	ClassSched Class = 1 << iota
	// ClassOp covers RMA operation issue/land events.
	ClassOp
	// ClassLock covers lock acquire-start/acquired/release events.
	ClassLock
	// ClassCharge covers publication and hand-off diagnostics (advance,
	// flush, dispatch); mode-dependent by design: a lazy run publishes
	// and hands over less often than an eager one. Compared across
	// engines within a mode, never across modes.
	ClassCharge
)

// ClassSemantic is the engine- and mode-independent event set: the
// differential suite requires it byte-identical, Seq numbers included,
// across all four engine × publication-mode combinations. It says when
// everything another rank can observe happened; who held the token in
// between (EvDispatch) is ClassCharge.
const ClassSemantic = ClassSched | ClassOp | ClassLock

// ClassAll enables every class including the ClassCharge diagnostics.
const ClassAll = ClassSemantic | ClassCharge

// KindClass returns the class an event kind belongs to.
func KindClass(k Kind) Class {
	switch k {
	case EvBlock, EvWake, EvBarrier:
		return ClassSched
	case EvOp:
		return ClassOp
	case EvAcqStart, EvAcquired, EvRelease, EvAcqTimeout:
		return ClassLock
	default:
		return ClassCharge
	}
}

// Event is one fixed-size trace record. The meaning of Arg0..Arg2
// depends on Kind (see the Kind constants).
type Event struct {
	// Clock is the emitting rank's virtual time in ns. For EvWake it is
	// the woken rank's wake-up clock; for EvDispatch the dispatched
	// rank's clock.
	Clock int64
	Arg0  int64
	Arg1  int64
	Arg2  int64
	// Rank is the rank whose stream the event belongs to.
	Rank int32
	// Seq is the rank-local emission index; (Clock, Rank, Seq) is the
	// canonical total order.
	Seq  uint32
	Kind Kind
}

func (e Event) String() string {
	return fmt.Sprintf("%d r%d#%d %s %d %d %d", e.Clock, e.Rank, e.Seq, e.Kind, e.Arg0, e.Arg1, e.Arg2)
}

// Buf is one rank's append buffer. Emit must only be called while the
// simulation guarantees exclusive access to the rank's stream (the
// running process for its own buffer; the token holder for a parked
// rank's buffer, strictly before the handoff).
type Buf struct {
	events []Event
	rank   int32
	seq    uint32
}

// Emit appends one event at the given virtual clock.
func (b *Buf) Emit(k Kind, clock, a0, a1, a2 int64) {
	b.events = append(b.events, Event{Clock: clock, Arg0: a0, Arg1: a1, Arg2: a2, Rank: b.rank, Seq: b.seq, Kind: k})
	b.seq++
}

// Len returns the number of buffered events.
func (b *Buf) Len() int { return len(b.events) }

// At returns the i-th buffered event, for an emitter that learns one of
// its arguments only later.
func (b *Buf) At(i int) *Event { return &b.events[i] }

// Reset drops the buffered events but keeps counting Seq, so a
// bounded-memory capture (e.g. a long benchmark) can truncate
// periodically without ever reusing a sequence number.
func (b *Buf) Reset() { b.events = b.events[:0] }

// Sink owns the per-rank buffers of one simulation run. Create it with
// New, hand it to rma.Config.Trace / workload.Spec.Trace, and read the
// merged stream with Events after the run. A Sink must not be shared by
// concurrent runs (parallel sweep cells each build their own); starting
// a new run on the same machine resets it.
type Sink struct {
	mask Class
	bufs []Buf
	// merged caches the canonical stream; valid while mergedVer still
	// matches version() (the sum of per-rank sequence counters, which
	// is monotonic even across Buf.Reset truncations).
	merged    []Event
	mergedVer uint64
}

// New creates a sink capturing the given event classes; a zero mask
// selects ClassSemantic.
func New(mask Class) *Sink {
	if mask == 0 {
		mask = ClassSemantic
	}
	return &Sink{mask: mask}
}

// Mask returns the enabled event classes.
func (s *Sink) Mask() Class { return s.mask }

// Has reports whether every class in c is enabled.
func (s *Sink) Has(c Class) bool { return s.mask&c == c }

// Start sizes the sink for procs ranks and clears all buffers; the
// scheduler engines call it when a run begins.
func (s *Sink) Start(procs int) {
	if cap(s.bufs) < procs {
		s.bufs = make([]Buf, procs)
	}
	s.bufs = s.bufs[:procs]
	for i := range s.bufs {
		s.bufs[i].rank = int32(i)
		s.bufs[i].seq = 0
		s.bufs[i].events = s.bufs[i].events[:0]
	}
	s.merged, s.mergedVer = nil, 0
}

// Ranks returns the number of per-rank buffers (0 before Start).
func (s *Sink) Ranks() int { return len(s.bufs) }

// Buf returns rank's buffer if class is enabled, else nil.
// Instrumentation sites resolve their class-specific buffer once and
// guard each emission with a nil check.
func (s *Sink) Buf(rank int, class Class) *Buf {
	if s == nil || s.mask&class == 0 {
		return nil
	}
	return &s.bufs[rank]
}

// Len returns the total number of captured events.
func (s *Sink) Len() int {
	n := 0
	for i := range s.bufs {
		n += len(s.bufs[i].events)
	}
	return n
}

// RankEvents returns rank's raw stream (emission order).
func (s *Sink) RankEvents(rank int) []Event { return s.bufs[rank].events }

// Events returns every captured event merged into the canonical
// (Clock, Rank, Seq) order. The key is unique per event (Seq is
// rank-local and never reused), so the order is total and — because the
// simulation is deterministic — byte-identical across runs of the same
// spec. The merge is cached while no further events arrive (versioned
// by the monotonic per-rank sequence counters), so analyses and
// exporters reading the same finished run share one sort. Callers must
// not mutate the returned slice.
func (s *Sink) Events() []Event {
	if s.merged != nil && s.mergedVer == s.version() {
		return s.merged
	}
	out := make([]Event, 0, s.Len())
	for i := range s.bufs {
		out = append(out, s.bufs[i].events...)
	}
	SortCanonical(out)
	s.merged, s.mergedVer = out, s.version()
	return out
}

// version sums the per-rank sequence counters: a value that strictly
// increases with every emission, even across Buf.Reset truncations.
func (s *Sink) version() uint64 {
	var v uint64
	for i := range s.bufs {
		v += uint64(s.bufs[i].seq)
	}
	return v
}

// SortCanonical sorts events into the canonical (Clock, Rank, Seq)
// order in place.
func SortCanonical(events []Event) {
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.Clock != b.Clock {
			return a.Clock < b.Clock
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		return a.Seq < b.Seq
	})
}

// Filter returns the events whose kind belongs to one of the classes in
// mask, preserving order.
func Filter(events []Event, mask Class) []Event {
	out := make([]Event, 0, len(events))
	for _, e := range events {
		if mask&KindClass(e.Kind) != 0 {
			out = append(out, e)
		}
	}
	return out
}
