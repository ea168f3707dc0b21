package obs

import (
	"io"
	"slices"
	"strings"
	"sync"
	"time"
)

// Cell lifecycle states reported by /progress.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
	// StateCached marks a cell resolved from the result cache: terminal
	// without ever running (sweepd's dirty-cell-only recompute path).
	StateCached = "cached"
)

// SweepProgress tracks per-cell sweep status for workbench's /progress
// endpoint and sweepd's /jobs and /jobs/{id}/events. It implements
// sweep.Progress (Start / CellRunning / CellDone) without importing
// package sweep, mirroring how the trace sink plugs into the engines.
// All methods are goroutine-safe: sweep workers update concurrently
// with HTTP readers, and nothing here can reach back into a simulation
// — progress is observational only.
type SweepProgress struct {
	mu      sync.Mutex
	started time.Time
	// elapsed is the sweep's wall time, set when its last cell turns
	// terminal: a finished sweep's summary does not age.
	elapsed time.Duration
	title   string
	cells   []cellStat
	// text, states and took replace cells once Compact has dropped the
	// records: cell i's key text and fingerprint are read back through
	// text, its state is states[i], and took holds, in cell order, how
	// long each cell in state cellRan ran.
	text    CellText
	states  []cellState
	took    []time.Duration
	done    int
	running int
	cached  int
	failed  int
	// computed counts completions of cells that went through
	// CellRunning, the ETA's base: a cache hit or a derivation from a
	// stored sibling completes in ~0 time and would drag the per-cell
	// mean toward zero.
	computed int
	// ver increments on every state change; the follow stream uses it
	// to ship only transitions.
	ver uint64
}

// cellStat is one cell's record, 64 bytes, while the sweep runs. A
// finished sweepd job keeps none: Compact leaves a byte per cell.
type cellStat struct {
	key         string
	fingerprint string
	err         string
	// at is, while the cell runs, when it started, as an offset from
	// the tracker's start (monotonic); once a cell that ran is done or
	// failed, how long it ran. Zero for a cell that never ran.
	at    time.Duration
	state cellState
}

// cellState is a cell's lifecycle state, an index into stateNames.
type cellState uint8

const (
	cellQueued cellState = iota
	cellRunning
	cellDone
	cellFailed
	cellCached
	// cellRan is, in a compacted tracker, a done cell that ran: one
	// with an elapsed time.
	cellRan
)

// stateNames spells each cellState as /progress writes it.
var stateNames = [...]string{
	cellQueued: StateQueued, cellRunning: StateRunning, cellDone: StateDone,
	cellFailed: StateFailed, cellCached: StateCached, cellRan: StateDone,
}

// NewSweepProgress creates an empty tracker; Start (called by
// sweep.Run) populates it.
func NewSweepProgress(title string) *SweepProgress {
	return &SweepProgress{title: title}
}

// Start registers the sweep's cells in canonical order, all queued.
// Implements sweep.Progress. The tracker keeps the keys' text in one
// string of its own, so it holds on to nothing the caller's keys were
// cut from.
func (p *SweepProgress) Start(keys []string) {
	if p == nil {
		return
	}
	n := 0
	for _, k := range keys {
		n += len(k)
	}
	// Not strings.Join, which returns a lone key itself.
	var text strings.Builder
	text.Grow(n)
	for _, k := range keys {
		text.WriteString(k)
	}
	all := text.String()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.started, p.elapsed = time.Now(), 0
	p.text, p.states, p.took = nil, nil, nil
	p.cells = make([]cellStat, len(keys))
	for i, k := range keys {
		p.cells[i] = cellStat{key: all[:len(k)]}
		all = all[len(k):]
	}
	p.done, p.running, p.cached, p.failed, p.computed = 0, 0, 0, 0, 0
	p.ver++
}

// CellCached marks cell i as resolved from the result cache — terminal,
// instantaneous, never run. Implements sweep.Progress. Cached cells
// count as done but are not in the ETA base.
func (p *SweepProgress) CellCached(i int, fingerprint string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if i < 0 || i >= len(p.cells) {
		return
	}
	c := &p.cells[i]
	c.state = cellCached
	c.fingerprint = fingerprint
	p.cached++
	p.finishLocked()
}

// CellRunning marks cell i as executing. Implements sweep.Progress.
func (p *SweepProgress) CellRunning(i int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if i < 0 || i >= len(p.cells) {
		return
	}
	p.cells[i].state = cellRunning
	p.cells[i].at = time.Since(p.started)
	p.running++
	p.ver++
}

// CellDone records cell i's outcome: its report fingerprint on
// success, the error otherwise. Implements sweep.Progress. A cell done
// without CellRunning (derived from a stored sibling) is not in the
// ETA base.
func (p *SweepProgress) CellDone(i int, fingerprint string, err error) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if i < 0 || i >= len(p.cells) {
		return
	}
	c := &p.cells[i]
	if c.state == cellRunning {
		p.running--
		p.computed++
		c.at = time.Since(p.started) - c.at
	}
	c.state = cellDone
	c.fingerprint = fingerprint
	if err != nil {
		c.state = cellFailed
		c.err = err.Error()
		p.failed++
	}
	p.finishLocked()
}

// finishLocked counts a cell that turned terminal, and stops the
// sweep's clock at the last. Caller holds p.mu.
func (p *SweepProgress) finishLocked() {
	p.done++
	p.ver++
	if p.done == len(p.cells) {
		p.elapsed = time.Since(p.started)
	}
}

// CellText reads back cell i of a finished sweep: it appends the cell's
// key text to b as a JSON string, quoted and escaped as json.Marshal
// writes it, and returns that with the cell's fingerprint written the
// same way, which the caller only reads.
type CellText func(b []byte, i int) (_, fingerprint []byte)

// Compact drops each cell's key, fingerprint and error from a finished
// tracker, which from then on reads the first two back through text.
// It keeps the counts, each cell's state in a byte, and how long each
// cell that ran took. text must read back, for every cell, the key and
// fingerprint the tracker holds, so that no line the tracker writes
// changes. Compact does nothing, and reports false, unless every cell
// is terminal and none failed (a failed cell's line has an error). A
// finished sweepd job compacts its tracker with a reader of its
// fragments, which hold both.
func (p *SweepProgress) Compact(text CellText) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cells == nil || p.done != len(p.cells) || p.failed != 0 {
		return false
	}
	states := make([]cellState, len(p.cells))
	ran := 0
	for i, c := range p.cells {
		states[i] = c.state
		if c.at != 0 {
			states[i] = cellRan
			ran++
		}
	}
	took := make([]time.Duration, 0, ran)
	for _, c := range p.cells {
		if c.at != 0 {
			took = append(took, c.at)
		}
	}
	p.text, p.states, p.took, p.cells = text, states, took, nil
	return true
}

// CellLine is one cell's status, one NDJSON line of /progress.
type CellLine struct {
	Cell        string  `json:"cell"`
	State       string  `json:"state"`
	Fingerprint string  `json:"fingerprint,omitempty"`
	Error       string  `json:"error,omitempty"`
	ElapsedMs   float64 `json:"elapsed_ms,omitempty"`
	// index is the line's cell, whose key text and fingerprint a
	// compacted tracker reads back (CellText) instead of holding.
	index int
}

// SummaryLine is the trailing NDJSON line of /progress: aggregate
// counts plus an ETA extrapolated from the completed-cell rate.
type SummaryLine struct {
	Summary bool   `json:"summary"`
	Title   string `json:"title,omitempty"`
	Total   int    `json:"total"`
	Done    int    `json:"done"`
	Running int    `json:"running"`
	Queued  int    `json:"queued"`
	Failed  int    `json:"failed"`
	// Cached counts cells resolved from the result cache (a subset of
	// Done); omitted when zero, keeping cache-free sweeps' NDJSON
	// byte-identical to pre-sweepd output.
	Cached    int     `json:"cached,omitempty"`
	ElapsedMs float64 `json:"elapsed_ms"`
	// EtaMs extrapolates time to completion from the mean rate of
	// *computed* completions — cells that ran; cache hits and
	// derivations are instantaneous and excluded from the base. -1 until
	// the first computed cell completes (no bogus extrapolation from
	// zero or instantaneous completions); 0 once every cell is terminal,
	// including the all-cells-cached case.
	EtaMs float64 `json:"eta_ms"`
}

// snapshotLocked renders the current state, the cells' lines into
// lines' storage. Caller holds p.mu.
func (p *SweepProgress) snapshotLocked(lines []CellLine) ([]CellLine, SummaryLine) {
	n := p.total()
	lines = slices.Grow(lines[:0], n)[:n]
	elapsed := p.elapsed
	if !p.finishedLocked() && !p.started.IsZero() {
		elapsed = time.Since(p.started)
	}
	for i, c := range p.cells {
		lines[i] = CellLine{Cell: c.key, State: stateNames[c.state], Fingerprint: c.fingerprint, Error: c.err}
		switch c.state {
		case cellRunning:
			lines[i].ElapsedMs = float64(elapsed-c.at) / 1e6
		case cellDone, cellFailed:
			lines[i].ElapsedMs = float64(c.at) / 1e6
		}
	}
	took := p.took
	for i, st := range p.states {
		lines[i] = CellLine{State: stateNames[st], index: i}
		if st == cellRan {
			lines[i].ElapsedMs = float64(took[0]) / 1e6
			took = took[1:]
		}
	}
	sum := SummaryLine{
		Summary: true, Title: p.title,
		Total: n, Done: p.done, Running: p.running,
		Queued: n - p.done - p.running, Failed: p.failed,
		Cached:    p.cached,
		ElapsedMs: float64(elapsed) / 1e6, EtaMs: -1,
	}
	// ETA: remaining cells × mean wall time per computed completion.
	if p.done == n {
		sum.EtaMs = 0
	} else if p.computed > 0 {
		perCell := elapsed / time.Duration(p.computed)
		sum.EtaMs = float64(perCell*time.Duration(n-p.done)) / 1e6
	}
	return lines, sum
}

// total is the sweep's cell count. Caller holds p.mu.
func (p *SweepProgress) total() int { return len(p.cells) + len(p.states) }

// finishedLocked reports whether the sweep has cells and every one is
// terminal. Caller holds p.mu.
func (p *SweepProgress) finishedLocked() bool { return p.total() > 0 && p.done == p.total() }

// Counts returns how many cells are terminal, how many of those were
// served from the cache, and how many failed.
func (p *SweepProgress) Counts() (done, cached, failed int) {
	if p == nil {
		return 0, 0, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.done, p.cached, p.failed
}

// WriteNDJSON writes the current snapshot as NDJSON: one CellLine per
// cell in canonical order, then one SummaryLine, in one Write.
func (p *SweepProgress) WriteNDJSON(w io.Writer) error {
	if p == nil {
		return nil
	}
	s := getNDJSON()
	defer putNDJSON(s)
	var sum SummaryLine
	p.mu.Lock()
	s.lines, sum = p.snapshotLocked(s.lines)
	text := p.text
	p.mu.Unlock()
	for i := range s.lines {
		s.buf = appendCellLine(s.buf, &s.lines[i], text)
	}
	s.buf = appendSummaryLine(s.buf, &sum)
	_, err := w.Write(s.buf)
	return err
}

// flusher lets the streaming writer push each update through an
// http.ResponseWriter's buffer.
type flusher interface{ Flush() }

// StreamNDJSON writes the snapshot like WriteNDJSON and then keeps
// streaming: on every state change (polled at the given interval,
// 250 ms when it is not positive) it emits the transitioned cells and a
// fresh SummaryLine, until the sweep finishes or the writer errors
// (client gone). done receives an optional external stop signal (may
// be nil); once it closes, the changes made since the last poll are
// emitted and the stream ends, so a stop signalled after the sweep's
// last transition never loses it. Each tick is one Write and one Flush
// of a buffer the stream reuses.
func (p *SweepProgress) StreamNDJSON(w io.Writer, interval time.Duration, done <-chan struct{}) error {
	if p == nil {
		return nil
	}
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	s := getNDJSON()
	defer putNDJSON(s)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	// s.last[i] is the state cell i was last emitted in. Start may
	// install the cell list after the stream has opened (a job still
	// queued), so it is sized to the list on every tick, under the lock;
	// a cell it has no state for yet counts as changed.
	var ver uint64
	stopped := false
	for first := true; ; first = false {
		p.mu.Lock()
		// finished is read in the same critical section as the snapshot,
		// so the tick that observes it also emits the final transitions.
		finished := p.finishedLocked()
		emit := first || p.ver != ver
		text := p.text
		var changed []CellLine
		var sum SummaryLine
		if emit {
			s.lines, sum = p.snapshotLocked(s.lines)
			if n := len(s.lines); n > len(s.last) {
				s.last = append(s.last, make([]string, n-len(s.last))...)
			} else {
				s.last = s.last[:n]
			}
			changed = s.lines[:0] // filtered in place
			for i, l := range s.lines {
				if l.State != s.last[i] {
					s.last[i] = l.State
					changed = append(changed, l)
				}
			}
			ver = p.ver
		}
		p.mu.Unlock()
		if emit {
			s.buf = s.buf[:0]
			for i := range changed {
				s.buf = appendCellLine(s.buf, &changed[i], text)
			}
			s.buf = appendSummaryLine(s.buf, &sum)
			if _, err := w.Write(s.buf); err != nil {
				return err
			}
			if f, ok := w.(flusher); ok {
				f.Flush()
			}
		}
		if finished || stopped {
			return nil
		}
		select {
		case <-done:
			stopped = true
		case <-tick.C:
		}
	}
}
