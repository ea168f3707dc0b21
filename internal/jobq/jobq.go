// Package jobq is sweepd's job layer: grids arrive over the wire,
// become jobs, and run on a bounded pool with per-job progress
// tracking, cancellation, and cache-aware scheduling. The merge
// discipline is inherited from sweep.Run — results land at their
// canonical cell index regardless of cache state, worker count, or
// completion order — so a job's result bytes depend only on its grid.
package jobq

import (
	"errors"
	"fmt"
	"sync"

	"rmalocks/internal/obs"
	"rmalocks/internal/sweep"
)

// Job lifecycle states.
const (
	StateQueued   = "queued"   // submitted, waiting for a job slot
	StateRunning  = "running"  // cells executing (or resolving from cache)
	StateDone     = "done"     // all cells terminal, result available
	StateFailed   = "failed"   // a cell errored; partial results discarded
	StateCanceled = "canceled" // canceled before completion
)

// ErrDraining rejects submissions during graceful shutdown.
var ErrDraining = errors.New("jobq: daemon is draining, not accepting jobs")

// UnknownJobError names a job ID with no corresponding job.
type UnknownJobError struct{ ID string }

func (e UnknownJobError) Error() string { return fmt.Sprintf("jobq: unknown job %q", e.ID) }

// NotDoneError reports a result request for a job that has not (or will
// never) become done; State tells the caller which.
type NotDoneError struct {
	ID    string
	State string
}

func (e NotDoneError) Error() string {
	return fmt.Sprintf("jobq: job %s is %s, result unavailable", e.ID, e.State)
}

// Config wires a Manager into the daemon.
type Config struct {
	// Workers bounds each job's cell worker pool (<= 0: GOMAXPROCS).
	Workers int
	// MaxJobs bounds concurrently *running* jobs (<= 0: 1); excess
	// submissions queue in arrival order.
	MaxJobs int
	// Cache, when non-nil, resolves cells by content address before
	// they are scheduled (internal/cache's Store).
	Cache sweep.CellCache
	// Obs attaches the daemon's live instruments to every job's cells.
	Obs *obs.Registry
}

// Job is one submitted sweep. Fields are immutable after Submit except
// state/err/frags/fragErr, which the job goroutine writes under mu, and
// cells, which only that goroutine touches.
//
// A done job holds, per cell, its run-file fragment and a byte of
// progress state, and nothing else of the cell: not its report, its
// address, nor its key or fingerprint, which the events stream reads
// back from the fragment. A cache-served cell's fragment is the cache's
// own bytes, so what such a cell costs the job is a slice header and a
// byte; a derived or fault cell's fragment is the job's, and a cell
// that ran keeps its elapsed time too. A failed or canceled job keeps
// the tracker's full records.
type Job struct {
	ID    string
	Label string
	// cells is the enumerated grid — a Spec closure over the cell's
	// description and a slice of the grid's address string per cell —
	// and is dropped when the job reaches a terminal state (ncells keeps
	// the count for Status).
	cells  []sweep.Cell
	ncells int
	// prog is the job's one record of its cells' progress: the events
	// stream and Status read it.
	prog *obs.SweepProgress

	cancel     chan struct{}
	cancelOnce sync.Once
	done       chan struct{} // closed when the job reaches a terminal state
	// started closes once the job has claimed a run slot (or died
	// queued); the next submission waits on it, so jobs start in
	// submission order instead of racing for slots.
	started chan struct{}
	prev    *Job

	mu    sync.Mutex
	state string
	err   error
	// frags is a done job's result, each cell's fragment
	// (sweep.Fragment) in canonical order: what GET /result splices.
	// fragErr is set instead when a cell does not encode; the job is
	// still done, and its result an error.
	frags   [][]byte
	fragErr error
}

// Status is the wire view of a job (GET /jobs, GET /jobs/{id}).
type Status struct {
	ID     string `json:"id"`
	Label  string `json:"label,omitempty"`
	State  string `json:"state"`
	Cells  int    `json:"cells"`
	Done   int    `json:"done"`
	Cached int    `json:"cached"`
	Failed int    `json:"failed"`
	Error  string `json:"error,omitempty"`
}

// Cancel requests cancellation: queued jobs never start, running jobs
// stop claiming cells (in-flight cells finish and still land in the
// cache — work done is never thrown away).
func (j *Job) Cancel() { j.cancelOnce.Do(func() { close(j.cancel) }) }

// Done exposes the job's terminal-state signal (events streaming).
func (j *Job) Done() <-chan struct{} { return j.done }

// Progress exposes the job's obs tracker (events streaming).
func (j *Job) Progress() *obs.SweepProgress { return j.prog }

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	state, err := j.state, j.err
	j.mu.Unlock()
	s := Status{ID: j.ID, Label: j.Label, State: state, Cells: j.ncells}
	s.Done, s.Cached, s.Failed = j.prog.Counts()
	if err != nil {
		s.Error = err.Error()
	}
	return s
}

// setState transitions the job; terminal transitions drop the cell
// list and close done. Called from the job goroutine only.
func (j *Job) setState(state string, err error) {
	j.mu.Lock()
	j.state = state
	if err != nil {
		j.err = err
	}
	j.mu.Unlock()
	switch state {
	case StateDone, StateFailed, StateCanceled:
		j.cells = nil
		close(j.done)
	}
}

// Manager owns the job table and the run slots.
type Manager struct {
	cfg Config
	// slots holds a run slot per job that may run at once. A slot is
	// the storage its job's sweep returns results in (sweep.Options'
	// Results), cleared when the job lets it go: a job's results are
	// garbage once its fragments are taken, and reusing them keeps a
	// warm job's largest allocation off the collector's books.
	slots chan []sweep.CellResult

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	nextID   int
	draining bool

	wg sync.WaitGroup
}

// NewManager builds an idle manager.
func NewManager(cfg Config) *Manager {
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 1
	}
	m := &Manager{
		cfg:   cfg,
		slots: make(chan []sweep.CellResult, cfg.MaxJobs),
		jobs:  make(map[string]*Job),
	}
	for i := 0; i < cfg.MaxJobs; i++ {
		m.slots <- nil
	}
	return m
}

// maxSlotResults is the most results a run slot keeps for the next job,
// 2.3 MB of them: the results of a larger job are left to the collector
// rather than held for as long as the daemon runs.
const maxSlotResults = 4096

// Submit enumerates the grid (rejecting, before a job ID is ever
// minted, every grid Grid.Cells rejects), registers the job, and
// schedules it. The daemon's instruments are attached server-side;
// submitted grids are wire-form and carry none.
func (m *Manager) Submit(g sweep.Grid, label string) (*Job, error) {
	g.Obs = m.cfg.Obs
	cells, err := g.Cells()
	if err != nil {
		return nil, fmt.Errorf("jobq: submit: %w", err)
	}

	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	m.nextID++
	id := fmt.Sprintf("job-%d", m.nextID)
	j := &Job{
		ID: id, Label: label, cells: cells, ncells: len(cells),
		prog:    obs.NewSweepProgress(id),
		cancel:  make(chan struct{}),
		done:    make(chan struct{}),
		started: make(chan struct{}),
		state:   StateQueued,
	}
	if n := len(m.order); n > 0 {
		j.prev = m.jobs[m.order[n-1]]
	}
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.wg.Add(1)
	m.mu.Unlock()

	go m.run(j)
	return j, nil
}

// run is the job goroutine: wait behind earlier submissions, claim a
// slot, sweep, record the outcome.
func (m *Manager) run(j *Job) {
	defer m.wg.Done()
	var slot []sweep.CellResult
	if j.prev != nil {
		select {
		case <-j.cancel:
			close(j.started)
			j.setState(StateCanceled, sweep.ErrCanceled)
			return
		case <-j.prev.started:
		}
	}
	select {
	case <-j.cancel:
		close(j.started)
		j.setState(StateCanceled, sweep.ErrCanceled)
		return
	case slot = <-m.slots:
	}
	close(j.started)
	defer func() {
		if cap(slot) > maxSlotResults {
			slot = nil
		}
		clear(slot[:cap(slot)])
		m.slots <- slot[:0]
	}()
	j.setState(StateRunning, nil)
	results, err := sweep.Run(j.cells, sweep.Options{
		Workers:  m.cfg.Workers,
		Cache:    m.cfg.Cache,
		Cancel:   j.cancel,
		Progress: j.prog,
		Results:  slot,
	})
	if cap(results) > cap(slot) {
		slot = results
	}
	switch {
	case errors.Is(err, sweep.ErrCanceled):
		j.setState(StateCanceled, err)
	case err != nil:
		j.setState(StateFailed, err)
	default:
		j.finish(results)
		j.setState(StateDone, nil)
	}
}

// finish keeps the fragments of a job whose every cell succeeded, its
// result. They hold each cell's key and fingerprint, so the tracker
// reads its lines' back from them (sweep.AppendKeyText) and drops its
// own; a degraded fault cell's line then carries the fingerprint of
// the degradation join (sweep.Run), as its result does.
func (j *Job) finish(results []sweep.CellResult) {
	frags, err := fragments(results)
	j.mu.Lock()
	j.frags, j.fragErr = frags, err
	j.mu.Unlock()
	if err == nil {
		j.prog.Compact(fragmentText(frags))
	}
}

// fragmentText reads each cell's key text and fingerprint back from its
// fragment.
func fragmentText(frags [][]byte) obs.CellText {
	return func(b []byte, i int) ([]byte, []byte) {
		b, fp, _ := sweep.AppendKeyText(b, frags[i])
		return b, fp
	}
}

// fragments returns every result's fragment, encoding, once, those of
// cells that carry none (a computed cell the cache did not keep, a
// fault cell after the degradation join); the results themselves are
// garbage after this. The error is the first cell's that does not
// encode.
func fragments(results []sweep.CellResult) ([][]byte, error) {
	frags := make([][]byte, len(results))
	for i := range results {
		var err error
		if frags[i], err = sweep.Fragment(results[i]); err != nil {
			return nil, err
		}
	}
	return frags, nil
}

// Get looks up a job.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, UnknownJobError{ID: id}
	}
	return j, nil
}

// Statuses lists all jobs in submission order.
func (m *Manager) Statuses() []Status {
	m.mu.Lock()
	order := append([]string(nil), m.order...)
	jobs := make([]*Job, len(order))
	for i, id := range order {
		jobs[i] = m.jobs[id]
	}
	m.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// Cancel cancels the named job.
func (m *Manager) Cancel(id string) error {
	j, err := m.Get(id)
	if err != nil {
		return err
	}
	j.Cancel()
	return nil
}

// Result returns the finished job's run file: label + cells in
// canonical order, no timestamp, so the bytes are a pure function of
// the submitted grid. Its cells are decoded from the job's fragments,
// for in-process callers; the daemon serves AppendResult's bytes.
func (m *Manager) Result(id string) (sweep.RunFile, error) {
	label, frags, err := m.finished(id)
	if err != nil {
		return sweep.RunFile{}, err
	}
	cells := make([]sweep.CellResult, len(frags))
	for i, frag := range frags {
		if cells[i], err = sweep.DecodeFragment(frag); err != nil {
			return sweep.RunFile{}, err
		}
	}
	return sweep.RunFile{Label: label, Cells: cells}, nil
}

// AppendResult appends the finished job's run file to b: the bytes
// sweep.Encode writes for Result's, spliced from the job's fragments.
func (m *Manager) AppendResult(b []byte, id string) ([]byte, error) {
	label, frags, err := m.finished(id)
	if err != nil {
		return b, err
	}
	return sweep.AppendFragments(b, label, frags), nil
}

// finished returns the named job's label and fragments, which nobody
// writes once the job is done: a NotDoneError unless it is, and its
// encoding error if a cell did not encode.
func (m *Manager) finished(id string) (string, [][]byte, error) {
	j, err := m.Get(id)
	if err != nil {
		return "", nil, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.state != StateDone:
		return "", nil, NotDoneError{ID: id, State: j.state}
	case j.fragErr != nil:
		return "", nil, j.fragErr
	}
	return j.Label, j.frags, nil
}

// Shutdown drains the manager: new submissions are refused, every job
// is canceled (in-flight cells complete and land in the cache), and
// Shutdown returns once all job goroutines have exited.
func (m *Manager) Shutdown() {
	m.mu.Lock()
	m.draining = true
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	for _, j := range jobs {
		j.Cancel()
	}
	m.wg.Wait()
}
