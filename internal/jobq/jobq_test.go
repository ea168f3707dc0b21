package jobq_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"rmalocks/internal/jobq"
	"rmalocks/internal/sweep"
	"rmalocks/internal/workload"
)

func testGrid() sweep.Grid {
	return sweep.Grid{
		Schemes:   []string{workload.SchemeDMCS, workload.SchemeRMARW},
		Workloads: []string{"empty"},
		Profiles:  []string{"uniform", "zipf"},
		Ps:        []int{8, 16},
		Iters:     12,
		FW:        0.2,
		Locks:     4,
	}
}

func waitTerminal(t *testing.T, j *jobq.Job) jobq.Status {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not reach a terminal state", j.ID)
	}
	return j.Status()
}

func mustCells(tb testing.TB, g sweep.Grid) []sweep.Cell {
	tb.Helper()
	cells, err := g.Cells()
	if err != nil {
		tb.Fatal(err)
	}
	return cells
}

// gateCache blocks every Get until released — a deterministic way to
// hold a job in the running state.
type gateCache struct {
	release chan struct{}
}

func (g *gateCache) Get(string) (sweep.CellResult, bool) {
	<-g.release
	return sweep.CellResult{}, false
}
func (g *gateCache) Put(string, sweep.CellResult) {}

// TestMaxJobsQueueingAndQueuedCancel: with one job slot the second job
// waits in queued state, and canceling it there never runs a cell.
func TestMaxJobsQueueingAndQueuedCancel(t *testing.T) {
	gate := &gateCache{release: make(chan struct{})}
	m := jobq.NewManager(jobq.Config{Workers: 2, MaxJobs: 1, Cache: gate})

	j1, err := m.Submit(testGrid(), "first")
	if err != nil {
		t.Fatal(err)
	}
	j2, err := m.Submit(testGrid(), "second")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for j1.Status().State != jobq.StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if st := j2.Status(); st.State != jobq.StateQueued {
		t.Fatalf("second job state %s, want queued behind MaxJobs=1", st.State)
	}

	j2.Cancel()
	if st := waitTerminal(t, j2); st.State != jobq.StateCanceled || st.Done != 0 {
		t.Fatalf("canceled-while-queued job: state %s done %d, want canceled/0", st.State, st.Done)
	}
	if _, err := m.Result(j2.ID); err == nil {
		t.Fatal("Result succeeded for a canceled job")
	}

	close(gate.release)
	if st := waitTerminal(t, j1); st.State != jobq.StateDone {
		t.Fatalf("first job state %s, want done", st.State)
	}
	m.Shutdown()
}

// cancelOnFirstPut cancels the job the moment its first computed cell
// lands in the cache — from the worker goroutine itself, so with one
// worker exactly one cell computes before the cancel is visible. The
// job arrives over a channel because the cache is built before Submit.
type cancelOnFirstPut struct {
	once  sync.Once
	jobCh chan *jobq.Job
}

func (c *cancelOnFirstPut) Get(string) (sweep.CellResult, bool) { return sweep.CellResult{}, false }
func (c *cancelOnFirstPut) Put(string, sweep.CellResult) {
	c.once.Do(func() { (<-c.jobCh).Cancel() })
}

// TestCancelDrainsInFlightCell: cancel mid-run completes the in-flight
// cell (its Put happened) and stops claiming the rest.
func TestCancelDrainsInFlightCell(t *testing.T) {
	cc := &cancelOnFirstPut{jobCh: make(chan *jobq.Job, 1)}
	m := jobq.NewManager(jobq.Config{Workers: 1, MaxJobs: 1, Cache: cc})
	j, err := m.Submit(testGrid(), "grid")
	if err != nil {
		t.Fatal(err)
	}
	cc.jobCh <- j
	st := waitTerminal(t, j)
	if st.State != jobq.StateCanceled {
		t.Fatalf("state %s, want canceled", st.State)
	}
	if st.Done == 0 {
		t.Fatal("no cell completed; the in-flight cell must drain, not abort")
	}
	if st.Done == st.Cells {
		t.Fatal("every cell completed; cancel did not stop the claim loop")
	}
	m.Shutdown()
}

// TestShutdownRefusesNewJobs: after Shutdown the manager is draining.
func TestShutdownRefusesNewJobs(t *testing.T) {
	m := jobq.NewManager(jobq.Config{Workers: 2, MaxJobs: 1})
	j, err := m.Submit(testGrid(), "grid")
	if err != nil {
		t.Fatal(err)
	}
	m.Shutdown()
	if _, err := m.Submit(testGrid(), "late"); !errors.Is(err, jobq.ErrDraining) {
		t.Fatalf("submit after Shutdown: %v, want ErrDraining", err)
	}
	st := j.Status()
	if st.State != jobq.StateDone && st.State != jobq.StateCanceled {
		t.Fatalf("job left in state %s after Shutdown", st.State)
	}
}

// TestSubmitRejectsMalformedGrid: bad grids fail eagerly, minting no job.
func TestSubmitRejectsMalformedGrid(t *testing.T) {
	m := jobq.NewManager(jobq.Config{})
	defer m.Shutdown()
	g := testGrid()
	g.Schemes = nil
	if _, err := m.Submit(g, "bad"); err == nil {
		t.Fatal("schemes-free grid accepted")
	}
	if n := len(m.Statuses()); n != 0 {
		t.Fatalf("%d jobs registered for a rejected submission", n)
	}
}
