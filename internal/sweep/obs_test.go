package sweep

import (
	"strings"
	"sync"
	"testing"

	"rmalocks/internal/obs"
)

// obsGrid is a small mixed-engine grid: enough cells that scrapes
// genuinely overlap running cells under -race.
func obsGrid(m *obs.Registry) Grid {
	return Grid{
		Schemes:   []string{"RMA-MCS", "foMPI-Spin"},
		Workloads: []string{"empty"},
		Profiles:  []string{"uniform", "zipf"},
		Ps:        []int{16, 32},
		Iters:     10,
		Obs:       m,
	}
}

// TestScrapeWhileRunning is the mid-sweep race test: HTTP-plane reads
// (Prometheus scrape + progress NDJSON) run concurrently with sweep
// workers writing metrics and progress. Any unsynchronized access is a
// -race failure; the test also checks the final progress state and
// that attaching obs left every fingerprint identical to a bare run.
// Kept beside the identity matrix for its concurrent scrapes under -race.
func TestScrapeWhileRunning(t *testing.T) {
	m := obs.NewRegistry()
	prog := obs.NewSweepProgress("race test")
	grid := obsGrid(m)
	cells, err := grid.Cells()
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	scrapers.Add(2)
	go func() {
		defer scrapers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var sb strings.Builder
			if err := m.WritePrometheus(&sb); err != nil {
				t.Error(err)
				return
			}
			m.Snapshot()
		}
	}()
	go func() {
		defer scrapers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var sb strings.Builder
			if err := prog.WriteNDJSON(&sb); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	results, err := Run(cells, Options{Workers: 4, Progress: prog})
	close(stop)
	scrapers.Wait()
	if err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := prog.WriteNDJSON(&sb); err != nil {
		t.Fatal(err)
	}
	final := sb.String()
	if !strings.Contains(final, `"done":8`) || strings.Contains(final, `"state":"queued"`) {
		t.Fatalf("final progress not fully done:\n%s", final)
	}
	for _, r := range results {
		if !strings.Contains(final, r.Fingerprint) {
			t.Fatalf("progress missing fingerprint of %s", r.Key)
		}
	}

	// Observe, never perturb, sweep edition: the same grid without obs
	// produces the same fingerprints cell for cell.
	bare := obsGrid(nil)
	bareCells, err := bare.Cells()
	if err != nil {
		t.Fatal(err)
	}
	bareResults, err := Run(bareCells, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(bareResults) != len(results) {
		t.Fatalf("cell counts differ: %d vs %d", len(bareResults), len(results))
	}
	for i := range results {
		if results[i].Fingerprint != bareResults[i].Fingerprint {
			t.Fatalf("cell %s fingerprint drifted with obs on: %s vs %s",
				results[i].Key, results[i].Fingerprint, bareResults[i].Fingerprint)
		}
	}

	// The shared registry accumulated across cells: 8 cells × P iters.
	iters := m.Snapshot().Counters["cell_iters_done_total"]
	var want int64
	for _, c := range cells {
		want += int64(c.Key.P * grid.Iters)
	}
	if iters != want {
		t.Fatalf("cell_iters_done_total = %d, want %d", iters, want)
	}
}

// runningRecorder is a Progress that records which cells were running.
type runningRecorder struct {
	mu      sync.Mutex
	running map[int]int
}

func (r *runningRecorder) Start([]string)              {}
func (r *runningRecorder) CellCached(int, string)      {}
func (r *runningRecorder) CellDone(int, string, error) {}
func (r *runningRecorder) CellRunning(i int) {
	r.mu.Lock()
	r.running[i]++
	r.mu.Unlock()
}

// TestDerivedCellsAreNotRunning: the ETA extrapolates from simulated
// cells only, so a cell derived from an earlier run of its group never
// reports CellRunning, and a simulated one reports it once.
func TestDerivedCellsAreNotRunning(t *testing.T) {
	cells, err := rmaRWGrid("empty", 0.002, axis("TR", 200, 500, 1000, 6000)).Cells()
	if err != nil {
		t.Fatal(err)
	}
	rec := &runningRecorder{running: map[int]int{}}
	results, err := Run(cells, Options{Workers: 2, Progress: rec})
	if err != nil {
		t.Fatal(err)
	}
	derived := 0
	for i, r := range results {
		want := 1
		if r.Derived {
			derived, want = derived+1, 0
		}
		if rec.running[i] != want {
			t.Errorf("cell %s (derived %v): %d CellRunning, want %d", r.Key, r.Derived, rec.running[i], want)
		}
	}
	if derived != 3 {
		t.Fatalf("%d cells derived, want 3", derived)
	}
}
