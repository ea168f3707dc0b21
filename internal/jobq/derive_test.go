package jobq_test

import (
	"bytes"
	"path/filepath"
	"sync"
	"testing"

	"rmalocks/internal/cache"
	"rmalocks/internal/jobq"
	"rmalocks/internal/sweep"
	"rmalocks/internal/workload"
)

// withTR is g with a one-value TR axis: at testGrid's size no counter
// sees anywhere near 1000 readers, so T_R ≥ 1000 never binds.
func withTR(g sweep.Grid, tr int64) sweep.Grid {
	g.Tunables = []sweep.TunableAxis{{Key: "TR", Values: []int64{tr}}}
	return g
}

// localBytes is the run file a local run of g writes.
func localBytes(tb testing.TB, g sweep.Grid, label string) []byte {
	tb.Helper()
	results, err := sweep.Run(mustCells(tb, g), sweep.Options{Workers: 2})
	if err != nil {
		tb.Fatal(err)
	}
	data, err := sweep.Encode(sweep.RunFile{Label: label, Cells: results})
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// rmaRW counts g's RMA-RW cells: the ones a TR axis dirties.
func rmaRW(tb testing.TB, g sweep.Grid) int {
	tb.Helper()
	n := 0
	for _, c := range mustCells(tb, g) {
		if c.Key.Scheme == workload.SchemeRMARW {
			n++
		}
	}
	return n
}

// entryFiles counts the entry files in a cache directory.
func entryFiles(tb testing.TB, dir string) int {
	tb.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		tb.Fatal(err)
	}
	n := 0
	for _, name := range names {
		if filepath.Base(name) != "index.json" {
			n++
		}
	}
	return n
}

// jobBytes submits g, waits for the job and returns its result as
// GET /jobs/{id}/result serves it (Manager.AppendResult): the daemon's
// path without the socket. It reports failures with Error, so a job may
// run on a goroutine of its own.
func jobBytes(tb testing.TB, m *jobq.Manager, g sweep.Grid, label string) []byte {
	tb.Helper()
	j, err := m.Submit(g, label)
	if err != nil {
		tb.Error(err)
		return nil
	}
	<-j.Done()
	data, err := m.AppendResult(nil, j.ID)
	if err != nil {
		tb.Errorf("%s: %v", label, err)
		return nil
	}
	return data
}

// TestJobsDeriveAcrossJobs: an earlier job stored testGrid's default-TR
// cells with their witnesses. Two jobs at once, each with a TR no job
// has asked for, derive every RMA-RW cell from those entries and still
// return a local run's bytes; after the store is closed and reopened
// with a one-byte budget, a third TR derives too: the sibling index is
// rebuilt from disk, from entries over budget as well. Kept beside the
// identity matrix for its concurrent jobs and what the store holds.
func TestJobsDeriveAcrossJobs(t *testing.T) {
	dir := t.TempDir()
	store, _, err := cache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := jobq.NewManager(jobq.Config{Workers: 2, MaxJobs: 2, Cache: store})
	g := testGrid()
	if got := jobBytes(t, m, g, "fill"); !bytes.Equal(got, localBytes(t, g, "fill")) {
		t.Fatal("the filling job differs from a local run")
	}
	rw := rmaRW(t, g)

	trs := []int64{20001, 20002}
	got := make([][]byte, len(trs))
	var wg sync.WaitGroup
	for i, tr := range trs {
		wg.Add(1)
		go func(i int, tr int64) {
			defer wg.Done()
			got[i] = jobBytes(t, m, withTR(g, tr), "dirty")
		}(i, tr)
	}
	wg.Wait()
	for i, tr := range trs {
		if !bytes.Equal(got[i], localBytes(t, withTR(g, tr), "dirty")) {
			t.Errorf("TR=%d: job differs from a local run", tr)
		}
	}
	if st := store.Stats(); st.Derived != int64(len(trs)*rw) {
		t.Errorf("%d cells derived, want every RMA-RW cell of both jobs: %d", st.Derived, len(trs)*rw)
	}
	m.Shutdown()

	store, rep, err := cache.Open(dir, 1)
	if err != nil || rep.Loaded != 0 {
		t.Fatalf("reopen: %+v, %v; want nothing resident", rep, err)
	}
	m = jobq.NewManager(jobq.Config{Workers: 2, MaxJobs: 1, Cache: store})
	defer m.Shutdown()
	if got := jobBytes(t, m, withTR(g, 20003), "reopened"); !bytes.Equal(got, localBytes(t, withTR(g, 20003), "reopened")) {
		t.Error("TR=20003 after reopening: job differs from a local run")
	}
	if st := store.Stats(); st.Derived != int64(rw) {
		t.Errorf("after reopening, %d cells derived, want %d", st.Derived, rw)
	}
}

// TestDerivedCellsAreNotStored: a derived cell is a function of its
// sibling's entry and its own tunables, so the store keeps only the
// fill's simulated cells. The same dirty job twice returns a local
// run's bytes both times; the second time its RMA-RW cells miss and
// derive again rather than hit. Neither job adds a file or a resident
// entry, and after reopening the directory a third run derives every
// RMA-RW cell again. Kept beside the identity matrix: it checks the files
// on disk, which the matrix does not look at.
func TestDerivedCellsAreNotStored(t *testing.T) {
	dir := t.TempDir()
	store, _, err := cache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := jobq.NewManager(jobq.Config{Workers: 2, MaxJobs: 1, Cache: store})
	g := testGrid()
	jobBytes(t, m, g, "fill")
	filled := len(mustCells(t, g))
	dirty := withTR(g, 20001)
	rw := rmaRW(t, dirty)
	local := localBytes(t, dirty, "dirty")
	for run := 1; run <= 2; run++ {
		before := store.Stats()
		if got := jobBytes(t, m, dirty, "dirty"); !bytes.Equal(got, local) {
			t.Fatalf("dirty job %d differs from a local run", run)
		}
		st := store.Stats()
		if derived, hits := st.Derived-before.Derived, st.Hits-before.Hits; derived != int64(rw) || hits != int64(filled-rw) {
			t.Errorf("dirty job %d: %d derived, %d hits; want every RMA-RW cell derived (%d) and only the other %d hits",
				run, derived, hits, rw, filled-rw)
		}
		if files := entryFiles(t, dir); files != filled || st.Resident != filled {
			t.Errorf("after dirty job %d: %d entry files, %d resident; want the fill's %d", run, files, st.Resident, filled)
		}
	}
	m.Shutdown()

	store, rep, err := cache.Open(dir, 1)
	if err != nil || rep.Entries != filled {
		t.Fatalf("reopen: %+v, %v; want the fill's %d entries", rep, err, filled)
	}
	m = jobq.NewManager(jobq.Config{Workers: 2, MaxJobs: 1, Cache: store})
	defer m.Shutdown()
	if got := jobBytes(t, m, dirty, "dirty"); !bytes.Equal(got, local) {
		t.Error("dirty job after reopening differs from a local run")
	}
	if st := store.Stats(); st.Derived != int64(rw) {
		t.Errorf("after reopening, %d cells derived, want %d", st.Derived, rw)
	}
}
