package jobq_test

import (
	"bytes"
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

// jobBytes submits g, waits for the job and returns its encoded result:
// the daemon's path without the socket. It reports failures with Error,
// so a job may run on a goroutine of its own.
func jobBytes(tb testing.TB, m *jobq.Manager, g sweep.Grid, label string) []byte {
	tb.Helper()
	j, err := m.Submit(g, label)
	if err != nil {
		tb.Error(err)
		return nil
	}
	<-j.Done()
	rf, err := m.Result(j.ID)
	if err != nil {
		tb.Errorf("%s: %v", label, err)
		return nil
	}
	data, err := sweep.Encode(rf)
	if err != nil {
		tb.Error(err)
	}
	return data
}

// TestJobsDeriveAcrossJobs: an earlier job stored testGrid's default-TR
// cells with their witnesses. Two jobs at once, each with a TR no job
// has asked for, derive every RMA-RW cell from those entries and still
// return a local run's bytes; after the store is closed and reopened
// with a one-byte budget, a third TR derives too: the sibling index is
// rebuilt from disk, from entries over budget as well.
func TestJobsDeriveAcrossJobs(t *testing.T) {
	dir := t.TempDir()
	store, _, err := cache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := jobq.NewManager(jobq.Config{Workers: 2, MaxJobs: 2, Cache: cache.NewResultStore(store)})
	g := testGrid()
	if got := jobBytes(t, m, g, "fill"); !bytes.Equal(got, localBytes(t, g, "fill")) {
		t.Fatal("the filling job differs from a local run")
	}
	rw := 0
	for _, c := range mustCells(t, g) {
		if c.Key.Scheme == workload.SchemeRMARW {
			rw++
		}
	}

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
	m = jobq.NewManager(jobq.Config{Workers: 2, MaxJobs: 1, Cache: cache.NewResultStore(store)})
	defer m.Shutdown()
	if got := jobBytes(t, m, withTR(g, 20003), "reopened"); !bytes.Equal(got, localBytes(t, withTR(g, 20003), "reopened")) {
		t.Error("TR=20003 after reopening: job differs from a local run")
	}
	if st := store.Stats(); st.Derived != int64(rw) {
		t.Errorf("after reopening, %d cells derived, want %d", st.Derived, rw)
	}
}
