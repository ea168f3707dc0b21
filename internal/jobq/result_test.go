package jobq

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rmalocks/internal/cache"
	"rmalocks/internal/obs"
	"rmalocks/internal/sweep"
	"rmalocks/internal/workload"
)

// TestUnencodableCellAnswers500: a cell that does not encode (a NaN in
// its report) leaves its job done, with no fragments and no error in
// its status, and its result is a 500 that names the encoding error.
func TestUnencodableCellAnswers500(t *testing.T) {
	frags, err := fragments([]sweep.CellResult{{Report: workload.Report{ThroughputMops: math.NaN()}}})
	if err == nil || frags != nil {
		t.Fatalf("fragments of a NaN cell = %d fragments, error %v; want none and an error", len(frags), err)
	}
	m := NewManager(Config{})
	j := &Job{ID: "job-1", prog: obs.NewSweepProgress("job-1"), state: StateDone, fragErr: err}
	m.jobs[j.ID], m.order = j, []string{j.ID}
	if st := j.Status(); st.State != StateDone || st.Error != "" {
		t.Errorf("status %+v, want done without an error", st)
	}
	if _, rerr := m.Result(j.ID); rerr != err {
		t.Errorf("Result error %v, want %v", rerr, err)
	}
	rec := httptest.NewRecorder()
	NewAPI(m).handleJob(rec, httptest.NewRequest(http.MethodGet, "/jobs/job-1/result", nil))
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "NaN") {
		t.Errorf("GET result: %d %s, want 500 naming the NaN", rec.Code, rec.Body)
	}
}

// TestRunSlotReusesResults: a job's sweep returns its results in its
// run slot's storage, which the slot keeps, cleared, for the next job;
// every job's result is the first one's bytes.
func TestRunSlotReusesResults(t *testing.T) {
	store, _, err := cache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{MaxJobs: 1, Cache: store})
	defer m.Shutdown()
	var want []byte
	var storage *sweep.CellResult
	for i := 0; i < 3; i++ {
		j, err := m.Submit(compactGrid(8, 16), "slot")
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		got, err := m.AppendResult(nil, j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Errorf("job %d: result differs from the first job's", i)
		}
		slot := <-m.slots // the job's run, done, hands its slot back
		if cap(slot) < j.ncells {
			t.Fatalf("job %d: its slot keeps room for %d results, want %d", i, cap(slot), j.ncells)
		}
		for k, r := range slot[:cap(slot)] {
			if r.Key != (sweep.Key{}) || r.Fingerprint != "" || r.Report.Extra != nil {
				t.Fatalf("job %d: its slot still holds result %d (%s)", i, k, r.Key)
			}
		}
		if i > 0 && &slot[:1][0] != storage {
			t.Errorf("job %d: its results were not returned in the slot's storage", i)
		}
		storage = &slot[:1][0]
		m.slots <- slot
	}
}
