package jobq

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
