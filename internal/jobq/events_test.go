package jobq

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"rmalocks/internal/obs"
	"rmalocks/internal/sweep"
)

// TestEventsHeldOpenUntilJobTerminal pins the order a follower relies on:
// EOF on /jobs/{id}/events comes after the job's terminal state is
// visible. The job here sits in the window run() passes through on every
// job — all cells terminal in the tracker, state still "running" — for as
// long as the test likes; the stream must deliver its final summary and
// then stay open until setState.
func TestEventsHeldOpenUntilJobTerminal(t *testing.T) {
	j := &Job{
		ID: "job-1", cells: make([]sweep.Cell, 2),
		prog:   obs.NewSweepProgress("job-1"),
		cancel: make(chan struct{}), done: make(chan struct{}),
		state: StateRunning,
	}
	j.prog.Start([]string{"a", "b"})
	j.prog.CellCached(0, "fp-a")
	j.prog.CellCached(1, "fp-b")

	api := &API{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { api.events(w, r, j) }))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "?interval_ms=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := bufio.NewReader(resp.Body)
	for {
		line, err := body.ReadBytes('\n')
		if err != nil {
			t.Fatalf("stream ended before the final summary: %v", err)
		}
		var sum obs.SummaryLine
		if json.Unmarshal(line, &sum) == nil && sum.Summary && sum.Done == 2 {
			break
		}
	}
	eof := make(chan error, 1)
	go func() {
		_, err := io.Copy(io.Discard, body)
		eof <- err
	}()
	select {
	case err := <-eof:
		t.Fatalf("events stream ended (%v) while the job still reports %s", err, j.Status().State)
	case <-time.After(50 * time.Millisecond):
	}
	j.setState(StateDone, nil)
	select {
	case err := <-eof:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("events stream did not end after the job became done")
	}
}
