package jobq_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rmalocks/internal/cache"
	"rmalocks/internal/jobq"
	"rmalocks/internal/obs"
	"rmalocks/internal/sweep"
)

// newTestServer wires the full daemon stack — metrics, cache, multi
// progress, manager, job API — onto an httptest server, exactly as
// cmd/sweepd assembles it.
func newTestServer(t *testing.T) (*httptest.Server, *jobq.Manager, *cache.Store) {
	t.Helper()
	metrics := obs.NewRegistry()
	store, _, err := cache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	store.Register(metrics)
	multi := obs.NewMultiProgress()
	mgr := jobq.NewManager(jobq.Config{
		Workers: 4, MaxJobs: 2,
		Cache: cache.NewResultStore(store),
		Obs:   metrics, Multi: multi,
	})
	srv := obs.NewServer(metrics, multi)
	jobq.NewAPI(mgr).Mount(srv)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); mgr.Shutdown() })
	return ts, mgr, store
}

func submitGrid(t *testing.T, ts *httptest.Server, label string) jobq.Status {
	t.Helper()
	body, err := sweep.EncodeGrid(testGrid())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs?label="+label, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /jobs: %d %s", resp.StatusCode, raw)
	}
	var st jobq.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func awaitState(t *testing.T, ts *httptest.Server, id, want string) jobq.Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st jobq.Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		switch st.State {
		case jobq.StateFailed, jobq.StateCanceled, jobq.StateDone:
			t.Fatalf("job %s reached terminal state %s (error %q), want %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, st.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHTTPSubmitResultEvents(t *testing.T) {
	ts, _, _ := newTestServer(t)
	st := submitGrid(t, ts, "api-test")
	if st.ID == "" || st.Cells == 0 {
		t.Fatalf("created job status %+v lacks id/cells", st)
	}
	awaitState(t, ts, st.ID, jobq.StateDone)

	// Result bytes must equal a direct local run of the same grid.
	results, err := sweep.Run(mustCells(t, testGrid()), sweep.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sweep.Encode(sweep.RunFile{Label: "api-test", Cells: results})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result: %d %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("fetched result differs from direct local run bytes")
	}
	if resp.ContentLength != int64(len(want)) {
		t.Fatalf("result sent with Content-Length %d, want %d (no chunked framing)", resp.ContentLength, len(want))
	}

	// The events stream of a finished job replays terminal states and a
	// final summary, then ends on its own.
	resp, err = http.Get(ts.URL + "/jobs/" + st.ID + "/events?interval_ms=10")
	if err != nil {
		t.Fatal(err)
	}
	events, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := strings.Split(strings.TrimSpace(string(events)), "\n")
	if len(lines) != st.Cells+1 {
		t.Fatalf("events stream has %d lines, want %d cells + summary", len(lines), st.Cells)
	}
	var sum obs.SummaryLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatal(err)
	}
	if !sum.Summary || sum.Done != st.Cells || sum.EtaMs != 0 {
		t.Fatalf("final summary %+v, want done=%d eta=0", sum, st.Cells)
	}

	// The jobs list includes it.
	resp, err = http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []jobq.Status
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil || len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("GET /jobs = %+v (%v), want the one job", list, err)
	}
}

func TestHTTPCacheHitsAcrossSubmissions(t *testing.T) {
	ts, _, store := newTestServer(t)
	st1 := submitGrid(t, ts, "cold")
	awaitState(t, ts, st1.ID, jobq.StateDone)
	st2 := submitGrid(t, ts, "warm")
	fin := awaitState(t, ts, st2.ID, jobq.StateDone)
	if fin.Cached != fin.Cells {
		t.Fatalf("warm job cached %d/%d cells", fin.Cached, fin.Cells)
	}
	// /metrics exposes the counters.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)
	for _, m := range []string{"sweepd_cache_hits_total", "sweepd_cache_misses_total", "sweepd_cache_evictions_total", "sweepd_cache_bytes"} {
		if !strings.Contains(text, m) {
			t.Errorf("/metrics missing %s", m)
		}
	}
	if st := store.Stats(); st.Hits != int64(fin.Cells) {
		t.Errorf("store hits = %d, want %d", st.Hits, fin.Cells)
	}
}

func TestHTTPErrors(t *testing.T) {
	ts, mgr, _ := newTestServer(t)

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := get("/jobs/no-such-job"); code != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", code)
	}
	if code := get("/jobs/no-such-job/result"); code != http.StatusNotFound {
		t.Errorf("unknown job result = %d, want 404", code)
	}

	// Malformed grid JSON, and a well-formed grid whose engine or rank
	// counts the simulator would panic on (on a sweep worker, taking the
	// daemon with it) → 400 with a JSON error body naming the field.
	const grid = `{"schemes":["D-MCS"],"workloads":["empty"],"profiles":["uniform"],`
	for _, tc := range []struct{ body, want string }{
		{`{"bogus_field":1}`, "error"},
		{grid + `"engine":"psim"}`, "engine"},
		{grid + `"engine":"bogus"}`, "engine"},
		{grid + `"ps":[-3]}`, "ps"},
		{grid + `"ppn":-1}`, "ppn"},
		{grid + `"ps":[1,2,3,4,5,6,7,8],"tunables":[{"key":"A","values":[1,2,3,4,5,6,7,8]},` +
			`{"key":"B","values":[1,2,3,4,5,6,7,8]},{"key":"C","values":[1,2,3,4,5,6,7,8]},` +
			`{"key":"D","values":[1,2,3,4,5,6,7,8]},{"key":"E","values":[1,2,3,4,5,6,7,8]}]}`, "cells"},
		{grid + `"ps":[8]} {"schemes":["x"]} garbage`, "after the grid"},
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), tc.want) {
			t.Errorf("POST %s: %d %s, want 400 + error body naming %q", tc.body, resp.StatusCode, raw, tc.want)
		}
	}
	// The daemon is still there and serves a valid job.
	awaitState(t, ts, submitGrid(t, ts, "after-rejects").ID, jobq.StateDone)

	// A job canceled before completion serves 410 for its result.
	j, err := mgr.Submit(testGrid(), "to-cancel")
	if err != nil {
		t.Fatal(err)
	}
	j.Cancel()
	<-j.Done()
	if st := j.Status(); st.State == jobq.StateCanceled {
		if code := get("/jobs/" + j.ID + "/result"); code != http.StatusGone {
			t.Errorf("canceled job result = %d, want 410", code)
		}
	}

	// The index page lists the mounted job routes.
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), "/jobs") {
		t.Errorf("index page does not list /jobs: %q", raw)
	}
}

// TestHTTPBodyTooLarge: a body over the limit is refused whole with 413,
// not decoded from its first megabyte.
func TestHTTPBodyTooLarge(t *testing.T) {
	ts, _, _ := newTestServer(t)
	grid, err := sweep.EncodeGrid(testGrid())
	if err != nil {
		t.Fatal(err)
	}
	body := append(grid, bytes.Repeat([]byte(" "), 1<<20)...)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("POST of %d bytes: %d %s, want 413", len(body), resp.StatusCode, raw)
	}
}

func TestHTTPProgressFanIn(t *testing.T) {
	ts, _, _ := newTestServer(t)
	st1 := submitGrid(t, ts, "a")
	awaitState(t, ts, st1.ID, jobq.StateDone)
	st2 := submitGrid(t, ts, "b")
	awaitState(t, ts, st2.ID, jobq.StateDone)

	resp, err := http.Get(ts.URL + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	// Per job: cells + summary; plus one trailing aggregate summary.
	if want := 2*(st1.Cells+1) + 1; len(lines) != want {
		t.Fatalf("/progress has %d lines, want %d", len(lines), want)
	}
	var agg obs.SummaryLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &agg); err != nil {
		t.Fatal(err)
	}
	if agg.Total != 2*st1.Cells || agg.Done != agg.Total || agg.EtaMs != 0 {
		t.Fatalf("aggregate summary %+v, want total=done=%d eta=0", agg, 2*st1.Cells)
	}
	// Cell lines carry their owning job's name.
	var first obs.CellLine
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Job != st1.ID {
		t.Fatalf("first cell line job = %q, want %q", first.Job, st1.ID)
	}
}

// getJobStatus is one GET /jobs/{id}.
func getJobStatus(t *testing.T, ts *httptest.Server, id string) jobq.Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobq.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestHTTPEventsOpenedBeforeStart: a client may open a job's events stream
// while the job is still queued, before the tracker has a cell list. The
// stream used to size its per-cell state once, at open, and then index
// past it while holding the tracker's mutex — the handler died, every
// worker blocked in CellDone and the job slot was lost for good. The
// stream must pick the cells up when they appear, run to the final
// summary, and leave the daemon able to drain.
func TestHTTPEventsOpenedBeforeStart(t *testing.T) {
	gate := &gateCache{release: make(chan struct{})}
	mgr := jobq.NewManager(jobq.Config{Workers: 2, MaxJobs: 1, Cache: gate})
	srv := obs.NewServer(obs.NewRegistry(), nil)
	jobq.NewAPI(mgr).Mount(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	submitGrid(t, ts, "holds-the-slot") // parked in the gated cache pre-pass
	st := submitGrid(t, ts, "queued")   // no slot: its tracker has no cells yet
	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/events?interval_ms=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := bufio.NewScanner(resp.Body)
	var sum obs.SummaryLine
	if !lines.Scan() || json.Unmarshal(lines.Bytes(), &sum) != nil || !sum.Summary || sum.Total != 0 {
		t.Fatalf("first line %q, want the summary of a tracker without cells", lines.Text())
	}

	close(gate.release) // both jobs run now
	cellLines := map[string]bool{}
	for lines.Scan() {
		var l obs.CellLine
		if err := json.Unmarshal(lines.Bytes(), &l); err != nil {
			t.Fatal(err)
		}
		if l.Cell != "" {
			cellLines[l.Cell] = true
			continue
		}
		if err := json.Unmarshal(lines.Bytes(), &sum); err != nil {
			t.Fatal(err)
		}
	}
	if err := lines.Err(); err != nil {
		t.Fatalf("events stream broke: %v", err)
	}
	if len(cellLines) != st.Cells || sum.Total != st.Cells || sum.Done != st.Cells {
		t.Fatalf("stream reported %d cells, final summary %+v; want all %d cells done", len(cellLines), sum, st.Cells)
	}
	if got := getJobStatus(t, ts, st.ID); got.State != jobq.StateDone {
		t.Fatalf("job state %s after events EOF, want done", got.State)
	}
	drained := make(chan struct{})
	go func() { mgr.Shutdown(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(30 * time.Second):
		t.Fatal("manager did not drain after the early-opened stream")
	}
}

// TestHTTPEventsEOFMeansTerminal: the submit protocol reads the events
// stream to EOF and then asks for the job's status once; that read must
// already say done, job after job. (How the handler guarantees it is
// pinned deterministically by TestEventsHeldOpenUntilJobTerminal; this is
// the protocol end to end, under -race in CI.)
func TestHTTPEventsEOFMeansTerminal(t *testing.T) {
	ts, _, _ := newTestServer(t)
	cold := submitGrid(t, ts, "cold")
	awaitState(t, ts, cold.ID, jobq.StateDone)
	for i := 0; i < 100; i++ {
		st := submitGrid(t, ts, "warm")
		resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/events?interval_ms=1")
		if err != nil {
			t.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := getJobStatus(t, ts, st.ID); got.State != jobq.StateDone {
			t.Fatalf("job %d: state %s on the first status read after events EOF, want done", i, got.State)
		}
	}
}
