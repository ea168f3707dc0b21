package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed-loop client count of the daemon workloads: one
// per core of the reference box, each submitting its next job only once
// it holds the previous job's result bytes.
const clients = 2

// eventsIntervalMS is the progress-stream tick the benchmark's client
// asks for. At the server default of 250 ms a warm job measures one
// sleep, not the daemon; the default-client experience is kept as
// proc.submit_cli_ms.
const eventsIntervalMS = 5

// jobLabel is constant so that a warm job's result bytes are identical
// from job to job (the label is part of the served run file).
const jobLabel = "bench"

// jobTimeout bounds one job and one request: a wedged daemon must fail
// the run, not hang it.
const jobTimeout = 60 * time.Second

var httpClient = &http.Client{
	Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients},
	Timeout:   jobTimeout,
}

// request performs one HTTP round trip inside a span and returns the
// whole body.
func request(rec *recorder, name, ref string, lane, parent int, method, url string, body []byte) (int, []byte, error) {
	end, _ := rec.begin("http", name, ref, lane, parent)
	defer end()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// runJob follows the `workbench -submit` protocol: POST /jobs, stream
// /jobs/{id}/events to EOF, GET /jobs/{id}, GET /jobs/{id}/result, with
// a status poll before the stream and after it (see the guards below).
// The spans of one job share ref. It returns the result bytes of a job
// that ended in state "done".
func runJob(rec *recorder, base string, lane int, ref string, wire []byte) ([]byte, jobStatus, error) {
	endJob, jobSpan := rec.begin("jobq", "job", ref, lane, 0)
	defer endJob()
	code, data, err := request(rec, "post_jobs", ref, lane, jobSpan, http.MethodPost, base+"/jobs?label="+jobLabel, wire)
	if err != nil || code != http.StatusCreated {
		return nil, jobStatus{}, fmt.Errorf("POST /jobs: status %d: %v %s", code, err, data)
	}
	st, err := parseStatus(data)
	if err != nil {
		return nil, st, err
	}
	job := base + "/jobs/" + st.ID
	// poll GETs the job's status until it satisfies until.
	giveUp := time.Now().Add(jobTimeout)
	poll := func(until func(jobStatus) bool) error {
		for wait := time.Millisecond; ; wait = min(2*wait, 20*time.Millisecond) {
			if time.Now().After(giveUp) {
				return fmt.Errorf("job %s still %s after %v", st.ID, st.State, jobTimeout)
			}
			code, data, err := request(rec, "status", ref, lane, jobSpan, http.MethodGet, job, nil)
			if err != nil || code != http.StatusOK {
				return fmt.Errorf("GET %s: status %d: %v", st.ID, code, err)
			}
			if st, err = parseStatus(data); err != nil {
				return err
			}
			if st.State == "failed" || st.State == "canceled" || st.Failed != 0 {
				return fmt.Errorf("job %s %s (%d cells failed): %s", st.ID, st.State, st.Failed, st.Error)
			}
			if until(st) {
				return nil
			}
			time.Sleep(wait)
		}
	}
	// Two guards against daemon defects at the seed commit. An events
	// stream opened before the job's progress tracker has its cell list
	// panics in obs.(*SweepProgress).StreamNDJSON on the first change,
	// holding the tracker's mutex: the stream ends early and, if cells
	// are still running, the job and the drain are wedged for good (the
	// stock client loses about one submission in fifteen to it). A job
	// that reports a resolved cell has its cell list, so wait for that.
	// And the stream ends when every cell is terminal, which is a moment
	// before the job turns "done", so the status is polled until it does.
	if err := poll(func(st jobStatus) bool { return st.Done+st.Cached > 0 || st.State == "done" }); err != nil {
		return nil, st, err
	}
	if code, _, err = request(rec, "events", ref, lane, jobSpan, http.MethodGet,
		job+"/events?interval_ms="+strconv.Itoa(eventsIntervalMS), nil); err != nil || code != http.StatusOK {
		return nil, st, fmt.Errorf("GET %s/events: status %d: %v", st.ID, code, err)
	}
	if err := poll(func(st jobStatus) bool { return st.State == "done" }); err != nil {
		return nil, st, err
	}
	code, data, err = request(rec, "result", ref, lane, jobSpan, http.MethodGet, job+"/result", nil)
	if err != nil || code != http.StatusOK {
		return nil, st, fmt.Errorf("GET %s/result: status %d: %v", st.ID, code, err)
	}
	return data, st, nil
}

// setupDaemon is one daemon set-up as a user pays it: spawn on a fresh
// cache dir, first 200 from /metrics, the cold job over the whole grid,
// its result bytes in hand.
func (e *env) setupDaemon(rec *recorder, g grid) (d *daemon, cold []byte, seconds float64, err error) {
	end, _ := rec.begin("proc", "daemon_setup", "", 0, 0)
	defer end()
	start := time.Now()
	dir, err := os.MkdirTemp(e.tmp, "cache-")
	if err != nil {
		return nil, nil, 0, err
	}
	if d, err = e.startDaemon(dir); err != nil {
		os.RemoveAll(dir)
		return nil, nil, 0, err
	}
	// The cold job's requests get no spans: they would sit among the
	// timed windows' http samples.
	if cold, _, err = runJob(nil, d.base, 0, "cold", g.wire()); err != nil {
		d.kill()
		return nil, nil, 0, fmt.Errorf("cold fill: %w", err)
	}
	return d, cold, time.Since(start).Seconds(), nil
}

// jobRecord is one finished job of a load window.
type jobRecord struct {
	ms     float64
	tr     int64  // daemon-dirty: the job's TR value
	result []byte // daemon-dirty: kept for checking after the window
}

// window is what one closed-loop load window measured.
type window struct {
	wallS, cpuS float64
	jobs        []jobRecord
	errs        []error
	hits, miss  float64 // cache counter deltas (traced windows only)
	rssMB       float64 // the daemon's peak RSS once rssAfter jobs were done
	bad         [][]byte
}

var (
	hitsRE = regexp.MustCompile(`(?m)^sweepd_cache_hits_total (\d+)`)
	missRE = regexp.MustCompile(`(?m)^sweepd_cache_misses_total (\d+)`)
)

// scrape GETs /metrics and returns the cache hit and miss counters.
func scrape(rec *recorder, base string) (hits, miss float64, err error) {
	code, data, err := request(rec, "metrics_scrape", "", clients, 0, http.MethodGet, base+"/metrics", nil)
	if err != nil || code != http.StatusOK {
		return 0, 0, fmt.Errorf("GET /metrics: status %d: %v", code, err)
	}
	h, m := hitsRE.FindSubmatch(data), missRE.FindSubmatch(data)
	if h == nil || m == nil {
		return 0, 0, fmt.Errorf("GET /metrics: no sweepd_cache_{hits,misses}_total")
	}
	hits, _ = strconv.ParseFloat(string(h[1]), 64)
	miss, _ = strconv.ParseFloat(string(m[1]), 64)
	return hits, miss, nil
}

// load drives the daemon with the closed loop for the given time. Warm
// jobs resubmit the grid and must return exactly the cold job's bytes
// (checked inline, a memcmp); dirty jobs each carry a TR never seen
// before, taken from nextTR, and their results are kept for checking
// after the window, so that checking does not compete with the daemon
// for the two cores. With a recorder the window also scrapes /metrics
// once per second, the way a monitored daemon is.
//
// The daemon keeps every finished job, so its peak RSS grows with the
// jobs served; it is read when the window's rssAfter-th job completes
// (or at the end of a shorter window), so that it does not depend on how
// many jobs fit into the time.
func load(rec *recorder, d *daemon, w workload, cold []byte, nextTR *atomic.Int64, seconds float64, rssAfter int) (*window, error) {
	win := &window{}
	var h0, m0 float64
	var err error
	if rec != nil {
		if h0, m0, err = scrape(nil, d.base); err != nil {
			return nil, err
		}
	}
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	warm := w.Grid.wire()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for n := 0; n == 0 || time.Now().Before(deadline); n++ {
				wire, tr := warm, int64(0)
				if w.Kind == kindDaemonDirty {
					tr = nextTR.Add(1)
					wire = w.Grid.withTR(tr).wire()
				}
				t := time.Now()
				res, _, err := runJob(rec, d.base, lane, fmt.Sprintf("c%d-j%d", lane, n), wire)
				j := jobRecord{ms: float64(time.Since(t)) / float64(time.Millisecond), tr: tr}
				mu.Lock()
				switch {
				case err != nil:
					win.errs = append(win.errs, err)
				case w.Kind == kindDaemonDirty:
					j.result = res
				case !bytes.Equal(res, cold):
					win.bad = append(win.bad, res)
				}
				win.jobs = append(win.jobs, j)
				if len(win.jobs) == rssAfter {
					win.rssMB, _ = d.peakRSSMB() // read again after the window if it failed
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}(c)
	}
	stopScrape := make(chan struct{})
	var scrapeWG sync.WaitGroup
	if rec != nil {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			tick := time.NewTicker(time.Second)
			defer tick.Stop()
			for {
				select {
				case <-stopScrape:
					return
				case <-tick.C:
					scrape(rec, d.base) //nolint:errcheck // load only; the closing scrape is checked
				}
			}
		}()
	}
	wg.Wait()
	win.wallS = time.Since(start).Seconds()
	close(stopScrape)
	scrapeWG.Wait()
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	win.cpuS = cpu1 - cpu0
	if win.rssMB == 0 {
		if win.rssMB, err = d.peakRSSMB(); err != nil {
			return nil, err
		}
	}
	if rec != nil {
		h1, m1, err := scrape(rec, d.base)
		if err != nil {
			return nil, err
		}
		win.hits, win.miss = h1-h0, m1-m0
	}
	return win, nil
}

func (w *window) latencies() []float64 {
	out := make([]float64, len(w.jobs))
	for i, j := range w.jobs {
		out[i] = j.ms
	}
	return out
}

// checkWindow counts and checks every cell the window's jobs returned.
// ref is the local workbench run of the grid.
func (e *env) checkWindow(t *tally, w workload, win *window, ref []cellOut) {
	g := w.Grid
	for _, err := range win.errs {
		t.failAll(g.Cells, "%s: %v", w.Name, err)
	}
	if w.Kind == kindDaemonWarm {
		t.attempted += g.Cells * (len(win.jobs) - len(win.errs) - len(win.bad))
		for _, res := range win.bad {
			cells, err := parseRun(res)
			if err != nil {
				t.failAll(g.Cells, "%s: %v", w.Name, err)
				continue
			}
			t.checkCells(w.Name+" warm job", cells, g, ref)
			t.fail(0, "%s: a warm job's bytes differ from the cold job's", w.Name)
		}
		return
	}
	clean := func(k cellKey) bool { return k.Scheme != "RMA-RW" }
	dirty := func(k cellKey) bool { return !clean(k) }
	cleanGrid, dirtyGrid := g, g
	cleanGrid.Cells, dirtyGrid.Cells = g.Cells-w.DirtyCells, w.DirtyCells
	cleanRef := filter(ref, clean)
	var last *jobRecord
	var lastCells []cellOut
	for i := range win.jobs {
		j := &win.jobs[i]
		if j.result == nil {
			continue
		}
		cells, err := parseRun(j.result)
		if err != nil {
			t.failAll(g.Cells, "%s: TR=%d: %v", w.Name, j.tr, err)
			continue
		}
		what := fmt.Sprintf("%s TR=%d", w.Name, j.tr)
		t.checkCells(what+" cached cells", filter(cells, clean), cleanGrid, cleanRef)
		t.checkCells(what+" recomputed cells", filter(cells, dirty), dirtyGrid, nil)
		last, lastCells = j, cells
	}
	if last == nil {
		return
	}
	// One job's recomputed cells against a local run with the same TR:
	// the window's other jobs differ from it only in that value.
	local := g.withTR(last.tr).only("RMA-RW", w.DirtyCells)
	_, want, err := e.rep(nil, local)
	if err != nil {
		t.failAll(local.Cells, "%s: local TR=%d run: %v", w.Name, last.tr, err)
		return
	}
	t.checkCells(fmt.Sprintf("%s TR=%d vs local", w.Name, last.tr), filter(lastCells, dirty), local, want)
}

var servedRE = regexp.MustCompile(`(\d+) served from cache`)

// submitCLI runs real `workbench -submit` children against the warm
// daemon until n succeed and records each success's wall time as
// proc.submit_cli_ms: what a user of the stock client sees, default
// 250 ms event polling included. The stock client opens its events stream unguarded (see
// runJob), so a submission lost to that defect is retried and noted,
// not counted as a wrong result; any other failure is.
func (e *env) submitCLI(rec *recorder, res *result, d *daemon, g grid, ref []cellOut, n int) {
	t := &res.tally
	out := e.path("submit.json")
	lost := 0
	for tries := 0; len(res.samples["proc.submit_cli_ms"]) < n && tries < 3*n; tries++ {
		end, _ := rec.begin("proc", "workbench_submit", "", 0, 0)
		r, err := runChild(e.workbench, append(g.flags(), "-submit", d.base, "-out", out)...)
		end()
		if err != nil && strings.Contains(r.stderr, "stream events: unexpected EOF") {
			lost++
			continue
		}
		var data []byte
		if err == nil {
			data, err = os.ReadFile(out)
		}
		var cells []cellOut
		if err == nil {
			cells, err = parseRun(data)
		}
		if err != nil {
			t.failAll(g.Cells, "workbench -submit: %v", err)
			continue
		}
		t.checkCells("workbench -submit", cells, g, ref)
		if m := servedRE.FindStringSubmatch(r.stderr); m == nil || m[1] != strconv.Itoa(g.Cells) {
			t.fail(0, "workbench -submit: not every cell served from the warm cache: %s", lastLine(r.stderr))
		}
		res.add("proc.submit_cli_ms", r.wallS*1000)
	}
	if lost > 0 {
		res.note("%d `workbench -submit` children lost their events stream to the daemon's early-stream panic and were retried", lost)
	}
}

// runDaemon measures a daemon workload. Untraced it reports the
// end-to-end metrics; with a recorder it reports the daemon-side layer
// metrics from a plain and a traced window of half the time each.
func (e *env) runDaemon(w workload, o options, rec *recorder) (*result, error) {
	res := newResult(w.Name)
	t := &res.tally
	g := w.Grid

	// Set-up, several times over so that its median is a steady number;
	// the last daemon serves the measurement.
	var d *daemon
	var colds [][]byte
	setups := o.setups
	if rec != nil {
		setups = 1
	}
	for i := 0; i < setups; i++ {
		if d != nil {
			if _, err := d.stop(); err != nil {
				return nil, err
			}
			os.RemoveAll(d.cacheDir)
		}
		var cold []byte
		var s float64
		var err error
		if d, cold, s, err = e.setupDaemon(rec, g); err != nil {
			return nil, err
		}
		colds = append(colds, cold)
		res.add("setup_s", s)
		res.add("proc.daemon_ready_ms", d.readyS*1000)
	}
	defer func() {
		if d != nil {
			d.kill()
		}
	}()

	// The reference: a local workbench run of the same grid. Every cold
	// job must match it cell for cell.
	var extra []string
	if rec != nil {
		extra = []string{"-metrics-out", e.path("metrics.json")}
	}
	_, ref, err := e.rep(rec, g, extra...)
	if err != nil {
		return nil, fmt.Errorf("local reference run: %w", err)
	}
	t.checkCells("local reference", ref, g, nil)
	for i, cold := range colds {
		cells, err := parseRun(cold)
		if err != nil {
			t.failAll(g.Cells, "cold job %d: %v", i, err)
			continue
		}
		t.checkCells(fmt.Sprintf("cold job %d vs local", i), cells, g, ref)
	}
	res.digest = digest(ref)
	cold := colds[len(colds)-1]

	var nextTR atomic.Int64
	nextTR.Store(trBase(g.Seed))
	seconds := o.seconds
	if rec != nil {
		seconds /= 4
	}
	win, err := load(nil, d, w, cold, &nextTR, seconds, w.RSSAfter)
	if err != nil {
		return nil, err
	}
	e.checkWindow(t, w, win, ref)
	lat := win.latencies()
	cells := float64(g.Cells * len(win.jobs))
	res.samples["job_p50_ms"] = lat
	res.set("cells_per_s", cells/win.wallS)
	res.set("cpu_s", win.cpuS/float64(len(win.jobs)))
	res.note("%d jobs from %d closed-loop clients in %.2fs; job p%g = %.2f ms; peak RSS read after job %d",
		len(win.jobs), clients, win.wallS, tailPercentile(len(lat)), percentile(lat, tailPercentile(len(lat))), min(w.RSSAfter, len(win.jobs)))

	if rec != nil {
		if err := phaseMetrics(res, e.path("metrics.json")); err != nil {
			return nil, err
		}
		res.set("sweep.worker_utilisation", win.cpuS/(win.wallS*clients))
		traced, err := load(rec, d, w, cold, &nextTR, seconds, 0)
		if err != nil {
			return nil, err
		}
		e.checkWindow(t, w, traced, ref)
		tlat := traced.latencies()
		res.set("trace_overhead_pct", (median(tlat)/median(lat)-1)*100)
		res.set("jobq.job_p95_ms", percentile(tlat, 95))
		res.note("jobq.job_p95_ms over %d jobs", len(tlat))
		res.set("cache.hit_ratio", traced.hits/(traced.hits+traced.miss))
		for _, name := range []string{"post_jobs", "events", "status", "result", "metrics_scrape"} {
			res.samples["http."+name+"_ms"] = rec.durationsMS("http", name)
		}
		res.set("http.result_bytes", float64(len(cold)))
		e.submitCLI(rec, res, d, g, ref, o.cliRuns)
	}

	res.set("peak_rss_mb", win.rssMB)
	end, _ := rec.begin("proc", "daemon_drain", "", 0, 0)
	drainS, err := d.stop()
	end()
	dir := d.cacheDir
	defer os.RemoveAll(dir)
	d = nil
	if err != nil {
		return nil, err
	}
	res.set("proc.drain_ms", drainS*1000)

	if rec != nil {
		// Restart on the filled cache dir: what a daemon pays to come
		// back with its entries indexed.
		end, _ := rec.begin("proc", "daemon_warm_restart", "", 0, 0)
		again, err := e.startDaemon(dir)
		end()
		if err != nil {
			return nil, fmt.Errorf("restart on filled cache: %w", err)
		}
		res.set("proc.daemon_warm_restart_ms", again.readyS*1000)
		if _, err := again.stop(); err != nil {
			return nil, err
		}
	}
	return res, nil
}
