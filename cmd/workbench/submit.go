package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"time"

	"rmalocks/internal/jobq"
	"rmalocks/internal/sweep"
)

// submitError wraps a client-mode failure with the step that failed.
// Client mode never falls back to computing locally: a dead or
// misbehaving daemon is an error the user must see, not a silent mode
// switch that burns local CPU.
type submitError struct {
	Op  string
	Err error
}

func (e *submitError) Error() string { return fmt.Sprintf("workbench -submit: %s: %v", e.Op, e.Err) }
func (e *submitError) Unwrap() error { return e.Err }

// httpStatusError reports an unexpected daemon response.
type httpStatusError struct {
	Op     string
	Status int
	Body   string
}

func (e *httpStatusError) Error() string {
	body := strings.TrimSpace(e.Body)
	if len(body) > 200 {
		body = body[:200] + "..."
	}
	return fmt.Sprintf("workbench -submit: %s: daemon returned %d: %s", e.Op, e.Status, body)
}

// submitFlagError names a flag that cannot ride along on a submission —
// rejected up front, before the daemon is ever contacted.
type submitFlagError struct{ Flag string }

func (e *submitFlagError) Error() string {
	return fmt.Sprintf("workbench: -%s cannot be combined with -submit (the daemon runs the sweep; local-only modes don't apply)", e.Flag)
}

// checkSubmitFlags rejects flag combinations that only make sense for a
// local run.
func checkSubmitFlags(opts runOpts) error {
	for _, f := range []struct {
		set  bool
		name string
	}{
		{opts.check, "check"},
		{opts.trace != "", "trace"},
		{opts.tracecsv != "", "tracecsv"},
		{opts.listen != "", "listen"},
		{opts.metricsOut != "", "metrics-out"},
		{opts.cpuprof != "", "cpuprofile"},
		{opts.memprof != "", "memprofile"},
	} {
		if f.set {
			return &submitFlagError{Flag: f.name}
		}
	}
	return nil
}

// runSubmit is client mode: post the grid to a sweepd daemon, stream
// its progress events, fetch the result, and render/persist it
// exactly like a local run would.
func runSubmit(daemon string, opts runOpts, title string) int {
	if err := submitRemote(daemon, opts, title); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

func submitRemote(daemon string, opts runOpts, title string) error {
	base := strings.TrimSuffix(daemon, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	body, err := sweep.EncodeGrid(opts.grid)
	if err != nil {
		return &submitError{Op: "encode grid", Err: err}
	}

	start := time.Now()
	resp, err := http.Post(base+"/jobs?label="+url.QueryEscape(title), "application/json", bytes.NewReader(body))
	if err != nil {
		return &submitError{Op: "submit", Err: err}
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return &httpStatusError{Op: "submit", Status: resp.StatusCode, Body: string(raw)}
	}
	var st jobq.Status
	if err := json.Unmarshal(raw, &st); err != nil {
		return &submitError{Op: "submit", Err: err}
	}
	fmt.Fprintf(os.Stderr, "[submitted %s: %d cells at %s]\n", st.ID, st.Cells, base)

	// Stream progress events to stderr until the job is terminal.
	resp, err = http.Get(base + "/jobs/" + st.ID + "/events")
	if err != nil {
		return &submitError{Op: "stream events", Err: err}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		fmt.Fprintln(os.Stderr, sc.Text())
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		return &submitError{Op: "stream events", Err: err}
	}

	// The stream ended; read the verdict.
	resp, err = http.Get(base + "/jobs/" + st.ID)
	if err != nil {
		return &submitError{Op: "fetch status", Err: err}
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return &submitError{Op: "fetch status", Err: err}
	}
	if st.State != jobq.StateDone {
		return &submitError{Op: "job " + st.ID,
			Err: fmt.Errorf("ended %s: %s", st.State, st.Error)}
	}

	resp, err = http.Get(base + "/jobs/" + st.ID + "/result")
	if err != nil {
		return &submitError{Op: "fetch result", Err: err}
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &httpStatusError{Op: "fetch result", Status: resp.StatusCode, Body: string(data)}
	}
	var rf sweep.RunFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return &submitError{Op: "decode result", Err: err}
	}

	if opts.out != "" {
		// Persist the daemon's bytes verbatim: the file is byte-stable
		// across resubmissions, cache states, and daemons.
		if err := os.MkdirAll(filepath.Dir(opts.out), 0o755); err != nil {
			return &submitError{Op: "save result", Err: err}
		}
		if err := os.WriteFile(opts.out, data, 0o644); err != nil {
			return &submitError{Op: "save result", Err: err}
		}
		fmt.Fprintf(os.Stderr, "[result saved to %s]\n", opts.out)
	}

	tb := sweep.Table(title, rf.Cells)
	if opts.csv {
		fmt.Printf("# %s\n%s", tb.Title, tb.CSV())
	} else {
		fmt.Println(tb.String())
	}
	fmt.Fprintf(os.Stderr, "[%d cells in %v; %d served from cache]\n",
		st.Done, time.Since(start).Round(time.Millisecond), st.Cached)
	return nil
}
