package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"rmalocks/internal/obs"
	"rmalocks/internal/sweep"
)

// obsPlane bundles the workbench's observability wiring: the shared
// metric registry handed to every cell (sweep.Grid.Obs), the sweep
// progress tracker, and — with -listen — the HTTP server exposing both
// (/metrics, /progress, /debug/pprof). Nil when neither -listen nor
// -metrics-out was given, which keeps the whole subsystem at one nil
// check and the sweep byte-identical to an uninstrumented run.
type obsPlane struct {
	metrics *obs.Registry
	prog    *obs.SweepProgress
	srv     *obs.Server
}

// newObsPlane builds the plane and, when listen is non-empty, binds the
// HTTP endpoint (reporting the resolved address on stderr, so -listen :0
// is scriptable). The registry carries the process's host memory as two
// gauges read at scrape or snapshot time: host numbers live here, beside
// the results, never in a cell's Report.
func newObsPlane(listen, title string) (*obsPlane, error) {
	o := &obsPlane{
		metrics: obs.NewRegistry(),
		prog:    obs.NewSweepProgress(title),
	}
	o.metrics.GaugeFunc("process_heap_bytes", "Live heap bytes of the workbench process (runtime.MemStats.HeapAlloc).",
		func() float64 { return float64(hostMemory().HeapAlloc) })
	o.metrics.GaugeFunc("process_sys_bytes", "Bytes the Go runtime holds from the OS, goroutine stacks included (runtime.MemStats.Sys).",
		func() float64 { return float64(hostMemory().Sys) })
	if listen != "" {
		o.srv = obs.NewServer(o.metrics, o.prog)
		if err := o.srv.Listen(listen); err != nil {
			return nil, fmt.Errorf("workbench: -listen %s: %w", listen, err)
		}
		fmt.Fprintf(os.Stderr, "[obs: listening on http://%s (/metrics /progress /debug/pprof)]\n", o.srv.Addr())
	}
	return o, nil
}

func hostMemory() *runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &ms
}

// progress adapts the tracker to sweep.Options.Progress, avoiding the
// typed-nil-in-interface trap when the plane is disabled.
func (o *obsPlane) progress() sweep.Progress {
	if o == nil {
		return nil
	}
	return o.prog
}

// grid returns the registry for sweep.Grid.Obs (nil when off).
func (o *obsPlane) grid() *obs.Registry {
	if o == nil {
		return nil
	}
	return o.metrics
}

// span opens a phase span (no-op when the plane is off).
func (o *obsPlane) span(name string) obs.Span {
	if o == nil {
		return obs.Span{}
	}
	return o.metrics.Span(name)
}

// writeMetrics persists the merged post-run snapshot — counters, gauges
// and the phase table — as indented JSON: the side-channel benchmark/
// reads its per-layer phase metrics from, deliberately NOT part of any
// Report or fingerprint.
func (o *obsPlane) writeMetrics(path string) error {
	if o == nil {
		return nil
	}
	snap := o.metrics.Snapshot()
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("workbench: -metrics-out: %w", err)
	}
	fmt.Fprintf(os.Stderr, "[obs: metrics snapshot written to %s]\n", path)
	return nil
}

// close tears the HTTP endpoint down (no-op when off).
func (o *obsPlane) close() {
	if o != nil && o.srv != nil {
		o.srv.Close()
	}
}
