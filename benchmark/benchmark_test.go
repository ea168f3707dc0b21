package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// statistics.median / statistics.quantiles(v, n=4) of the same lists.
	cases := []struct {
		v           []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 3, 1.5, 4.5},
		{[]float64{5, 1, 4, 2, 3, 6}, 3.5, 1.75, 5.25},
		{[]float64{10, 20}, 15, 7.5, 22.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.v)
		if !near(median(c.v), c.med) || !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("%v: median %g quartiles %g %g, want %g %g %g", c.v, median(c.v), q1, q3, c.med, c.q1, c.q3)
		}
	}
	if q1, q3 := quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Errorf("one sample: quartiles %g %g, want the sample", q1, q3)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
	if got := spread([]float64{1, 2, 3, 4, 5}); !near(got, 1) {
		t.Errorf("spread = %g, want 1", got)
	}
}

func TestPercentiles(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i) // unsorted on purpose
	}
	if got := percentile(v, 95); got != 95 {
		t.Errorf("p95 = %g, want 95", got)
	}
	if got := percentile(v, 50); got != 50 {
		t.Errorf("p50 = %g, want 50", got)
	}
	// The ten-beyond rule: n(1-p) >= 10.
	for n, want := range map[int]float64{5: 50, 19: 50, 100: 90, 200: 95, 999: 95, 1000: 99, 10000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %g, want %g", n, got, want)
		}
	}
}

func TestSeedDerivesInputs(t *testing.T) {
	for _, name := range workloadNames {
		a, err := newWorkload(name, 7, false)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newWorkload(name, 7, false)
		c, _ := newWorkload(name, 8, false)
		if !reflect.DeepEqual(a.Grid.flags(), b.Grid.flags()) || !bytes.Equal(a.Grid.wire(), b.Grid.wire()) {
			t.Errorf("%s: same seed, different inputs", name)
		}
		if reflect.DeepEqual(a.Grid.flags(), c.Grid.flags()) || bytes.Equal(a.Grid.wire(), c.Grid.wire()) {
			t.Errorf("%s: different seeds, same inputs", name)
		}
		if a.Grid.Cells <= 0 {
			t.Errorf("%s: no expected cell count", name)
		}
	}
	if _, err := newWorkload("nope", 1, false); err == nil {
		t.Error("unknown workload accepted")
	}
	if trBase(1) == trBase(2) || trBase(-3) < 10000 {
		t.Error("trBase does not separate seeds")
	}
}

func TestWireMirrorsFlags(t *testing.T) {
	g := sweepGrid(42, false).withTR(12345)
	var w map[string]any
	if err := json.Unmarshal(g.wire(), &w); err != nil {
		t.Fatal(err)
	}
	if w["seed"] != 42.0 || w["seed_set"] != true || w["ppn"] != 16.0 || w["iters"] != 50.0 || w["zipfs"] != 1.2 {
		t.Errorf("wire grid = %v", w)
	}
	flags := strings.Join(g.flags(), " ")
	for _, want := range []string{"-seed 42", "-iters 50", "-ps 16,32,64", "-tune TR=12345", "-fw 0.1", "-locks 8"} {
		if !strings.Contains(flags, want) {
			t.Errorf("flags %q lack %q", flags, want)
		}
	}
}

const runFile = `{
  "label": "x",
  "created": "2026-01-01T00:00:00Z",
  "cells": [
    {"key": {"scheme": "RMA-RW", "workload": "empty", "profile": "uniform", "p": 16, "tunables": "TR=5"},
     "locks": 1, "report": {"P": 16, "Ops": 160, "Reads": 150, "Writes": 10}, "fingerprint": "fp-a"},
    {"key": {"scheme": "D-MCS", "workload": "empty", "profile": "uniform", "p": 16},
     "locks": 1, "report": {"P": 16, "Ops": 160, "Reads": 0, "Writes": 160}, "fingerprint": "fp-b"}
  ]
}`

func TestParseRunAndChecks(t *testing.T) {
	cells, err := parseRun([]byte(runFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 || cells[0].Key.String() != "RMA-RW/empty/uniform/P=16/TR=5" || cells[1].Fingerprint != "fp-b" {
		t.Fatalf("cells = %+v", cells)
	}
	g := grid{Iters: 10, Cells: 2}
	var ok tally
	ok.checkCells("same", cells, g, cells)
	if ok.attempted != 2 || ok.failed != 0 {
		t.Errorf("identical cells: %+v", ok)
	}

	changed := append([]cellOut(nil), cells...)
	changed[1].Fingerprint = "fp-c"
	var diff tally
	diff.checkCells("rep", changed, g, cells)
	if diff.failed != 1 || !strings.Contains(diff.reasons[0], "D-MCS/empty/uniform/P=16") {
		t.Errorf("changed fingerprint: %+v", diff)
	}

	var insane tally
	insane.checkCells("iters", cells, grid{Iters: 11, Cells: 2}, nil)
	if insane.failed != 2 {
		t.Errorf("Reads+Writes != P*iters: %+v", insane)
	}

	var short tally
	short.checkCells("count", cells[:1], g, nil)
	if short.attempted != 2 || short.failed != 2 {
		t.Errorf("wrong cell count: %+v", short)
	}

	if digest(cells) == digest(changed) || digest(cells) != digest(cells) {
		t.Error("digest does not follow the fingerprints")
	}
	if got := filter(cells, func(k cellKey) bool { return k.Scheme == "D-MCS" }); len(got) != 1 {
		t.Errorf("filter kept %d cells", len(got))
	}
	if _, err := parseRun([]byte("{")); err == nil {
		t.Error("truncated run file accepted")
	}
}

func TestParsePhasesAndStatus(t *testing.T) {
	ph, err := parsePhases([]byte(`{"counters": {}, "phases": {
		"setup": {"spans": 2, "wall_ns": 10}, "run": {"spans": 2, "wall_ns": 80},
		"drain": {"spans": 2, "wall_ns": 10}, "merge": {"spans": 1, "wall_ns": 5}}}`))
	if err != nil || ph["setup"] != 10 || ph["run"] != 80 || ph["merge"] != 5 {
		t.Errorf("phases = %v, %v", ph, err)
	}
	st, err := parseStatus([]byte(`{"id":"job-3","label":"bench","state":"done","cells":240,"done":240,"cached":192,"failed":0}`))
	if err != nil || st.ID != "job-3" || st.State != "done" || st.Cells != 240 || st.Cached != 192 {
		t.Errorf("status = %+v, %v", st, err)
	}
	if _, err := parseStatus([]byte("nope")); err == nil {
		t.Error("malformed status accepted")
	}
}

func TestParseProc(t *testing.T) {
	stat := "4242 (sweepd (x) y) S 1 4242 4242 0 -1 4194560 1000 0 0 0 250 50 0 0 20 0 7 0 100 1000 200 18446744073709551615"
	if cpu, err := parseProcStat(stat); err != nil || !near(cpu, 3) {
		t.Errorf("cpu = %g, %v; want 3s", cpu, err)
	}
	if _, err := parseProcStat("garbage"); err == nil {
		t.Error("malformed stat accepted")
	}
	if mb, err := parseVmHWM("Name:\tsweepd\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n"); err != nil || !near(mb, 200) {
		t.Errorf("VmHWM = %g, %v; want 200 MB", mb, err)
	}
	if _, err := parseVmHWM("Name:\tsweepd\n"); err == nil {
		t.Error("status without VmHWM accepted")
	}
}

func TestRecorder(t *testing.T) {
	var off *recorder
	end, id := off.begin("http", "x", "", 0, 0)
	end()
	if id != 0 || off.durationsMS("http", "x") != nil {
		t.Error("nil recorder recorded")
	}
	rec := newRecorder()
	endJob, job := rec.begin("jobq", "job", "c0-j0", 0, 0)
	endReq, req := rec.begin("http", "post_jobs", "c0-j0", 0, job)
	endReq()
	endJob()
	_, _ = rec.begin("http", "open", "", 0, 0) // never closed: not written
	if job != 1 || req != 2 || len(rec.durationsMS("http", "post_jobs")) != 1 {
		t.Fatalf("spans = %+v", rec.spans)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := rec.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	var tr struct {
		TraceEvents []struct {
			Name, Ph string
			Ts, Dur  float64
			Args     struct {
				ID, Parent int
				Ref        string
			}
		}
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.TraceEvents) != 2 || tr.TraceEvents[1].Name != "http.post_jobs" || tr.TraceEvents[1].Ph != "X" ||
		tr.TraceEvents[1].Args.Parent != 1 || tr.TraceEvents[1].Args.Ref != "c0-j0" {
		t.Errorf("trace = %+v", tr.TraceEvents)
	}
}

// TestManifestMatches keeps BENCHMARK.json and the metrics the program
// emits in step: names, units and directions, and the workload list.
func TestManifestMatches(t *testing.T) {
	man, err := loadManifest("..")
	if err != nil {
		t.Fatal(err)
	}
	var e2e []metricDef
	for _, m := range man.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end:\n have %v\n want %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(man.PerLayer, perLayer()) {
		t.Errorf("per_layer:\n have %v\n want %v", man.PerLayer, perLayer())
	}
	data, _ := os.ReadFile("../BENCHMARK.json")
	var wl struct {
		Workloads []struct{ Name, Why string }
	}
	if err := json.Unmarshal(data, &wl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range wl.Workloads {
		names = append(names, w.Name)
		if w.Why == "" {
			t.Errorf("workload %s has no why", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads: have %v want %v", names, workloadNames)
	}
}

// TestSmoke runs every workload, untraced and traced, at the smoke
// scale against real workbench and sweepd children.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the programs")
	}
	e, err := newEnv("..")
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	o := options{seconds: 1, setups: 1, cliRuns: 1, smoke: true}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			if traced && name != "tiny-cells" && name != "daemon-dirty" {
				continue // one local and one daemon workload cover the traced paths
			}
			res, err := e.run(name, 3, o, traced, filepath.Join(t.TempDir(), "trace.json"))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if res.tally.failed != 0 || res.tally.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d cells failed: %v", name, traced, res.tally.failed, res.tally.attempted, res.tally.reasons)
			}
			defs := endToEnd
			if traced {
				defs = perLayer()
			}
			for _, d := range defs {
				if v, ok := res.value(d.Name); !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s traced=%v: metric %s = %v, %v", name, traced, d.Name, v, ok)
				}
			}
		}
	}
}
