package jobq_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"rmalocks/internal/cache"
	"rmalocks/internal/fault"
	"rmalocks/internal/jobq"
	"rmalocks/internal/obs"
	"rmalocks/internal/sweep"
	"rmalocks/internal/trace"
	"rmalocks/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// identityGrid is the one grid every identity row runs: every registry
// scheme, workload and profile at the smallest P, a perturbation-only
// fault profile every scheme takes, and two tunables axes, each with a
// value that binds in some cells (T_R = 8, T_L,2 = 1) and one that binds
// in none (1000). T_R = 4 would deadlock RMA-RW/dhtvol (reader tail
// starvation). The T_L,2 axis is there because a reader that reaches
// T_R also asks Equals, which narrows the witness as the false branch
// of Exceeds does: only a T_L axis shows a box that Exceeds forgot to
// narrow.
func identityGrid(tb testing.TB, trs ...int64) sweep.Grid {
	tb.Helper()
	f, err := fault.Parse("jitter=0.2,stall=20us@0.05")
	if err != nil {
		tb.Fatal(err)
	}
	return sweep.Grid{
		Schemes:   workload.Schemes,
		Workloads: workload.WorkloadNames,
		Profiles:  workload.ProfileNames,
		Ps:        []int{8}, ProcsPerNode: 4, Iters: 8, FW: 0.2, Locks: 4,
		Faults:   []*fault.Profile{f},
		Tunables: []sweep.TunableAxis{{Key: "TR", Values: trs}, {Key: "TL2", Values: []int64{1, 1000}}},
	}
}

// What a store counts of identityGrid(8, 1000), 360 cells: a run, on
// any number of workers, derives 75 of them from a sibling's run and
// stores the other 285; over a store filled by identityGrid(2000), 199 cells hit, 110
// derive and the 51 that T_R = 8 (or T_L,2 = 1) binds are simulated.
const (
	identityCells = 360
	inRunDerived  = 75

	acrossHits, acrossDerived, acrossMisses = 199, 110, 51
)

// identityAxes are the axes along which a run file must not move, in
// the column order of identityRows.
var identityAxes = [7][]string{
	{"fast", "ref"},     // engine (Grid.Engine)
	{"1", "2", "8"},     // workers
	{"1", "4"},          // GOMAXPROCS
	{"off", "100", "5"}, // GC percent
	{"none", "cold", "warm", "reopened", "onebyte", "across"},
	{"none", "obs", "trace"},
	{"run", "jobq"}, // sweep.Run, or jobq over HTTP
}

// feasible reports whether value a of axis i and value b of axis j > i
// can share a row: a traced cell has no address, so it is never cached,
// and jobq refuses a traced grid.
func feasible(i int, a string, j int, b string) bool {
	switch {
	case i == 4 && j == 5:
		return a == "none" || b != "trace"
	case i == 5 && j == 6:
		return a != "trace" || b == "run"
	}
	return true
}

// identityRows is a pairwise covering array over identityAxes: every
// feasible pair of axis values appears in some row (TestIdentityMatrix
// checks it), in 20 rows instead of the 1296 of the cross product.
//
// Cache states: "cold" is a fresh store, "warm" the store after a cold
// run, "reopened" a new Store over the warm directory, "onebyte" the
// same with a one-byte budget, so every read comes from disk, and
// "across" a store filled by the grid at T_R = 2000, from which the
// T_R = 1000 cells and the non-binding T_R = 8 cells derive.
var identityRows = [][7]string{
	// engine, workers, GOMAXPROCS, GC, cache, instrumentation, delivery
	{"fast", "1", "1", "off", "cold", "none", "run"},
	{"ref", "1", "1", "5", "none", "none", "jobq"},
	{"fast", "8", "4", "5", "none", "obs", "jobq"},
	{"fast", "8", "4", "off", "none", "trace", "run"},
	{"ref", "2", "1", "100", "none", "trace", "run"},
	{"ref", "1", "4", "5", "none", "trace", "run"},
	{"ref", "8", "4", "5", "cold", "none", "jobq"},
	{"ref", "2", "1", "100", "cold", "obs", "run"},
	{"ref", "8", "1", "100", "warm", "none", "jobq"},
	{"fast", "1", "4", "off", "warm", "none", "jobq"},
	{"fast", "2", "4", "5", "warm", "obs", "run"},
	{"fast", "8", "1", "100", "reopened", "none", "jobq"},
	{"fast", "1", "4", "5", "reopened", "none", "run"},
	{"ref", "2", "1", "off", "reopened", "obs", "jobq"},
	{"fast", "1", "1", "100", "onebyte", "none", "run"},
	{"ref", "8", "4", "5", "onebyte", "obs", "jobq"},
	{"ref", "2", "1", "off", "onebyte", "obs", "run"},
	{"fast", "2", "1", "5", "across", "none", "jobq"},
	{"ref", "8", "1", "off", "across", "none", "run"},
	{"ref", "1", "4", "100", "across", "obs", "jobq"},
}

// TestIdentityMatrix: a cell's bytes are a function of its inputs
// alone. identityGrid runs once per row of identityRows, and every
// row's run file must be the one testdata/golden/identity.txt pins
// (`go test -run IdentityMatrix -update` rewrites it, under the rules
// of sweep.Golden). Rows with a store also pin what the store counted.
func TestIdentityMatrix(t *testing.T) {
	for i, axis := range identityAxes {
		for j := i + 1; j < len(identityAxes); j++ {
			for _, a := range axis {
				for _, b := range identityAxes[j] {
					if feasible(i, a, j, b) && !covered(i, a, j, b) {
						t.Errorf("no row has %s in column %d with %s in column %d", a, i, b, j)
					}
				}
			}
		}
	}
	// The warm, reopened and onebyte rows only read what a cold run
	// stored, so they share one: a store and its directory.
	dir := t.TempDir()
	warm, _ := openStore(t, dir, 0)
	fill(t, identityGrid(t, 8, 1000), warm)
	if err := warm.Flush(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "golden", "identity.txt")
	var table []byte
	if *update {
		table = identityTable(t, identityRow(t, identityRows[0], warm, dir))
	}
	want, err := sweep.Golden(path, table, *update)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range identityRows {
		t.Run(strings.Join(r[:], "/"), func(t *testing.T) {
			matchGolden(t, identityRow(t, r, warm, dir), want)
		})
	}
}

// covered reports whether some row has value a on axis i and b on j.
func covered(i int, a string, j int, b string) bool {
	for _, r := range identityRows {
		if r[i] == a && r[j] == b {
			return true
		}
	}
	return false
}

// fill runs g into store on the default engine, the one that records
// witnesses, so a reference-engine row is served and derives from them.
func fill(t *testing.T, g sweep.Grid, store *cache.Store) {
	t.Helper()
	sweepRun(t, g, 8, store, "none")
}

// identityRow runs identityGrid as row r says and returns the run file
// the row delivered. A warm row is served by warm, which a cold run
// filled, and a reopened one by a new store over its directory; a row
// with a store also checks what the store counted.
func identityRow(t *testing.T, r [7]string, warm *cache.Store, dir string) []byte {
	t.Helper()
	procs, _ := strconv.Atoi(r[2])
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	gc := -1
	if r[3] != "off" {
		gc, _ = strconv.Atoi(r[3])
	}
	defer debug.SetGCPercent(debug.SetGCPercent(gc))

	g := identityGrid(t, 8, 1000)
	if r[0] == "ref" {
		g.Engine = "ref"
	}
	workers, _ := strconv.Atoi(r[1])
	deliver := func(store *cache.Store) []byte {
		if r[6] == "jobq" {
			return jobqRun(t, g, workers, store, r[5])
		}
		return sweepRun(t, g, workers, store, r[5])
	}

	const stored = identityCells - inRunDerived
	want := cache.Stats{Hits: stored, Derived: inRunDerived}
	var store *cache.Store
	switch r[4] {
	case "none":
		return deliver(nil)
	case "cold":
		store, _ = openStore(t, t.TempDir(), 0)
		want = cache.Stats{Misses: identityCells}
	case "across":
		store, _ = openStore(t, t.TempDir(), 0)
		fill(t, identityGrid(t, 2000), store)
		want = cache.Stats{Hits: acrossHits, Derived: acrossDerived, Misses: acrossMisses}
	case "warm":
		store = warm
	default:
		budget, loaded := int64(0), stored
		if r[4] == "onebyte" {
			budget, loaded = 1, 0
		}
		var rep cache.LoadReport
		store, rep = openStore(t, dir, budget)
		if rep.Entries != stored || rep.Loaded != loaded || len(rep.Corrupt) != 0 || rep.Stale != 0 {
			t.Errorf("reopen: %+v, want %d entries, %d loaded, nothing corrupt or stale", rep, stored, loaded)
		}
	}
	before := store.Stats()
	data := deliver(store)
	st := store.Stats()
	if got := (cache.Stats{Hits: st.Hits - before.Hits, Derived: st.Derived - before.Derived, Misses: st.Misses - before.Misses}); got != want {
		t.Errorf("store counted hits/derived/misses %d/%d/%d, want %d/%d/%d",
			got.Hits, got.Derived, got.Misses, want.Hits, want.Derived, want.Misses)
	}
	return data
}

// sweepRun delivers g as workbench does: sweep.Run, which finishes the
// fault axis with the degradation join. A traced row drops what tracing
// adds to a report (its trace fields and the join's Jain delta), so its
// bytes must be an untraced run's.
func sweepRun(t *testing.T, g sweep.Grid, workers int, store *cache.Store, instr string) []byte {
	t.Helper()
	opts := sweep.Options{Workers: workers}
	if store != nil {
		opts.Cache = store
	}
	var prog *obs.SweepProgress
	switch instr {
	case "obs":
		g.Obs = obs.NewRegistry()
		prog = obs.NewSweepProgress("identity")
		opts.Progress = prog
	case "trace":
		g.Trace = trace.ClassSemantic
	}
	results, err := sweep.Run(mustCells(t, g), opts)
	if err != nil {
		t.Fatal(err)
	}
	if done, _, _ := prog.Counts(); prog != nil && done != len(results) {
		t.Errorf("progress saw %d of %d cells done", done, len(results))
	}
	for i := range results {
		if g.Trace == 0 {
			break
		}
		if results[i].Trace == nil || results[i].Trace.Len() == 0 {
			t.Fatalf("cell %s: traced row captured no events", results[i].Key)
		}
		rep := &results[i].Report
		rep.Fairness, rep.HandoffLocality = 0, nil
		delete(rep.Extra, sweep.ExtraJainDelta)
		results[i].Trace, results[i].Fingerprint = nil, rep.Fingerprint()
	}
	data, err := sweep.Encode(sweep.RunFile{Label: "identity", Cells: results})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// jobqRun delivers g as sweepd does: POST /jobs, then GET the result.
func jobqRun(t *testing.T, g sweep.Grid, workers int, store *cache.Store, instr string) []byte {
	t.Helper()
	cfg := jobq.Config{Workers: workers, MaxJobs: 1}
	if store != nil {
		cfg.Cache = store
	}
	if instr == "obs" {
		cfg.Obs = obs.NewRegistry()
		if store != nil {
			store.Register(cfg.Obs)
		}
	}
	ts, _ := serveJobs(t, cfg)
	st := submitGridOf(t, ts, "identity", g)
	awaitState(t, ts, st.ID, jobq.StateDone)
	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result: %d %v", resp.StatusCode, err)
	}
	return data
}

func openStore(t *testing.T, dir string, budget int64) (*cache.Store, cache.LoadReport) {
	t.Helper()
	store, rep, err := cache.Open(dir, budget)
	if err != nil {
		t.Fatal(err)
	}
	return store, rep
}

// identityTable is what the golden pins of a run file: one line per
// cell, its key and a short digest of its bytes in the file, then the
// digest of the whole file.
func identityTable(t *testing.T, data []byte) []byte {
	t.Helper()
	var rf struct{ Cells []json.RawMessage }
	if err := json.Unmarshal(data, &rf); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, raw := range rf.Cells {
		var c struct{ Key sweep.Key }
		if err := json.Unmarshal(raw, &c); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		fmt.Fprintf(&b, "%s %x\n", c.Key, sum[:8])
	}
	fmt.Fprintf(&b, "run-file %x\n", sha256.Sum256(data))
	return b.Bytes()
}

// matchGolden fails unless data is the run file the golden table want
// pins, naming the cells whose lines differ.
func matchGolden(t *testing.T, data, want []byte) {
	t.Helper()
	if bytes.HasSuffix(want, fmt.Appendf(nil, "run-file %x\n", sha256.Sum256(data))) {
		return // the last line pins the whole file
	}
	got := identityTable(t, data)
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	var drifted []string
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			drifted = append(drifted, strings.Fields(gl[i] + " ")[0])
		}
	}
	n := len(drifted)
	if n > 8 {
		drifted = append(drifted[:8], "...")
	}
	t.Errorf("run file differs from the golden's in %d of %d lines: %s", n, len(wl), strings.Join(drifted, " "))
}
