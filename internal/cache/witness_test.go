package cache_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rmalocks/internal/cache"
	"rmalocks/internal/locks"
	"rmalocks/internal/sweep"
	"rmalocks/internal/workload"
)

// withTR is g with one TR axis. At testGrid's size no counter sees 1000
// readers, so a T_R of 1000 or more never binds, and T_R = 8 binds in
// every cell. (Much lower values starve readers until the time limit.)
func withTR(g sweep.Grid, trs ...int64) sweep.Grid {
	g.Tunables = []sweep.TunableAxis{{Key: "TR", Values: trs}}
	return g
}

// runGrid runs g against c (nil: no cache) and encodes the run file.
func runGrid(tb testing.TB, g sweep.Grid, c sweep.CellCache) []byte {
	tb.Helper()
	results, err := sweep.Run(mustCells(tb, g), sweep.Options{Workers: 2, Cache: c})
	if err != nil {
		tb.Fatal(err)
	}
	data, err := sweep.Encode(sweep.RunFile{Label: "witness", Cells: results})
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// rmaRW returns g's RMA-RW cells.
func rmaRW(tb testing.TB, g sweep.Grid) []sweep.Cell {
	var out []sweep.Cell
	for _, c := range mustCells(tb, g) {
		if c.Key.Scheme == workload.SchemeRMARW {
			out = append(out, c)
		}
	}
	return out
}

// rewriteWitness replaces the witness stored beside input's entry.
func rewriteWitness(tb testing.TB, dir, input string, edit func(string) string) {
	tb.Helper()
	name := filepath.Join(dir, address(input)+".json")
	raw, err := os.ReadFile(name)
	if err != nil {
		tb.Fatal(err)
	}
	var env map[string]json.RawMessage
	if err := json.Unmarshal(raw, &env); err != nil {
		tb.Fatal(err)
	}
	var w string
	if err := json.Unmarshal(env["witness"], &w); err != nil || w == "" {
		tb.Fatalf("entry %s stores no witness (%v)", input, err)
	}
	env["witness"], _ = json.Marshal(edit(w))
	if raw, err = json.Marshal(env); err != nil {
		tb.Fatal(err)
	}
	plant(tb, dir, input, raw)
}

// TestTamperedWitnessRecomputes damages the witness of three of the four
// stored RMA-RW entries: one no longer canonical, one naming another
// scheme, one whose T_R box leaves out the entry's own T_R. Open reports
// and counts each as corrupt, and indexes none of them. None of them is
// a derivation source: of a dirty run's RMA-RW cells only the intact
// entry's sibling derives, the rest compute, and the bytes are a local
// run's. A rerun of the tampered entries' own cells then derives each
// from the dirty run's stored sibling: no miss, and nothing counted
// corrupt twice.
func TestTamperedWitnessRecomputes(t *testing.T) {
	dir := t.TempDir()
	store, _, err := cache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := testGrid()
	cold := runGrid(t, g, store)
	rw := rmaRW(t, g)
	if len(rw) != 4 {
		t.Fatalf("%d RMA-RW cells, want 4", len(rw))
	}
	rewriteWitness(t, dir, rw[0].Input, func(w string) string { return strings.Replace(w, " P=", " P=+", 1) })
	rewriteWitness(t, dir, rw[1].Input, func(w string) string { return strings.Replace(w, "RMA-RW ", "RMA-MCS ", 1) })
	rewriteWitness(t, dir, rw[2].Input, func(text string) string {
		w, err := workload.ParseWitness(text)
		if err != nil {
			t.Fatal(err)
		}
		w.Boxes["TR"] = locks.Box{Lo: 1, Hi: 999} // the entry's own T_R is the default 1000
		return w.Canonical()
	})
	const tampered = 3

	store, rep, err := cache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); len(rep.Corrupt) != tampered || st.Corrupt != tampered {
		t.Fatalf("Open reported %v corrupt and counted %d, want the %d tampered entries", rep.Corrupt, st.Corrupt, tampered)
	}
	dirty := withTR(g, 20001)
	if got := runGrid(t, dirty, store); !bytes.Equal(got, runGrid(t, dirty, nil)) {
		t.Fatal("dirty run against tampered witnesses differs from a local run")
	}
	if st := store.Stats(); st.Derived != int64(len(rw)-tampered) {
		t.Fatalf("%d cells derived, want %d: only the intact witness may be a source", st.Derived, len(rw)-tampered)
	}
	before := store.Stats()
	if got := runGrid(t, g, store); !bytes.Equal(got, cold) {
		t.Fatal("rerun after tampering differs from the cold run")
	}
	st := store.Stats()
	if misses, corrupt, derived := st.Misses-before.Misses, st.Corrupt-before.Corrupt, st.Derived-before.Derived; misses != 0 || corrupt != 0 || derived != tampered {
		t.Fatalf("rerun: %d misses, %d corrupt, %d derived; want each tampered entry's cell derived (%d) and nothing else", misses, corrupt, derived, tampered)
	}
}

// TestUnwritableDirDegradesToCompute replaces the cache directory with a
// regular file after two Opens of the warm directory, which stops every
// write even for root. A dirty run with derived cells (TR=20001,
// admitted by the stored default-TR witnesses) and computed ones (TR=8
// binds) still returns a local run's bytes, and every store it attempted
// is counted as failed: one per computed cell, since derived cells are
// never stored. The two stores run it on 1 and on 8 workers: every
// lookup is made before any cell runs, so their counters are equal.
func TestUnwritableDirDegradesToCompute(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	store, _, err := cache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	runGrid(t, testGrid(), store)
	workers := []int{1, 8}
	stores := make([]*cache.Store, len(workers))
	for i := range stores {
		if stores[i], _, err = cache.Open(dir, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	dirty := withTR(testGrid(), 8, 20001)
	local := runGrid(t, dirty, nil)
	rw := len(rmaRW(t, dirty))
	for i, store := range stores {
		results, err := sweep.Run(mustCells(t, dirty), sweep.Options{Workers: workers[i], Cache: store})
		if err != nil {
			t.Fatal(err)
		}
		if got, err := sweep.Encode(sweep.RunFile{Label: "witness", Cells: results}); err != nil || !bytes.Equal(got, local) {
			t.Fatalf("%d workers: dirty run into an unwritable cache differs from a local run (%v)", workers[i], err)
		}
		st := store.Stats()
		if st.Derived != int64(rw/2) {
			t.Errorf("%d workers: %d cells derived, want the %d TR=20001 cells", workers[i], st.Derived, rw/2)
		}
		if st.PutErrors != int64(rw/2) {
			t.Errorf("%d workers: %d failed stores, want one per computed TR=8 cell: %d", workers[i], st.PutErrors, rw/2)
		}
		if first := stores[0].Stats(); st != first {
			t.Errorf("%d workers: %+v; %d workers: %+v", workers[i], st, workers[0], first)
		}
	}
}
