package cache_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rmalocks/internal/cache"
	"rmalocks/internal/sweep"
	"rmalocks/internal/workload"
)

func testGrid() sweep.Grid {
	return sweep.Grid{
		Schemes:   []string{workload.SchemeDMCS, workload.SchemeRMARW},
		Workloads: []string{"empty"},
		Profiles:  []string{"uniform", "zipf"},
		Ps:        []int{8, 16},
		Iters:     12,
		FW:        0.2,
		Locks:     4,
	}
}

func mustCells(tb testing.TB, g sweep.Grid) []sweep.Cell {
	tb.Helper()
	cells, err := g.Cells()
	if err != nil {
		tb.Fatal(err)
	}
	return cells
}

func runBytes(tb testing.TB, c sweep.CellCache) []byte {
	tb.Helper()
	results, err := sweep.Run(mustCells(tb, testGrid()), sweep.Options{Workers: 4, Cache: c})
	if err != nil {
		tb.Fatal(err)
	}
	rf := sweep.RunFile{Label: "cache-test", Cells: results}
	path := filepath.Join(tb.TempDir(), "out.json")
	if err := sweep.Save(path, rf); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestStaleEntriesRemovedAtOpen: an entry written under another version
// of the address encoding (testdata/v1-entry holds one, as the cell/v1
// code wrote it) is well-formed but unreachable. Open counts it apart
// from the corrupt ones and removes the file; current entries and
// corrupt files are treated as before.
func TestStaleEntriesRemovedAtOpen(t *testing.T) {
	dir := t.TempDir()
	fixtures, _ := filepath.Glob(filepath.Join("testdata", "v1-entry", "*.json"))
	if len(fixtures) != 1 {
		t.Fatalf("want one v1 fixture, found %v", fixtures)
	}
	raw, err := os.ReadFile(fixtures[0])
	if err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, filepath.Base(fixtures[0]))
	if err := os.WriteFile(stale, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	cells, results := computed(t)
	plant(t, dir, cells[1].Input, []byte(`{"v":1,"truncated`))

	// Under a one-byte budget no entry is decoded at load; the v1 file
	// is recognised by its address alone.
	for _, budget := range []int64{1, 0} {
		if err := os.WriteFile(stale, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		store, rep, err := cache.Open(dir, budget)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Stale != 1 || len(rep.Corrupt) != 1 {
			t.Fatalf("budget %d: stale %d, corrupt %v; want 1 stale and the truncated file corrupt", budget, rep.Stale, rep.Corrupt)
		}
		if _, err := os.Stat(stale); !os.IsNotExist(err) {
			t.Fatalf("budget %d: stale entry file still there (%v)", budget, err)
		}
		store.Put(cells[0].Input, results[0])
	}
	_, rep, err := cache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stale != 0 || rep.Entries != 1 || rep.Loaded != 1 || len(rep.Corrupt) != 1 {
		t.Fatalf("reopen: %+v; want the current entry loaded, the corrupt file reported, nothing stale", rep)
	}
}

// computed runs the test grid without a cache: the cells and the
// results a cold local run gives them.
func computed(tb testing.TB) ([]sweep.Cell, []sweep.CellResult) {
	tb.Helper()
	cells := mustCells(tb, testGrid())
	results, err := sweep.Run(cells, sweep.Options{Workers: 4})
	if err != nil {
		tb.Fatal(err)
	}
	return cells, results
}

// encodeOne is the run-file encoding of a single cell.
func encodeOne(tb testing.TB, r sweep.CellResult) []byte {
	tb.Helper()
	data, err := sweep.Encode(sweep.RunFile{Cells: []sweep.CellResult{r}})
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestEvictionUnderSmallBudget forces LRU eviction and checks that the
// budget is charged for what an entry really keeps resident — decoded
// value and fragment — that both go when the entry is evicted, and that
// a later Get derives them again from the file.
func TestEvictionUnderSmallBudget(t *testing.T) {
	dir := t.TempDir()
	cells, results := computed(t)
	one := sweep.CellFootprint(mustSeal(t, results[0]))
	if payload, _ := json.Marshal(results[0]); one < 2*int64(len(payload)) {
		t.Fatalf("an entry is charged %d B for a %d B payload: fragment and decoded value are not both counted", one, len(payload))
	}
	budget := 5 * one / 2
	store, _, err := cache.Open(dir, budget)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		store.Put(c.Input, results[i])
	}
	st := store.Stats()
	if st.Evictions == 0 || st.Resident >= len(cells) {
		t.Fatalf("%d evictions, %d of %d entries resident under a %d-byte budget", st.Evictions, st.Resident, len(cells), budget)
	}
	if st.Bytes > budget {
		t.Fatalf("resident bytes %d exceed budget %d", st.Bytes, budget)
	}
	// Every entry — evicted or resident — must still be retrievable, as
	// the same cell and the same payload bytes.
	var got []sweep.CellResult
	for i, c := range cells {
		r, ok := store.Get(c.Input)
		if !ok {
			t.Fatalf("entry %d lost after eviction (disk fallback failed)", i)
		}
		if !bytes.Equal(encodeOne(t, r), encodeOne(t, results[i])) {
			t.Fatalf("entry %d came back from disk as a different cell", i)
		}
		if sweep.CellFragment(r) == nil {
			t.Fatalf("entry %d was handed out without its fragment", i)
		}
		var payload bytes.Buffer
		if want, _ := json.Marshal(results[i]); json.Compact(&payload, sweep.CellFragment(r)) != nil || !bytes.Equal(payload.Bytes(), want) {
			t.Fatalf("entry %d payload corrupted", i)
		}
		got = append(got, r)
	}
	// What is charged is exactly what the resident entries hold: the
	// most recently used ones, with nothing left over for the evicted.
	st = store.Stats()
	if st.Hits != int64(len(cells)) || st.Misses != 0 {
		t.Fatalf("hits/misses = %d/%d, want %d/0", st.Hits, st.Misses, len(cells))
	}
	var held int64
	for _, r := range got[len(got)-st.Resident:] {
		held += sweep.CellFootprint(r)
	}
	if st.Bytes != held || st.Bytes > budget {
		t.Fatalf("store charges %d B; its %d resident entries hold %d B (budget %d)", st.Bytes, st.Resident, held, budget)
	}

	// A one-byte budget keeps nothing at load and one entry afterwards:
	// every Get of another cell reads, validates and decodes a file.
	disk, rep, err := cache.Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Entries != len(cells) || rep.Loaded != 0 {
		t.Fatalf("one-byte budget indexed %d and loaded %d entries, want %d and 0", rep.Entries, rep.Loaded, len(cells))
	}
	for i, c := range cells {
		r, ok := disk.Get(c.Input)
		if !ok || !bytes.Equal(encodeOne(t, r), encodeOne(t, results[i])) {
			t.Fatalf("entry %d not served from disk under a one-byte budget", i)
		}
	}
	if st := disk.Stats(); st.Resident != 1 || st.Hits != int64(len(cells)) || st.Evictions != int64(len(cells)-1) {
		t.Fatalf("one-byte budget: %+v, want 1 resident, %d hits, %d evictions", st, len(cells), len(cells)-1)
	}
}

func mustSeal(tb testing.TB, r sweep.CellResult) sweep.CellResult {
	tb.Helper()
	sealed, err := sweep.SealCell(r)
	if err != nil {
		tb.Fatal(err)
	}
	return sealed
}

// address is the file name stem of input's entry.
func address(input string) string {
	sum := sha256.Sum256([]byte(input))
	return hex.EncodeToString(sum[:])
}

// envelopeOf is a well-formed entry file around an arbitrary payload.
func envelopeOf(v int, input string, payload []byte) []byte {
	return []byte(fmt.Sprintf(`{"v":%d,"input":%q,"sha256":%q,"data":%s}`, v, input, address(input), payload))
}

// plant overwrites the entry file of input with raw bytes.
func plant(tb testing.TB, dir, input string, raw []byte) {
	tb.Helper()
	if err := os.WriteFile(filepath.Join(dir, address(input)+".json"), raw, 0o644); err != nil {
		tb.Fatal(err)
	}
}

// TestCorruptEntryDegradesToRecompute damages four entries on disk — a
// truncated file, an empty one, a payload that is valid JSON and decodes
// but is not the canonical encoding of what it decodes to, and another
// cell's payload under this cell's address. Open must report (not fail
// on) them and count each corrupt, a sweep must miss each, recompute
// those cells rather than serve a byte of them, and heal the cache.
func TestCorruptEntryDegradesToRecompute(t *testing.T) {
	dir := t.TempDir()
	store, _, err := cache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cold := runBytes(t, store)
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}

	cells := mustCells(t, testGrid())
	payload := func(i int) []byte {
		r, ok := store.Get(cells[i].Input)
		if !ok {
			t.Fatalf("cold run left no entry for cell %d", i)
		}
		data, _ := json.Marshal(r)
		return data
	}
	plant(t, dir, cells[0].Input, []byte(`{"v":1,"truncated`))
	plant(t, dir, cells[1].Input, nil)
	// The same cell with a space and a field no CellResult has: it
	// decodes to the right value, and a store that decoded on every Get
	// served it.
	padded := bytes.Replace(payload(2), []byte(`"locks":4,`), []byte(`"locks":4, "zz":1,`), 1)
	if bytes.Equal(padded, payload(2)) {
		t.Fatal("test payload has no locks field to pad")
	}
	plant(t, dir, cells[2].Input, envelopeOf(1, cells[2].Input, padded))
	plant(t, dir, cells[3].Input, envelopeOf(1, cells[3].Input, payload(4)))
	const damaged = 4

	store2, rep, err := cache.Open(dir, 0)
	if err != nil {
		t.Fatalf("Open must tolerate corrupt entries, got %v", err)
	}
	if len(rep.Corrupt) != damaged || rep.Loaded != len(cells)-damaged {
		t.Fatalf("corrupt report = %v with %d loaded, want %d corrupt and %d loaded", rep.Corrupt, rep.Loaded, damaged, len(cells)-damaged)
	}
	warm := runBytes(t, store2)
	if !bytes.Equal(cold, warm) {
		t.Fatal("recomputed-after-corruption output differs from cold run")
	}
	st := store2.Stats()
	if st.Misses != damaged || st.Corrupt != damaged || st.Hits != int64(len(cells)-damaged) {
		t.Fatalf("hits/misses/corrupt = %d/%d/%d, want %d/%d/%d: every lookup is a hit or a miss, and each damaged entry a corrupt one, counted once",
			st.Hits, st.Misses, st.Corrupt, len(cells)-damaged, damaged, damaged)
	}

	// The recompute healed the entries: a third process sees a clean cache.
	_, rep3, err := cache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep3.Corrupt) != 0 || rep3.Loaded != len(cells) {
		t.Fatalf("cache not healed after recompute: %d loaded, corrupt %v", rep3.Loaded, rep3.Corrupt)
	}
}

// TestPutRefusesWhatItCouldNotServe: Put takes a cell only under an
// address that names it; the rest would be corrupt entries the moment
// they were written.
func TestPutRefusesWhatItCouldNotServe(t *testing.T) {
	dir := t.TempDir()
	store, _, err := cache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cells, results := computed(t)
	for name, input := range map[string]string{
		"another address":  cells[1].Input,
		"no address":       "",
		"unversioned addr": "some input",
	} {
		store.Put(input, results[0])
		if _, ok := store.Get(input); ok {
			t.Errorf("%s: result was accepted and served", name)
		}
	}
	if names, _ := filepath.Glob(filepath.Join(dir, "*.json")); len(names) != 0 {
		t.Errorf("refused results left files behind: %v", names)
	}
	store.Put(cells[0].Input, results[0])
	if r, ok := store.Get(cells[0].Input); !ok || !bytes.Equal(encodeOne(t, r), encodeOne(t, results[0])) {
		t.Error("a cell under its own address was not stored")
	}
}

// TestPutRefusesDerived: a result Run derived from a sibling is not
// stored — no file, nothing resident, one counted failed store — so
// every entry on disk is a simulated run's. The same cell simulated is.
func TestPutRefusesDerived(t *testing.T) {
	dir := t.TempDir()
	store, _, err := cache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cells, results := computed(t)
	derived := results[0]
	derived.Derived = true
	store.Put(cells[0].Input, derived)
	if names, _ := filepath.Glob(filepath.Join(dir, "*.json")); len(names) != 0 {
		t.Errorf("a derived result left files behind: %v", names)
	}
	if st := store.Stats(); st.PutErrors != 1 || st.Resident != 0 {
		t.Errorf("after a derived Put: %+v, want 1 failed store and nothing resident", st)
	}
	store.Put(cells[0].Input, results[0])
	if r, ok := store.Get(cells[0].Input); !ok || r.Derived || !bytes.Equal(encodeOne(t, r), encodeOne(t, results[0])) {
		t.Error("the simulated result was not stored")
	}
	if st := store.Stats(); st.PutErrors != 1 {
		t.Errorf("%d failed stores, want only the derived one", st.PutErrors)
	}
}

// TestCrashLeavesNoLitter plants what a write cut short by a crash can
// leave beside good entries: a temp file writeAtomic never renamed, and
// a torn entry file. Open loads the good entries, reports the torn one,
// and removes the temp file.
func TestCrashLeavesNoLitter(t *testing.T) {
	dir := t.TempDir()
	store, _, err := cache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cells, results := computed(t)
	for i := 1; i < 4; i++ {
		store.Put(cells[i].Input, results[i])
	}
	temp := filepath.Join(dir, ".tmp-123456")
	if err := os.WriteFile(temp, []byte(`{"v":1,"input":`), 0o644); err != nil {
		t.Fatal(err)
	}
	plant(t, dir, cells[0].Input, []byte(`{"v":1,"input":`))
	store, rep, err := cache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Entries != 3 || rep.Loaded != 3 || len(rep.Corrupt) != 1 || rep.Corrupt[0] != address(cells[0].Input)+".json" {
		t.Fatalf("reopen after a crash: %+v; want the 3 good entries loaded and the torn one reported", rep)
	}
	if _, err := os.Stat(temp); !os.IsNotExist(err) {
		t.Fatalf("the crash's temp file is still there (%v)", err)
	}
	for i := 1; i < 4; i++ {
		if r, ok := store.Get(cells[i].Input); !ok || !bytes.Equal(encodeOne(t, r), encodeOne(t, results[i])) {
			t.Errorf("good entry %d not served after a crash", i)
		}
	}
}

// TestAddressMismatchRejected: a valid envelope under the wrong file
// name (e.g. copied by hand) must not be served.
func TestAddressMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	store, _, err := cache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cells, results := computed(t)
	store.Put(cells[0].Input, results[0])
	names, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(names) != 1 {
		t.Fatalf("want 1 entry file, got %d", len(names))
	}
	bogus := filepath.Join(dir, strings.Repeat("ab", 32)+".json")
	data, _ := os.ReadFile(names[0])
	if err := os.WriteFile(bogus, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rep, err := cache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Corrupt) != 1 {
		t.Fatalf("renamed entry not flagged corrupt: %v", rep.Corrupt)
	}
}
