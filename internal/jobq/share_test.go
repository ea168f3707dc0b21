package jobq_test

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"rmalocks/internal/cache"
	"rmalocks/internal/fault"
	"rmalocks/internal/jobq"
	"rmalocks/internal/sweep"
	"rmalocks/internal/workload"
)

func faultGrid(tb testing.TB) sweep.Grid {
	tb.Helper()
	var axis []*fault.Profile
	for _, spec := range []string{"jitter=0.2,stall=50us@0.05", "jitter=0.2,timeout=150us"} {
		p, err := fault.Parse(spec)
		if err != nil {
			tb.Fatal(err)
		}
		axis = append(axis, p)
	}
	return sweep.Grid{
		Schemes:   []string{workload.SchemeFoMPISpin, workload.SchemeRMAMCS},
		Workloads: []string{"empty", "counter"},
		Profiles:  []string{"uniform", "zipf"},
		Ps:        []int{8, 16},
		Iters:     10,
		FW:        0.5,
		Locks:     2,
		Faults:    axis,
	}
}

// TestWarmFaultJobsShareNothingMutable: warm jobs of a fault-axis grid
// are handed the cache's own values and then degrade them. Two at once
// (meaningful under -race: they would be writing one Extra map) and one
// after must still produce the cold job's bytes and a local run's, and
// must leave every cache entry the encoding of what it was stored as.
func TestWarmFaultJobsShareNothingMutable(t *testing.T) {
	// A local run with a cache of its own: the cache stores the cells
	// before the degradation join, and Run returns them after it.
	ref, _, err := cache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	local, err := sweep.Run(mustCells(t, faultGrid(t)), sweep.Options{Workers: 4, Cache: ref})
	if err != nil {
		t.Fatal(err)
	}
	stored := make([][]byte, len(local))
	for i, c := range mustCells(t, faultGrid(t)) {
		r, ok := ref.Get(c.Input)
		if !ok {
			t.Fatalf("cell %s: the local run stored nothing", c.Key)
		}
		if stored[i], err = json.Marshal(r); err != nil {
			t.Fatal(err)
		}
	}
	want, err := sweep.Encode(sweep.RunFile{Label: "faults", Cells: local})
	if err != nil {
		t.Fatal(err)
	}
	degraded := 0
	for _, r := range local {
		if _, ok := r.Report.Extra[sweep.ExtraP99Infl]; ok {
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatal("fault grid derived no degradation metrics: nothing would be written")
	}

	store, _, err := cache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	m := jobq.NewManager(jobq.Config{Workers: 4, MaxJobs: 2, Cache: store})
	defer m.Shutdown()
	result := func(name string) []byte {
		j, err := m.Submit(faultGrid(t), "faults")
		if err != nil {
			t.Error(err)
			return nil
		}
		<-j.Done()
		rf, err := m.Result(j.ID)
		if err != nil {
			t.Errorf("%s job: %v", name, err)
			return nil
		}
		data, err := sweep.Encode(rf)
		if err != nil {
			t.Errorf("%s job: %v", name, err)
		}
		return data
	}
	if cold := result("cold"); !bytes.Equal(cold, want) {
		t.Fatal("cold fault job differs from the local run")
	}
	var wg sync.WaitGroup
	pair := make([][]byte, 2)
	for i := range pair {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pair[i] = result("concurrent warm")
		}(i)
	}
	wg.Wait()
	for i, got := range append(pair, result("later warm")) {
		if !bytes.Equal(got, want) {
			t.Errorf("warm fault job %d differs from the cold job", i)
		}
	}
	cells := mustCells(t, faultGrid(t))
	if st := store.Stats(); st.Hits != int64(3*len(cells)) || st.Misses != int64(len(cells)) {
		t.Fatalf("hits/misses = %d/%d, want %d/%d", st.Hits, st.Misses, 3*len(cells), len(cells))
	}
	// Nothing wrote through a served value: every entry still decodes
	// to, and is stored as, the cell the cold job computed.
	for i, c := range cells {
		r, ok := store.Get(c.Input)
		if !ok {
			t.Fatalf("cell %s left the cache", c.Key)
		}
		if got, _ := json.Marshal(r); !bytes.Equal(got, stored[i]) {
			t.Errorf("cell %s: cached value was edited\n got %s\nwant %s", c.Key, got, stored[i])
		}
		var payload bytes.Buffer
		if err := json.Compact(&payload, sweep.CellFragment(r)); err != nil || !bytes.Equal(payload.Bytes(), stored[i]) {
			t.Errorf("cell %s: cached fragment no longer matches its value", c.Key)
		}
	}
}
