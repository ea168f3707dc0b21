package jobq_test

import (
	"runtime"
	"testing"
	"time"

	"rmalocks/internal/cache"
	"rmalocks/internal/jobq"
	"rmalocks/internal/sweep"
	"rmalocks/internal/workload"
)

// warmGrid is the 240-cell grid the daemon workloads of benchmark/
// serve: every scheme, workload and profile at three small rank counts.
func warmGrid() sweep.Grid {
	return sweep.Grid{
		Schemes:   workload.Schemes,
		Workloads: []string{"empty", "sharedop", "counter", "dht"},
		Profiles:  []string{"uniform", "zipf", "bursty", "sweep"},
		Ps:        []int{16, 32, 64},
		Iters:     50,
		FW:        0.1,
		Locks:     8,
	}
}

// warmManager returns a manager whose cache already holds every cell of
// warmGrid, resident, the store, and the encoded result of the cold job
// that filled it.
func warmManager(tb testing.TB) (*jobq.Manager, *cache.Store, []byte) {
	tb.Helper()
	store, _, err := cache.Open(tb.TempDir(), 0)
	if err != nil {
		tb.Fatal(err)
	}
	m := jobq.NewManager(jobq.Config{MaxJobs: 1, Cache: store})
	tb.Cleanup(m.Shutdown)
	cold := warmJob(tb, m)
	if st := store.Stats(); st.Resident != 240 || st.Hits != 0 {
		tb.Fatalf("cold fill left %d resident entries and %d hits, want 240 and 0", st.Resident, st.Hits)
	}
	return m, store, cold
}

// warmJob is one pass of the daemon's warm path without the socket.
func warmJob(tb testing.TB, m *jobq.Manager) []byte {
	tb.Helper()
	return jobBytes(tb, m, warmGrid(), "bench/daemon")
}

// BenchmarkWarmJob measures a job whose every cell is a resident cache
// hit: what `daemon-warm` pays per job apart from HTTP.
func BenchmarkWarmJob(b *testing.B) {
	m, _, cold := warmManager(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(cold)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warmJob(b, m)
	}
}

// BenchmarkDerivedJob measures a job of warmGrid with a TR no job has
// asked for, on a warm store: 192 resident hits, and 48 RMA-RW cells
// derived from the stored default-TR entries, whose witnesses admit any
// T_R of 1000 or more at this size. It is what a `daemon-dirty` job
// pays apart from HTTP.
func BenchmarkDerivedJob(b *testing.B) {
	m, store, _ := warmManager(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jobBytes(b, m, withTR(warmGrid(), 20001+int64(i)), "bench/dirty")
	}
	b.StopTimer()
	if st := store.Stats(); st.Derived != int64(48*b.N) {
		b.Fatalf("%d cells derived in %d jobs, want 48 a job", st.Derived, b.N)
	}
}

// warmJobAllocBound is the ceiling on bytes one warm 240-cell job may
// allocate. Splicing stored fragments a job allocates 0.71 MB: 0.52 MB
// is the result buffer itself, the rest the grid's enumerated cells and
// the progress tracker; its results are its run slot's storage. At
// 8b765ae, where every hit was decoded and the result re-marshalled,
// this same file measured 2.07 MB — twice the head-room still sits
// below that.
const warmJobAllocBound = 1800 << 10

// TestWarmJobAllocBytes bounds the bytes a warm job allocates, so a
// decode or a marshal coming back onto the hit path fails a test rather
// than a benchmark.
func TestWarmJobAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the 240-cell cold fill takes 20 s under -race, and the detector's own allocations are not the job's")
	}
	m, _, cold := warmManager(t)
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		warmJob(t, m)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	warm := run()
	for i := 0; i < 4; i++ {
		warm = min(warm, run())
	}
	t.Logf("warm job %d B for a %d B result (bound %d B)", warm, len(cold), warmJobAllocBound)
	if warm >= warmJobAllocBound {
		t.Errorf("a warm job allocated %d B, bound %d B: is a hit decoded or re-marshalled per job again?", warm, warmJobAllocBound)
	}
}

// derivedJobAllocBound is the ceiling on bytes one job of warmGrid with
// a new TR may allocate: a warm job's, plus 48 derived cells. Spliced
// from their sources' fragments they allocate 0.91 MB a job: a warm
// job's 0.71 MB, a fragment and a fingerprint per derived cell, and the
// store's sibling lookups. Where derive re-formatted each fingerprint
// and Encode marshalled and indented each derived cell, this same job
// allocated 1.86 MB, about 16 KB more per cell; the bound sits between.
const derivedJobAllocBound = 1536 << 10

// TestDerivedJobAllocBytes bounds the bytes a job of 48 derived cells
// allocates, so a marshal or a formatted fingerprint coming back onto
// the derived path fails a test rather than a benchmark.
func TestDerivedJobAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the 240-cell cold fill takes 20 s under -race, and the detector's own allocations are not the job's")
	}
	m, store, _ := warmManager(t)
	tr := int64(20001)
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		jobBytes(t, m, withTR(warmGrid(), tr), "bench/dirty")
		runtime.ReadMemStats(&after)
		tr++
		return after.TotalAlloc - before.TotalAlloc
	}
	derived := run()
	for i := 0; i < 4; i++ {
		derived = min(derived, run())
	}
	if st := store.Stats(); st.Derived != 5*48 {
		t.Fatalf("%d cells derived in 5 jobs, want 48 a job", st.Derived)
	}
	t.Logf("derived job %d B (bound %d B)", derived, derivedJobAllocBound)
	if derived >= derivedJobAllocBound {
		t.Errorf("a job of 48 derived cells allocated %d B, bound %d B: is a derived cell marshalled or its fingerprint formatted again?", derived, derivedJobAllocBound)
	}
}

// retainedJobBound is the ceiling on the heap one finished warm job
// keeps while the manager retains it. Such a job keeps a fragment per
// cell, the cache's own bytes, its slice of them (5.8 KB), a state byte
// per cell and the Job itself: about 7.3 KB. A tracker that kept its
// 240 records of 64 B and its own copy of the keys measured 29 KB, a
// job that kept its cells' results 192 KB.
const retainedJobBound = 10 << 10

// retainedDerivedJobBound is the ceiling on the heap a finished job of
// 48 derived cells keeps: a warm job's, and a fragment of ≈2.3 KB per
// derived cell, about 120 KB. With the tracker's records and their 48
// fingerprints of ≈0.7 KB it measured 174 KB.
const retainedDerivedJobBound = 150 << 10

// TestRetainedJobBytes bounds the heap a finished warm job keeps, and
// what a finished job of 48 derived cells keeps, so a job that holds on
// to its reports, its addresses or a fat tracker fails a test before it
// fills a long-running daemon's memory.
func TestRetainedJobBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the 240-cell cold fill takes 20 s under -race, and the detector's own allocations are not the job's")
	}
	m, store, _ := warmManager(t)
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for i := 0; i < 50; i++ {
		warmJob(t, m)
	}
	const warmJobs = 400
	before := heap()
	for i := 0; i < warmJobs; i++ {
		warmJob(t, m)
	}
	warm := (heap() - before) / warmJobs
	const derivedJobs = 50
	before = heap()
	for i := 0; i < derivedJobs; i++ {
		jobBytes(t, m, withTR(warmGrid(), 30001+int64(i)), "bench/dirty")
	}
	derived := (heap() - before) / derivedJobs
	if st := store.Stats(); st.Derived != 48*derivedJobs {
		t.Fatalf("%d cells derived in %d jobs, want 48 a job", st.Derived, derivedJobs)
	}
	t.Logf("a finished warm job keeps %d B (bound %d B), a finished job of 48 derived cells %d B (bound %d B)", warm, retainedJobBound, derived, retainedDerivedJobBound)
	if warm > retainedJobBound {
		t.Errorf("a finished warm job keeps %d B, bound %d B: does it hold its cells' results, addresses or a fat tracker again?", warm, retainedJobBound)
	}
	if derived > retainedDerivedJobBound {
		t.Errorf("a finished job of 48 derived cells keeps %d B, bound %d B: does its tracker keep its records again?", derived, retainedDerivedJobBound)
	}
}

// BenchmarkGridCells measures enumerating warmGrid — descriptions,
// addresses and Spec closures for 240 cells — which a warm job pays
// once at Submit and is the largest in-process piece of it.
func BenchmarkGridCells(b *testing.B) {
	g := warmGrid()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if cells, err := g.Cells(); err != nil || len(cells) != 240 {
			b.Fatalf("%d cells, %v", len(cells), err)
		}
	}
}

// eventsStreamAllocBound is the ceiling on bytes one events stream of a
// finished warm job may allocate: 240 cell lines of ≈700 B each and a
// summary, 170 KB sent. The stream appends them into a pooled buffer
// beside a pooled snapshot, and allocates only its ticker. A snapshot
// allocated per stream is 21 KB, an Encode per line at least 23 KB, and
// a buffer grown from nil 340 KB.
const eventsStreamAllocBound = 8 << 10

// TestEventsStreamAllocBytes bounds the bytes one events stream of a
// warm job allocates, so a per-line encoder or a per-stream buffer
// coming back onto the stream fails a test rather than a benchmark.
func TestEventsStreamAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the 240-cell cold fill takes 20 s under -race, and the detector's own allocations are not the stream's")
	}
	m, _, _ := warmManager(t)
	j, err := m.Submit(warmGrid(), "bench/daemon")
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	var sent int
	stream := func() uint64 {
		var w countWriter
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := j.Progress().StreamNDJSON(&w, time.Millisecond, nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		sent = int(w)
		return after.TotalAlloc - before.TotalAlloc
	}
	alloc := stream()
	for i := 0; i < 4; i++ {
		alloc = min(alloc, stream())
	}
	t.Logf("events stream %d B for %d B sent (bound %d B)", alloc, sent, eventsStreamAllocBound)
	if sent < 240*500 {
		t.Fatalf("the stream sent %d B, want every cell's line", sent)
	}
	if alloc >= eventsStreamAllocBound {
		t.Errorf("an events stream allocated %d B, bound %d B: is a line encoded on its own, or the stream's buffer grown from nil, again?", alloc, eventsStreamAllocBound)
	}
}

// BenchmarkEventsStream measures one events stream of a finished warm
// job, what `daemon-warm` serves once a job apart from HTTP: 240 cell
// lines, their keys and fingerprints read back from the job's
// fragments, and a summary.
func BenchmarkEventsStream(b *testing.B) {
	m, _, _ := warmManager(b)
	j, err := m.Submit(warmGrid(), "bench/daemon")
	if err != nil {
		b.Fatal(err)
	}
	<-j.Done()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var w countWriter
		if err := j.Progress().StreamNDJSON(&w, time.Millisecond, nil); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(w))
	}
}

// countWriter counts the bytes written to it and keeps none.
type countWriter int

func (w *countWriter) Write(p []byte) (int, error) {
	*w += countWriter(len(p))
	return len(p), nil
}
