package jobq_test

import (
	"runtime"
	"testing"

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
	m := jobq.NewManager(jobq.Config{MaxJobs: 1, Cache: cache.NewResultStore(store)})
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
// allocate. Splicing stored fragments a job allocates 0.89 MB: 0.52 MB
// is the result buffer itself, the rest the grid's enumerated cells, the
// results slice and the progress tracker. At 8b765ae, where every hit
// was decoded and the result re-marshalled, this same file measured
// 2.07 MB — twice the head-room still sits below that.
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
