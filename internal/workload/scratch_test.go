package workload_test

// The pooled rma scratch seen from the harness: a cell's report does not
// depend on which cells its worker ran before it, and a warm cell
// allocates neither a window nor generators.

import (
	"errors"
	"runtime"
	"testing"

	"rmalocks/internal/rma"
	"rmalocks/internal/sim"
	"rmalocks/internal/workload"
)

// dhtCell is an RMA-RW hashtable cell: a window of slots+cells words per
// rank, all of them written (the table's ∅ fill), and every rank drawing
// from its generator each cycle.
func dhtCell(engine string, p int, seed int64, geometry int) workload.Spec {
	return workload.Spec{
		Scheme: workload.SchemeRMARW,
		P:      p, ProcsPerNode: 4,
		Seed:     seed,
		Iters:    8,
		Profile:  workload.NewZipf(4, 1.2, 0.3),
		Workload: &workload.DHTOps{ShardByLock: true, Slots: geometry, Cells: 4 * geometry},
		Engine:   engine,
	}
}

// TestDifferentialCellOrder runs one small cell first on empty pools, then
// after cells that leave its scratch as unlike a new one as they can: a
// wider machine with every window word written, the same with another
// seed, and a run that dies at its time limit with waiters parked. The
// pattern name puts it in CI's -race Differential step; internal/rma's
// TestScratchOrderIndependence covers the same ground below the harness,
// with the scratch handed over by hand.
func TestDifferentialCellOrder(t *testing.T) {
	for _, engine := range []string{rma.EngineFast, rma.EngineRef} {
		small := func(after string, want string) string {
			t.Helper()
			rep, err := workload.Run(dhtCell(engine, 8, 11, 16))
			if err != nil {
				t.Fatalf("%s: small cell %s: %v", engine, after, err)
			}
			fp := rep.Fingerprint()
			if want != "" && fp != want {
				t.Errorf("%s: small cell %s differs from the first run:\n first: %s\n   got: %s", engine, after, want, fp)
			}
			return fp
		}
		// Two collections empty every sync.Pool: the first run below
		// builds its scratch, scheduler core and buffers from nothing.
		runtime.GC()
		runtime.GC()
		fresh := small("on empty pools", "")
		small("after itself", fresh)
		if _, err := workload.Run(dhtCell(engine, 64, 11, 128)); err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		small("after a P=64 cell", fresh)
		if _, err := workload.Run(dhtCell(engine, 64, 12, 128)); err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		small("after a P=64 cell with another seed", fresh)
		aborted := dhtCell(engine, 64, 11, 128)
		aborted.TimeLimit = 40_000
		if _, err := workload.Run(aborted); !errors.Is(err, sim.ErrTimeLimit) {
			t.Fatalf("%s: aborted cell: err=%v, want the time limit", engine, err)
		}
		small("after an aborted P=64 cell", fresh)
	}
}

// warmCellAllocBound is four times what a warm P=16 dht cell allocated
// when the bound was set (15KB: coroutines, lock set, report, closures).
// One fresh window is 0.6MB (the eight hashtable volumes of its eight
// locks, on ranks 0 to 7) and sixteen fresh generators 78KB, so either
// coming back fails the test.
const warmCellAllocBound = 60 << 10

// TestWarmCellAllocBytes bounds the bytes a cell allocates once its worker
// is warm: the window, the per-rank state and the generators must all come
// from the pooled scratch.
func TestWarmCellAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of its Puts under -race")
	}
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := workload.Run(warmCell()); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	cold := run()
	// A collection between two cells may empty the pools; the smallest of
	// a few attempts is a warm one.
	warm := run()
	for i := 0; i < 4; i++ {
		warm = min(warm, run())
	}
	t.Logf("cold cell %d B, warm cell %d B (bound %d B)", cold, warm, warmCellAllocBound)
	if warm >= warmCellAllocBound {
		t.Errorf("a warm cell allocated %d B, bound %d B: is a window or a generator allocated per cell again?", warm, warmCellAllocBound)
	}
}

// TestColdDHTCellBytes bounds the bytes a hashtable cell allocates on
// empty pools, where its window is allocated afresh: the volumes live on
// their hosting ranks only — the sharded store's eight on ranks 0 to 7,
// the DHT benchmark's one on rank 0 — not on every rank. A volume on every
// rank would cost the sharded cell 40MB and the benchmark cell 7.4MB.
func TestColdDHTCellBytes(t *testing.T) {
	for _, c := range []struct {
		name  string
		spec  workload.Spec
		bound uint64
	}{
		{"dht P=512 locks=8", workload.Spec{Scheme: workload.SchemeRMARW, P: 512, Iters: 4,
			Profile: workload.Uniform{FW: 0.02, NumLocks: 8}, Workload: &workload.DHTOps{ShardByLock: true}}, 6 << 20},
		{"dhtvol P=256", workload.Spec{Scheme: workload.SchemeRMARW, P: 256, Iters: 4,
			Profile: workload.Uniform{FW: 0.2}, Workload: &workload.DHTOps{}}, 3 << 20},
	} {
		var before, after runtime.MemStats
		// Two collections empty every sync.Pool.
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := workload.Run(c.spec); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: cold cell %d B (bound %d B)", c.name, got, c.bound)
		if got >= c.bound {
			t.Errorf("%s: a cold cell allocated %d B, bound %d B: is a hashtable volume on every rank again?", c.name, got, c.bound)
		}
	}
}
