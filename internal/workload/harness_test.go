package workload_test

import (
	"errors"
	"reflect"
	"testing"

	"rmalocks/internal/rma"
	"rmalocks/internal/scheme"
	"rmalocks/internal/sim"
	"rmalocks/internal/workload"
)

func TestRunDefaultsEverySCheme(t *testing.T) {
	for _, scheme := range workload.Schemes {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			rep, err := workload.Run(workload.Spec{Scheme: scheme, P: 16, Iters: 15})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Ops != 16*15 {
				t.Errorf("Ops=%d want 240", rep.Ops)
			}
			if rep.Writes != rep.Ops || rep.Reads != 0 {
				t.Errorf("default profile must be all-write: %+v", rep)
			}
			if rep.ThroughputMops <= 0 || rep.Latency.Mean <= 0 {
				t.Errorf("bad report: %+v", rep)
			}
			if rep.MaxClock <= 0 {
				t.Errorf("MaxClock=%d", rep.MaxClock)
			}
			if rep.Scheme != scheme || rep.Workload != "empty" || rep.Profile != "uniform" {
				t.Errorf("bad identity fields: %+v", rep)
			}
		})
	}
}

func TestRunUnknownScheme(t *testing.T) {
	if _, err := workload.Run(workload.Spec{Scheme: "nope", P: 4}); err == nil {
		t.Error("want error for unknown scheme")
	}
}

func TestRunReadWriteSplit(t *testing.T) {
	rep, err := workload.Run(workload.Spec{
		Scheme: workload.SchemeRMARW, P: 16, Iters: 30, Seed: 2,
		Profile: workload.Uniform{FW: 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reads+rep.Writes != rep.Ops || rep.Ops != 16*30 {
		t.Errorf("split does not add up: %+v", rep)
	}
	if rep.Reads == 0 || rep.Writes == 0 {
		t.Errorf("FW=0.25 should mix reads and writes: r=%d w=%d", rep.Reads, rep.Writes)
	}
	if rep.Latency.N != rep.ReadLatency.N+rep.WriteLatency.N {
		t.Errorf("latency sample counts inconsistent: %+v", rep)
	}
}

func TestRunZipfMultiLock(t *testing.T) {
	z := workload.NewZipf(8, 1.2, 0.1)
	if z.Locks() != 8 {
		t.Fatalf("Locks=%d want 8", z.Locks())
	}
	rep, err := workload.Run(workload.Spec{
		Scheme: workload.SchemeRMAMCS, P: 16, Iters: 20, Profile: z,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 16*20 {
		t.Errorf("Ops=%d want 320", rep.Ops)
	}
}

func TestRunBurstySlowerThanUniform(t *testing.T) {
	base := workload.Spec{Scheme: workload.SchemeDMCS, P: 16, Iters: 24}
	uni := base
	uni.Profile = workload.Uniform{FW: 1}
	bur := base
	bur.Profile = workload.Bursty{FW: 1, BurstLen: 4, IdleLen: 4, IdleThinkNs: 50_000}
	ru, err := workload.Run(uni)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := workload.Run(bur)
	if err != nil {
		t.Fatal(err)
	}
	// Idle phases stretch the makespan, so bursty throughput must drop.
	if rb.ThroughputMops >= ru.ThroughputMops {
		t.Errorf("bursty %.3f >= uniform %.3f mln/s", rb.ThroughputMops, ru.ThroughputMops)
	}
}

func TestRunSweepShiftsMix(t *testing.T) {
	rep, err := workload.Run(workload.Spec{
		Scheme: workload.SchemeFoMPIRW, P: 8, Iters: 40, Warmup: -1,
		Profile: workload.RWSweep{FWStart: 0, FWEnd: 1, Span: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reads == 0 || rep.Writes == 0 {
		t.Errorf("sweep 0→1 should produce both classes: r=%d w=%d", rep.Reads, rep.Writes)
	}
}

// TestRunSkipRanks: in the DHT benchmark rank 0 only hosts the volume,
// and nobody warms up.
func TestRunSkipRanks(t *testing.T) {
	rep, err := workload.Run(workload.Spec{
		Scheme: workload.SchemeRMARW, P: 8, Iters: 10,
		Workload: &workload.DHTOps{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 7*10 {
		t.Errorf("Ops=%d want 70 (rank 0 sits out)", rep.Ops)
	}
	if rep.WarmupOps != 0 {
		t.Errorf("WarmupOps=%d want 0", rep.WarmupOps)
	}
}

// TestReusedDHTOpsKeepsNoRunState runs one DHTOps value under several
// Specs: each report equals a fresh value's, so neither the volume's
// size nor the operation family of an earlier run carries over.
func TestReusedDHTOpsKeepsNoRunState(t *testing.T) {
	run := func(w *workload.DHTOps, scheme string, p, iters int) workload.Report {
		t.Helper()
		rep, err := workload.Run(workload.Spec{Scheme: scheme, P: p, Iters: iters, Workload: w})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	reused := &workload.DHTOps{}
	run(reused, workload.SchemeRMARW, 8, 5)
	got, want := run(reused, workload.SchemeRMARW, 64, 20), run(&workload.DHTOps{}, workload.SchemeRMARW, 64, 20)
	if want.Extra["overflows"] != 0 || want.Extra["stored"] != 1260 {
		t.Fatalf("a fresh value reports overflows=%v stored=%v, want 0 and 1260", want.Extra["overflows"], want.Extra["stored"])
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("after a run at P=8, P=64 reports overflows=%v stored=%v, a fresh value %v and %v",
			got.Extra["overflows"], got.Extra["stored"], want.Extra["overflows"], want.Extra["stored"])
	}
	run(reused, workload.SchemeFoMPIA, 8, 5)
	got, want = run(reused, workload.SchemeRMARW, 8, 5), run(&workload.DHTOps{}, workload.SchemeRMARW, 8, 5)
	if !reflect.DeepEqual(got, want) || workload.RanAtomic(reused) {
		t.Errorf("after a foMPI-A run, RMA-RW reports %s (atomic family %v), a fresh value %s", got.Fingerprint(), workload.RanAtomic(reused), want.Fingerprint())
	}
}

func TestRunNoLockDHT(t *testing.T) {
	w := &workload.DHTOps{Slots: 64, Cells: 256}
	rep, err := workload.Run(workload.Spec{
		Scheme: workload.SchemeFoMPIA, P: 8, Iters: 12,
		Profile:  workload.Uniform{FW: 0.5},
		Workload: w,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !workload.RanAtomic(w) {
		t.Error("foMPI-A ran the plain operation family")
	}
	if rep.Writes == 0 {
		t.Fatalf("no inserts happened: %+v", rep)
	}
	if rep.Extra["stored"] <= 0 {
		t.Errorf("stored=%v despite %d inserts", rep.Extra["stored"], rep.Writes)
	}
	if rep.Scheme != workload.SchemeFoMPIA {
		t.Errorf("Scheme=%q want %s", rep.Scheme, workload.SchemeFoMPIA)
	}
	// Without an atomic family, no lock would be a race.
	var fam *workload.AtomicFamilyError
	if _, err := workload.Run(workload.Spec{Scheme: workload.SchemeFoMPIA, P: 8, Iters: 4}); !errors.As(err, &fam) || fam.Workload != "empty" {
		t.Errorf("foMPI-A on the empty workload: err %v, want an AtomicFamilyError", err)
	}
}

func TestRunCounterExtract(t *testing.T) {
	rep, err := workload.Run(workload.Spec{
		Scheme: workload.SchemeFoMPISpin, P: 8, Iters: 10, Warmup: -1,
		Workload: &workload.CounterCompute{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Extra["counter"]; got != float64(8*10) {
		t.Errorf("counter=%v want 80", got)
	}
}

func TestRunDirectEntriesOnlyRMAMCS(t *testing.T) {
	rep, err := workload.Run(workload.Spec{Scheme: workload.SchemeRMAMCS, P: 32, Iters: 20})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DirectEntries <= 0 {
		t.Errorf("RMA-MCS at P=32 should take intra-node shortcuts: %+v", rep)
	}
	rep2, err := workload.Run(workload.Spec{Scheme: workload.SchemeDMCS, P: 32, Iters: 20})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.DirectEntries != 0 {
		t.Errorf("D-MCS DirectEntries=%d want 0", rep2.DirectEntries)
	}
}

func TestByNameHelpers(t *testing.T) {
	for _, name := range workload.WorkloadNames {
		if _, err := workload.ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := workload.ByName("bogus"); err == nil {
		t.Error("want error for bogus workload")
	}
	for _, name := range workload.ProfileNames {
		pr, err := workload.ProfileByName(name, workload.ProfileOpts{Locks: 4, FW: 0.2})
		if err != nil {
			t.Errorf("ProfileByName(%q): %v", name, err)
			continue
		}
		if pr.Name() != name {
			t.Errorf("ProfileByName(%q).Name()=%q", name, pr.Name())
		}
		if pr.Locks() != 4 {
			t.Errorf("ProfileByName(%q).Locks()=%d want 4", name, pr.Locks())
		}
	}
	if _, err := workload.ProfileByName("bogus", workload.ProfileOpts{}); err == nil {
		t.Error("want error for bogus profile")
	}
}

func TestZipfSkew(t *testing.T) {
	// Lock 0 must be the clear favourite under Zipf skew: count the
	// first-lock share over a run with many iterations.
	z := workload.NewZipf(16, 1.2, 0)
	rep, err := workload.Run(workload.Spec{
		Scheme: workload.SchemeFoMPIRW, P: 8, Iters: 100, Warmup: -1, Profile: z,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 800 {
		t.Fatalf("Ops=%d", rep.Ops)
	}
	// Indirect check: the run completed with 16 locks and pure readers;
	// direct distribution checks live below without the harness.
	counts := make([]int, 16)
	// Sample the generator directly through a tiny machine run.
	rep2, err := workload.Run(workload.Spec{
		Scheme: workload.SchemeFoMPIRW, P: 1, ProcsPerNode: 1, Iters: 2000, Warmup: -1,
		Profile:  z,
		Workload: countingWorkload{counts: counts},
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = rep2
	if counts[0] <= counts[15]*2 {
		t.Errorf("zipf skew too flat: first=%d last=%d", counts[0], counts[15])
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 2000 {
		t.Errorf("total=%d want 2000", total)
	}
}

// countingWorkload tallies which lock index each iteration targeted.
type countingWorkload struct{ counts []int }

func (countingWorkload) Name() string                           { return "counting" }
func (countingWorkload) Setup(*rma.Machine)                     {}
func (w countingWorkload) Body(p *rma.Proc, in workload.Intent) { w.counts[in.Lock]++ }
func (countingWorkload) Extract(*rma.Machine, *workload.Report) {}

func TestSkipRankStartUsesAlignedClock(t *testing.T) {
	// When rank 0 sits out (it hosts the DHT benchmark's volume), it is
	// still the rank that samples the measured-phase start time — which
	// must be the post-barrier aligned clock, not its pre-barrier arrival
	// time. If it were not, the makespan would absorb the other ranks'
	// warm-up phase: pinning makespan/throughput as invariant under the
	// warm-up length proves the start really is taken after clocks
	// align. (foMPI-Spin with an uncontended single participant looking
	// up keys in an empty table costs the same whichever keys it draws,
	// so the measured phase is identical however many warm-up cycles
	// ran.)
	run := func(warmup int) workload.Report {
		rep, err := workload.Run(workload.Spec{
			Scheme: workload.SchemeFoMPISpin, P: 2, Iters: 20, Warmup: warmup,
			Profile: workload.Uniform{FW: 0}, Workload: &workload.DHTOps{},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	noWarm, warm := run(-1), run(25)
	if noWarm.Ops != 20 || warm.Ops != 20 {
		t.Fatalf("ops: %d, %d want 20 (only rank 1 participates)", noWarm.Ops, warm.Ops)
	}
	if warm.WarmupOps != 25 {
		t.Errorf("WarmupOps=%d want 25", warm.WarmupOps)
	}
	if warm.MakespanMs != noWarm.MakespanMs {
		t.Errorf("makespan absorbed the warm-up phase: %v ms (warmup=25) vs %v ms (no warmup)",
			warm.MakespanMs, noWarm.MakespanMs)
	}
	if warm.ThroughputMops != noWarm.ThroughputMops {
		t.Errorf("throughput depends on warm-up length: %v vs %v",
			warm.ThroughputMops, noWarm.ThroughputMops)
	}
	if warm.MaxClock <= noWarm.MaxClock {
		t.Errorf("warm-up must still extend total virtual time: %d <= %d",
			warm.MaxClock, noWarm.MaxClock)
	}
	// Throughput and makespan must describe the same interval.
	wantMops := float64(warm.Ops) / (warm.MakespanMs * 1e3)
	if d := warm.ThroughputMops - wantMops; d > 1e-9 || d < -1e-9 {
		t.Errorf("throughput %v inconsistent with makespan (want %v)", warm.ThroughputMops, wantMops)
	}
}

// TestRMARWReaderTailStarvation pins where the reader tail-starvation
// of the paper's RMA-RW protocol (internal/model's
// TestKnownLimitationReaderTailStarvation) bites at full size: 64
// ranks, 2% writers, 60 iterations, one counter per two ranks, T_L,2 =
// 4 and T_R = 20 end with every live rank blocked, on both engines.
// T_R far above the readers per counter is therefore no guarantee: on
// this cell T_R = 2, 5 and 20 deadlock while 50 and 100 complete, and
// EXPERIMENTS.md records T_R = 50 deadlocking on claim C6's cells. If a
// protocol change makes this cell complete, this test says so.
func TestRMARWReaderTailStarvation(t *testing.T) {
	for _, engine := range []string{"fast", "ref"} {
		_, err := workload.Run(workload.Spec{
			Scheme: "RMA-RW", P: 64, ProcsPerNode: 16, Seed: 1, Iters: 60,
			Profile:  workload.Uniform{NumLocks: 1, FW: 0.02},
			Tunables: scheme.Tunables{"TDC": 2, "TL2": 4, "TR": 20},
			Engine:   engine,
		})
		if !errors.Is(err, sim.ErrDeadlock) {
			t.Errorf("engine %s: err = %v, want sim.ErrDeadlock", engine, err)
		}
	}
}
