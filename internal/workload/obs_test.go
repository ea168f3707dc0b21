package workload

import (
	"os"
	"testing"

	"rmalocks/internal/obs"
	"rmalocks/internal/rma"
)

// obsSpec is the shared cell of the observe-never-perturb tests: every
// rank contends for one lock, so ranks block and are woken.
func obsSpec(engine string, m *obs.Registry) Spec {
	return Spec{
		Scheme:  SchemeRMAMCS,
		P:       32,
		Iters:   20,
		Profile: Uniform{FW: 1},
		Engine:  engine,
		Obs:     m,
	}
}

// TestObsNeverPerturbs is the tentpole invariant: with observability
// attached, every engine produces a report byte-identical (by
// fingerprint) to its unobserved run, and no metric key leaks into
// Report.Extra — while the instruments did record the run: one span per
// phase and one count per measured cycle. The identity matrix's obs rows
// cannot see the latter, so this test stays.
func TestObsNeverPerturbs(t *testing.T) {
	for _, engine := range []string{"", rma.EngineRef} {
		name := engine
		if name == "" {
			name = "fast"
		}
		t.Run(name, func(t *testing.T) {
			bare, err := Run(obsSpec(engine, nil))
			if err != nil {
				t.Fatal(err)
			}
			m := obs.NewRegistry()
			observed, err := Run(obsSpec(engine, m))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := observed.Fingerprint(), bare.Fingerprint(); got != want {
				t.Fatalf("obs-on fingerprint %s != obs-off %s", got, want)
			}
			for k := range observed.Extra {
				switch k {
				case "heap_bytes_per_rank", "sys_bytes_per_rank", "goroutines", "gc_pause_total_ns":
					t.Fatalf("metric key %q leaked into Report.Extra", k)
				}
			}
			snap := m.Snapshot()
			for _, phase := range []string{"setup", "run", "drain"} {
				if snap.Phases[phase].Spans != 1 {
					t.Fatalf("phases = %+v, want one %s span", snap.Phases, phase)
				}
			}
			if got := snap.Counters["cell_iters_done_total"]; got != 32*20 {
				t.Fatalf("cell_iters_done_total = %d, want %d", got, 32*20)
			}
		})
	}
}

// TestMemStatsRuntimeSignals checks the -memstats extension: the
// runtime/metrics signals land in Extra with plausible values.
func TestMemStatsRuntimeSignals(t *testing.T) {
	spec := obsSpec("", nil)
	spec.MemStats = true
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	g, ok := rep.Extra["goroutines"]
	if !ok || g < 1 {
		t.Fatalf("Extra[goroutines] = %v (ok=%v), want >= 1", g, ok)
	}
	if _, ok := rep.Extra["gc_pause_total_ns"]; !ok {
		t.Fatal("Extra[gc_pause_total_ns] missing")
	}
	if _, ok := rep.Extra["heap_bytes_per_rank"]; !ok {
		t.Fatal("Extra[heap_bytes_per_rank] missing")
	}
}

// TestLazyGoroutines asserts the lazy-goroutine claim with the new
// runtime signal: after a P-rank single-lock run, the live goroutine
// count in Extra["goroutines"] stays orders of magnitude below P —
// ranks that finished released their goroutines, and ranks mostly ran
// one after another. Default P is 2^14 to keep tier-1 fast; set
// RMALOCKS_MILLION=1 to assert the full 2^20-rank claim (the
// `make million-smoke` shape, ~minutes on one core).
func TestLazyGoroutines(t *testing.T) {
	p := 1 << 14
	if os.Getenv("RMALOCKS_MILLION") != "" {
		p = 1 << 20
	}
	rep, err := Run(Spec{
		Scheme:   SchemeRMAMCS,
		P:        p,
		Iters:    1,
		Warmup:   -1,
		Profile:  Uniform{FW: 1},
		MemStats: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := rep.Extra["goroutines"]
	if g <= 0 {
		t.Fatalf("Extra[goroutines] = %v, want > 0", g)
	}
	if limit := float64(p) / 16; g >= limit {
		t.Fatalf("goroutines = %v at P=%d, want < %v (lazy-goroutine claim)", g, p, limit)
	}
}
