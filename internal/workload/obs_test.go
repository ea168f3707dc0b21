package workload

import (
	"os"
	"runtime"
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
// fingerprint, which covers Report.Extra) to its unobserved run — while
// the instruments did record the run: one span per phase and one count
// per measured cycle. The identity matrix's obs rows
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

// TestLazyGoroutines asserts the lazy-goroutine claim: after a P-rank
// single-lock run, the process's live goroutine count stays orders of
// magnitude below P — ranks that finished released their goroutines,
// and ranks mostly ran one after another. Default P is 2^14 to keep
// tier-1 fast; set RMALOCKS_MILLION=1 to assert the full 2^20-rank
// claim (the `make million-smoke` shape, ~minutes on one core).
func TestLazyGoroutines(t *testing.T) {
	p := 1 << 14
	if os.Getenv("RMALOCKS_MILLION") != "" {
		p = 1 << 20
	}
	if _, err := Run(Spec{
		Scheme:  SchemeRMAMCS,
		P:       p,
		Iters:   1,
		Warmup:  -1,
		Profile: Uniform{FW: 1},
	}); err != nil {
		t.Fatal(err)
	}
	g := runtime.NumGoroutine()
	if limit := p / 16; g >= limit {
		t.Fatalf("goroutines = %v at P=%d, want < %v (lazy-goroutine claim)", g, p, limit)
	}
}
