package workload_test

// Trace-wiring tests: the trace-derived report fields, their gating
// (untraced reports must be byte-identical to pre-trace ones), and the
// acceptance assertion of the paper's locality claim — RMA-MCS's
// locality thresholds must yield a strictly higher intra-element
// handoff fraction than the FIFO D-MCS queue on the same contended
// cell.

import (
	"strings"
	"testing"

	"rmalocks/internal/trace"
	"rmalocks/internal/workload"
)

// contendedSpec is one single-lock, all-write, fully contended cell on
// a 4-node machine: every acquisition fights every rank, so handoff
// order is entirely up to the lock's policy.
func contendedSpec(scheme string, sink *trace.Sink) workload.Spec {
	return workload.Spec{
		Scheme: scheme,
		P:      32, ProcsPerNode: 8,
		Seed:     7,
		Iters:    60,
		Profile:  workload.Uniform{FW: 1},
		Workload: workload.Empty{},
		Trace:    sink,
	}
}

// TestHandoffLocalityRMAMCSBeatsDMCS is the paper's central locality
// claim made measurable: on the same contended grid cell, RMA-MCS
// (T_L passes inside the element before releasing upward) must show a
// strictly higher intra-element handoff fraction than the
// topology-oblivious D-MCS FIFO queue.
func TestHandoffLocalityRMAMCSBeatsDMCS(t *testing.T) {
	frac := func(scheme string) (float64, []int64) {
		sink := trace.New(trace.ClassLock)
		rep, err := workload.Run(contendedSpec(scheme, sink))
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if rep.HandoffLocality == nil {
			t.Fatalf("%s: traced run missing HandoffLocality", scheme)
		}
		// Intra-element = distance < MaxDistance (0: same rank, 1: same
		// node on the two-level machine).
		cutoff := len(rep.HandoffLocality) - 2
		return trace.FractionAtMost(rep.HandoffLocality, cutoff), rep.HandoffLocality
	}
	mcsFrac, mcsHist := frac(workload.SchemeRMAMCS)
	dmcsFrac, dmcsHist := frac(workload.SchemeDMCS)
	t.Logf("RMA-MCS intra-element fraction %.3f (hist %v), D-MCS %.3f (hist %v)",
		mcsFrac, mcsHist, dmcsFrac, dmcsHist)
	if !(mcsFrac > dmcsFrac) {
		t.Fatalf("locality claim violated: RMA-MCS intra fraction %.3f not > D-MCS %.3f",
			mcsFrac, dmcsFrac)
	}
}

// TestTraceReportFields checks the traced report surface: fairness in
// (0, 1], a histogram whose mass equals the measured handoffs, and a
// stream that passes replay validation end to end.
func TestTraceReportFields(t *testing.T) {
	sink := trace.New(trace.ClassSemantic)
	rep, err := workload.Run(contendedSpec(workload.SchemeRMAMCS, sink))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fairness <= 0 || rep.Fairness > 1 {
		t.Fatalf("Fairness = %v, want in (0, 1]", rep.Fairness)
	}
	var handoffs int64
	for _, c := range rep.HandoffLocality {
		handoffs += c
	}
	if handoffs <= 0 {
		t.Fatalf("empty handoff histogram: %v", rep.HandoffLocality)
	}
	// The full stream (warm-up included) must replay cleanly: matched
	// acquire/release pairs, mutual exclusion, canonical order.
	if err := trace.Validate(sink.Events()); err != nil {
		t.Fatalf("replay validation failed: %v", err)
	}

	// Untraced run of the same spec: identical everywhere except the
	// trace-only fields.
	untraced, err := workload.Run(contendedSpec(workload.SchemeRMAMCS, nil))
	if err != nil {
		t.Fatal(err)
	}
	if untraced.Fairness != 0 || untraced.HandoffLocality != nil {
		t.Fatalf("untraced report carries trace fields: %+v", untraced)
	}
	stripped := rep
	stripped.Fairness = 0
	stripped.HandoffLocality = nil
	if stripped.Fingerprint() != untraced.Fingerprint() {
		t.Fatalf("tracing changed the simulation:\ntraced:   %s\nuntraced: %s",
			stripped.Fingerprint(), untraced.Fingerprint())
	}

	// Traced runs are deterministic including the trace-derived fields.
	rep2, err := workload.Run(contendedSpec(workload.SchemeRMAMCS, trace.New(trace.ClassSemantic)))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Fingerprint() != rep.Fingerprint() {
		t.Fatalf("traced fingerprint not reproducible:\n a: %s\n b: %s",
			rep.Fingerprint(), rep2.Fingerprint())
	}
}

// TestFingerprintTraceGatingAndExtraOrder pins Fingerprint determinism
// for the new fields: the Extra map encodes in sorted-key order
// regardless of insertion order, untraced fingerprints contain no trace
// section (so pre-trace baselines keep matching byte-for-byte), and
// traced fingerprints include both new fields.
func TestFingerprintTraceGatingAndExtraOrder(t *testing.T) {
	base := workload.Report{Scheme: "s", Workload: "w", Profile: "p", P: 4}

	a := base
	a.Extra = map[string]float64{}
	a.Extra["stored"] = 12
	a.Extra["overflows"] = 1
	a.Extra["counter"] = 3
	b := base
	b.Extra = map[string]float64{}
	b.Extra["counter"] = 3
	b.Extra["overflows"] = 1
	b.Extra["stored"] = 12
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("Extra insertion order leaked into the fingerprint:\n a: %s\n b: %s",
			a.Fingerprint(), b.Fingerprint())
	}
	if !strings.Contains(a.Fingerprint(), "counter=3;overflows=1;stored=12;") {
		t.Fatalf("Extra keys not sorted: %s", a.Fingerprint())
	}

	if fp := base.Fingerprint(); strings.Contains(fp, "fair=") {
		t.Fatalf("untraced fingerprint must not carry trace fields: %s", fp)
	}
	traced := base
	traced.Fairness = 0.5
	traced.HandoffLocality = []int64{1, 2, 3}
	fp := traced.Fingerprint()
	if !strings.Contains(fp, "fair=0.5") || !strings.Contains(fp, "hloc=[1 2 3]") {
		t.Fatalf("traced fingerprint missing trace fields: %s", fp)
	}
	// A traced run with zero measured handoffs still differs from an
	// untraced one (non-nil empty histogram keeps the gate on).
	tracedEmpty := base
	tracedEmpty.HandoffLocality = []int64{}
	if tracedEmpty.Fingerprint() == base.Fingerprint() {
		t.Fatal("traced-with-no-handoffs fingerprint must still be marked as traced")
	}
}

// TestHandoffCounts pins how often the token changes hands per scheme on
// the spin-contended shape (P=64, one lock, all writers), lazily and under
// the eager oracle, and how many of the lazy run's hand-offs the scheduler
// serves inline: a rank parked in a poll whose try fails at that turn, so
// nobody switches into its coroutine. The counts are exact — a run is a
// pure function of its spec — so a change that brings per-charge yields
// back, quietly alters a protocol's operation sequence, or makes a retry
// loop switch again fails here by name and not by timing. Lazy publication
// only ever removes hand-offs, and on the two centralized locks, whose
// acquire is CAS, Flush, back-off, retry, it removes at least two in five;
// of those that are left, three in four are a failed try. The eager oracle
// runs every poll as the loop it stands for and serves nothing inline.
func TestHandoffCounts(t *testing.T) {
	want := map[string]struct{ eager, lazy, inline int }{
		workload.SchemeFoMPISpin: {18659, 9453, 7113},
		workload.SchemeFoMPIRW:   {32931, 18624, 16252},
		workload.SchemeDMCS:      {5594, 4829, 0},
		workload.SchemeRMAMCS:    {6833, 6190, 0},
		workload.SchemeRMARW:     {6960, 6292, 0},
	}
	for _, scheme := range workload.Schemes {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			t.Parallel()
			spec := spinCell(scheme, 64)
			lazy, inline, acquires := handoffs(t, spec)
			spec.NoCoalesce = true
			eager, eagerInline, _ := handoffs(t, spec)
			t.Logf("hand-offs per acquire: eager %.1f, lazy %.1f, %.1f of them inline (%d acquires)",
				float64(eager)/float64(acquires), float64(lazy)/float64(acquires), float64(inline)/float64(acquires), acquires)
			if w := want[scheme]; eager != w.eager || lazy != w.lazy || inline != w.inline {
				t.Errorf("hand-offs eager %d lazy %d (%d inline), pinned %d and %d (%d)", eager, lazy, inline, w.eager, w.lazy, w.inline)
			}
			if eagerInline != 0 {
				t.Errorf("the eager oracle served %d hand-offs inline: it is to run the plain loop", eagerInline)
			}
			if lazy > eager {
				t.Errorf("lazy run handed the token over %d times, the eager one %d", lazy, eager)
			}
			centralized := scheme == workload.SchemeFoMPISpin || scheme == workload.SchemeFoMPIRW
			if centralized && 10*lazy > 6*eager {
				t.Errorf("lazy hand-offs %d are more than 0.6 of eager %d", lazy, eager)
			}
			if centralized && 4*inline < 3*lazy {
				t.Errorf("%d of %d lazy hand-offs served inline, less than three in four", inline, lazy)
			}
		})
	}
}
