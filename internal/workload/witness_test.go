package workload_test

import (
	"testing"

	"rmalocks/internal/scheme"
	"rmalocks/internal/workload"
)

// TestWitness pins what a run's witness admits and when there is none.
// Whether an admitted sibling really runs the same is the sweep
// package's differential test (TestDerivedCellsEqualColdRuns).
func TestWitness(t *testing.T) {
	run := func(spec workload.Spec) workload.Witness {
		t.Helper()
		spec.P, spec.Iters = 32, 10
		_, w, err := workload.RunWitness(spec)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	rw := run(workload.Spec{Scheme: "RMA-RW", Profile: workload.Uniform{FW: 0.1},
		Tunables: scheme.Tunables{"TR": 500, "TL1": 16}})
	mcs := run(workload.Spec{Scheme: "RMA-MCS", Tunables: scheme.Tunables{"TL2": 8}})
	harness := run(workload.Spec{Scheme: "RMA-RW", Profile: workload.Uniform{FW: 0.1}})
	for _, tc := range []struct {
		name  string
		w     workload.Witness
		t     scheme.Tunables
		admit bool
	}{
		{"its own tunables", rw, scheme.Tunables{"TR": 500, "TL1": 16}, true},
		{"a T_R no counter reached", rw, scheme.Tunables{"TR": 6000, "TL1": 16}, true},
		{"a T_R a counter reached", rw, scheme.Tunables{"TR": 1, "TL1": 16}, false},
		{"T_DC is not a threshold", rw, scheme.Tunables{"TR": 500, "TL1": 16, "TDC": 1}, false},
		{"T_DC at its default", rw, scheme.Tunables{"TR": 500, "TL1": 16, "TDC": 16}, true},
		{"a value the registry rejects", rw, scheme.Tunables{"TR": 0, "TL1": 16}, false},
		{"a key the registry rejects", rw, scheme.Tunables{"TR": 500, "TL1": 16, "TX": 1}, false},
		{"a level the machine lacks", rw, scheme.Tunables{"TR": 500, "TL1": 16, "TL3": 4}, false},
		{"RMA-MCS never reads T_L,1", mcs, scheme.Tunables{"TL1": 1, "TL2": 8}, true},
		{"RMA-MCS T_L,2 binds", mcs, scheme.Tunables{"TL2": 1}, false},
		{"the harness's T_L completion", harness, nil, true},
		{"the completion spelled out", harness, scheme.Tunables{"TL1": 40, "TL2": 25}, true},
		// One T_L key turns the completion off: T_L,2 is then the
		// scheme's default 32, inside the box because no node's queue
		// passed the lock 25 times in a row.
		{"no completion", harness, scheme.Tunables{"TL1": 40}, true},
		{"every default spelled out", harness, scheme.Tunables{"TL2": 25, "TL1": 40, "TR": 1000, "TDC": 0}, true},
	} {
		if got := tc.w.Judge().Admits(tc.t); got != tc.admit {
			t.Errorf("%s: witness admits %v = %v, want %v", tc.name, tc.t, got, tc.admit)
		}
	}

	for _, spec := range []workload.Spec{
		{Scheme: "foMPI-Spin"},
		{Scheme: workload.SchemeFoMPIA, Workload: &workload.DHTOps{}},
	} {
		if run(spec).Scheme != "" {
			t.Errorf("%s: a witness, want none", spec.Scheme)
		}
	}
	if _, w, err := workload.RunWitness(workload.Spec{Scheme: "RMA-RW", P: 32, TimeLimit: 1000}); err == nil || w.Scheme != "" {
		t.Errorf("a run over its time limit: err %v, witness %q; want an error and none", err, w.Canonical())
	}
}

// TestWitnessText pins the witness's one text form: a run's witness
// renders, parses back to a witness that admits what it admitted, and
// renders to the same bytes; any other spelling is refused.
func TestWitnessText(t *testing.T) {
	_, w, err := workload.RunWitness(workload.Spec{Scheme: "RMA-RW", P: 32, Iters: 10,
		Profile: workload.Uniform{FW: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	text := w.Canonical()
	back, err := workload.ParseWitness(text)
	if err != nil || back.Canonical() != text {
		t.Fatalf("ParseWitness(%q) = %q, %v", text, back.Canonical(), err)
	}
	parsed, ran := back.Judge(), w.Judge()
	for _, tun := range []scheme.Tunables{nil, {"TR": 6000}, {"TR": 1}, {"TDC": 1}} {
		if parsed.Admits(tun) != ran.Admits(tun) {
			t.Errorf("parsed witness admits %v = %v, the run's %v", tun, parsed.Admits(tun), ran.Admits(tun))
		}
	}
	if z, err := workload.ParseWitness(""); err != nil || z.Scheme != "" || z.Judge().Admits(nil) {
		t.Errorf(`ParseWitness("") = %+v, %v; want the zero witness, admitting nothing`, z, err)
	}
	for _, bad := range []string{
		"RMA-RW P=+32 ppn=16 TDC=16",                           // a sign
		"RMA-RW ppn=16 P=32 TDC=16",                            // order
		"RMA-RW P=32 ppn=16 TDC=16 TR=5..1",                    // an empty box
		"RMA-RW P=32 ppn=16 TDC=16 TW=1..2 TR=1..2",            // box order
		"RMA-RW P=32 ppn=16 TDC=16 TR=1..2 TR=1..2",            // a box twice
		"RMA-RW P=32 ppn=16 TDC=16 TR=1..2 ",                   // trailing space
		"RMA-RW  P=32 ppn=16 TDC=16",                           // double space
		"RMA-RW P=32 ppn=16 TDC=16 TR=01..2",                   // a leading zero
		"P=32 ppn=16 TDC=16 TR=1..2",                           // no scheme
		"RMA-RW P=32 ppn=16 TDC=16 TR=1-2",                     // not a range
		"RMA-RW P=32 ppn=16 TDC=16 =1..2",                      // no key
		"RMA-RW P=32 ppn=16 TDC=16 TR=1..99999999999999999999", // out of range
	} {
		if _, err := workload.ParseWitness(bad); err == nil {
			t.Errorf("ParseWitness(%q) accepted a non-canonical witness", bad)
		}
	}
}

// FuzzWitness: ParseWitness never panics, a witness it accepts renders
// back to the input byte for byte, and Admits never panics on one —
// whatever machine, scheme or boxes it names. The checked-in corpus
// holds witnesses of real runs and near misses of the text form.
func FuzzWitness(f *testing.F) {
	tuns := []scheme.Tunables{nil, {"TR": 500}, {"TL1": 4, "TL2": 8, "TDC": 1}, {"TR": 0}, {"TL3": 2}}
	f.Fuzz(func(t *testing.T, s string) {
		w, err := workload.ParseWitness(s)
		if err != nil {
			return
		}
		if c := w.Canonical(); c != s {
			t.Fatalf("ParseWitness(%q) re-renders as %q", s, c)
		}
		j := w.Judge()
		for _, tun := range tuns {
			j.Admits(tun)
		}
	})
}
