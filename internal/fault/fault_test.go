package fault

import (
	"errors"
	"testing"
)

func TestParseFull(t *testing.T) {
	p, err := Parse("jitter=0.2,stragglers=4x1%,stall=50us@0.01,congest=3x0.25,timeout=200us,retries=3,onexhaust=abort,seed=42")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	want := Profile{
		Seed: 42, Jitter: 0.2,
		CongestFactor: 3, CongestDuty: 0.25, CongestPeriod: DefaultCongestPeriod,
		StragglerFactor: 4, StragglerFrac: 0.01,
		Stall: 50_000, StallProb: 0.01,
		Timeout: 200_000, Retries: 3, AbortOnExhaust: true,
	}
	if *p != want {
		t.Fatalf("Parse = %+v, want %+v", *p, want)
	}
}

func TestParseDefaults(t *testing.T) {
	p, err := Parse("timeout=1ms,stall=2us")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if p.Retries != DefaultRetries {
		t.Errorf("Retries = %d, want default %d", p.Retries, DefaultRetries)
	}
	if p.StallProb != 1 {
		t.Errorf("StallProb = %v, want 1 (bare stall)", p.StallProb)
	}
	if p.Timeout != 1_000_000 || p.Stall != 2_000 {
		t.Errorf("durations: timeout=%d stall=%d", p.Timeout, p.Stall)
	}
}

func TestCanonicalRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"",
		"jitter=0.2",
		"jitter=0.2,stragglers=4x1%,stall=50us@0.01",
		"congest=3x0.25@2ms,timeout=200us,retries=0,onexhaust=abort",
		"seed=7,stall=1us",
	} {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		canon := p.Canonical()
		p2, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(Canonical(%q) = %q): %v", spec, canon, err)
		}
		if *p2 != *p {
			t.Errorf("round trip %q → %q: %+v != %+v", spec, canon, *p2, *p)
		}
		if p2.Canonical() != canon {
			t.Errorf("Canonical not a fixed point: %q → %q", canon, p2.Canonical())
		}
	}
}

func TestParseTypedErrors(t *testing.T) {
	var unk *UnknownKeyError
	if _, err := Parse("jitterr=0.2"); !errors.As(err, &unk) {
		t.Fatalf("unknown key: got %v, want *UnknownKeyError", err)
	} else if unk.Key != "jitterr" || len(unk.Have) == 0 {
		t.Errorf("UnknownKeyError = %+v", unk)
	}
	var val *ValueError
	for _, spec := range []string{
		"jitter=-1", "jitter=nope", "jitter", "jitter=",
		"congest=0.5x0.25", "congest=3x1.5", "congest=3x0.25@0ns",
		"stragglers=4x0", "stragglers=0.5x1%",
		"stall=0", "stall=50us@2",
		"timeout=-5", "retries=-1", "onexhaust=panic",
		"seed=x",
	} {
		if _, err := Parse(spec); !errors.As(err, &val) {
			t.Errorf("Parse(%q): got %v, want *ValueError", spec, err)
		}
	}
}

func TestPerturbDeterministicAndAdditive(t *testing.T) {
	p, err := Parse("jitter=0.3,stragglers=4x25%,stall=50us@0.2,congest=3x0.25")
	if err != nil {
		t.Fatal(err)
	}
	a := NewInjector(p, 11, 64)
	b := NewInjector(p, 11, 64)
	if a == nil {
		t.Fatal("NewInjector returned nil for a perturbing profile")
	}
	sawStall, sawJitter := false, false
	for rank := 0; rank < 64; rank += 7 {
		for idx := uint64(0); idx < 200; idx++ {
			clock := int64(idx) * 1717
			const rtt, occ = 1000, 50
			r1, o1, s1 := a.Perturb(rank, idx, clock, 2, rank, rtt, occ)
			r2, o2, s2 := b.Perturb(rank, idx, clock, 2, rank, rtt, occ)
			if r1 != r2 || o1 != o2 || s1 != s2 {
				t.Fatalf("non-deterministic at rank=%d idx=%d", rank, idx)
			}
			if r1 < rtt || o1 < occ || s1 < 0 {
				t.Fatalf("perturbation not additive: rtt %d<%d occ %d<%d stall %d", r1, rtt, o1, occ, s1)
			}
			sawStall = sawStall || s1 > 0
			sawJitter = sawJitter || r1 > rtt
		}
	}
	if !sawStall || !sawJitter {
		t.Errorf("expected some stalls (%v) and jitter (%v) over the sample", sawStall, sawJitter)
	}
}

func TestStragglerFraction(t *testing.T) {
	p, _ := Parse("stragglers=4x25%")
	in := NewInjector(p, 1, 4096)
	n := 0
	for r := 0; r < 4096; r++ {
		if in.Straggler(r) {
			n++
		}
	}
	frac := float64(n) / 4096
	if frac < 0.15 || frac > 0.35 {
		t.Errorf("straggler fraction = %v, want ~0.25", frac)
	}
	// Different machine seed → different membership.
	in2 := NewInjector(p, 2, 4096)
	same := 0
	for r := 0; r < 4096; r++ {
		if in.Straggler(r) == in2.Straggler(r) {
			same++
		}
	}
	if same == 4096 {
		t.Error("straggler set identical across machine seeds")
	}
}

func TestNewInjectorNilForTimeoutOnly(t *testing.T) {
	p, _ := Parse("timeout=200us")
	if NewInjector(p, 1, 8) != nil {
		t.Error("timeout-only profile should not compile an injector")
	}
	if NewInjector(nil, 1, 8) != nil {
		t.Error("nil profile should not compile an injector")
	}
	if p.Perturbs() {
		t.Error("timeout-only profile should not report Perturbs")
	}
}

// FuzzParseCanonical: a spec Parse accepts renders to a Canonical form
// that parses back to the same profile and renders to itself; a spec it
// rejects fails with a typed error, never a panic. The checked-in corpus
// holds TestParseFull's and TestCanonicalRoundTrip's specs.
func FuzzParseCanonical(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			var unk *UnknownKeyError
			var val *ValueError
			if !errors.As(err, &unk) && !errors.As(err, &val) {
				t.Fatalf("Parse(%q): untyped error %T: %v", spec, err, err)
			}
			return
		}
		canon := p.Canonical()
		p2, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(Canonical(%q) = %q): %v", spec, canon, err)
		}
		if *p2 != *p {
			t.Fatalf("round trip %q → %q: %+v != %+v", spec, canon, *p2, *p)
		}
		if c2 := p2.Canonical(); c2 != canon {
			t.Fatalf("Canonical not a fixed point: %q → %q", canon, c2)
		}
	})
}
