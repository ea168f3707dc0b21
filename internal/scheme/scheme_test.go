package scheme_test

// Registry conformance suite: the registered schemes' tunable defaults
// must match the paper's (T_L,i = 32, T_R = 1000, T_DC = one counter
// per compute node), validation must reject unknown and out-of-range
// tunables with typed errors, and lookup must be case-insensitive and
// alias-aware.

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"rmalocks/internal/locks"
	"rmalocks/internal/locks/dmcs"
	"rmalocks/internal/locks/fompi"
	"rmalocks/internal/locks/rmamcs"
	"rmalocks/internal/locks/rmarw"
	"rmalocks/internal/rma"
	"rmalocks/internal/scheme"
	"rmalocks/internal/topology"
)

func TestRegistryEnumeration(t *testing.T) {
	want := []string{"foMPI-Spin", "D-MCS", "RMA-MCS", "foMPI-RW", "RMA-RW"}
	if got := scheme.Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("Names() = %v, want %v", got, want)
	}
	if got, want := scheme.Mutexes(), []string{"foMPI-Spin", "D-MCS", "RMA-MCS"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Mutexes() = %v, want %v", got, want)
	}
	if got, want := scheme.RWCapable(), []string{"foMPI-RW", "RMA-RW"}; !reflect.DeepEqual(got, want) {
		t.Errorf("RWCapable() = %v, want %v", got, want)
	}
}

func TestLookupAliasesAndCase(t *testing.T) {
	for _, name := range []string{"RMA-RW", "rma-rw", "RmA-rW", "rmarw", " rma-rw "} {
		d, err := scheme.Describe(name)
		if err != nil {
			t.Fatalf("Describe(%q): %v", name, err)
		}
		if d.Name != "RMA-RW" {
			t.Errorf("Describe(%q).Name = %q", name, d.Name)
		}
	}
	_, err := scheme.Describe("no-such-lock")
	var unk *scheme.UnknownSchemeError
	if !errors.As(err, &unk) {
		t.Fatalf("Describe(no-such-lock) error = %v, want UnknownSchemeError", err)
	}
	if unk.Name != "no-such-lock" || len(unk.Have) != 5 {
		t.Errorf("UnknownSchemeError = %+v", unk)
	}
}

// TestPaperDefaults pins the declared tunable defaults to the paper's:
// T_L,i = 32 for both topology-aware locks, T_R = 1000, and T_DC
// machine-dependent (one counter per compute node, declared as 0).
func TestPaperDefaults(t *testing.T) {
	spec := func(schemeName, key string) scheme.TunableSpec {
		t.Helper()
		d, err := scheme.Describe(schemeName)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range d.Tunables {
			if s.Key == key {
				return s
			}
		}
		t.Fatalf("%s has no tunable %s", schemeName, key)
		return scheme.TunableSpec{}
	}
	if s := spec("RMA-MCS", "TL"); s.Default != 32 || !s.PerLevel {
		t.Errorf("RMA-MCS TL spec = %+v, want per-level default 32", s)
	}
	if s := spec("RMA-RW", "TL"); s.Default != 32 || !s.PerLevel {
		t.Errorf("RMA-RW TL spec = %+v, want per-level default 32", s)
	}
	if s := spec("RMA-RW", "TR"); s.Default != 1000 {
		t.Errorf("RMA-RW TR default = %d, want 1000", s.Default)
	}
	if s := spec("RMA-RW", "TDC"); s.Default != 0 || !strings.Contains(s.Doc, "compute node") {
		t.Errorf("RMA-RW TDC spec = %+v, want dynamic default documented as one counter per compute node", s)
	}
	for _, name := range []string{"foMPI-Spin", "D-MCS", "foMPI-RW"} {
		d, err := scheme.Describe(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Tunables) != 0 {
			t.Errorf("%s declares tunables %v, want none", name, d.Tunables)
		}
	}
}

// TestEffectiveDefaults builds every scheme with an empty tunable set
// and checks the constructed locks carry the paper's defaults.
func TestEffectiveDefaults(t *testing.T) {
	m := rma.NewMachine(topology.TwoLevel(2, 8))
	l, err := scheme.New(m, "RMA-RW", nil)
	if err != nil {
		t.Fatal(err)
	}
	rw := l.Underlying().(*rmarw.Lock)
	if rw.TDC() != 8 {
		t.Errorf("default TDC = %d, want one counter per node (8)", rw.TDC())
	}
	if rw.TR() != 1000 {
		t.Errorf("default TR = %d, want 1000", rw.TR())
	}
	if rw.TW() != 32*32 {
		t.Errorf("default TW = %d, want 1024 (TL_i = 32)", rw.TW())
	}
	l2, err := scheme.New(m, "RMA-MCS", nil)
	if err != nil {
		t.Fatal(err)
	}
	mcs := l2.Underlying().(*rmamcs.Lock)
	if got := mcs.Tree().TL[2].Value(); got != 32 {
		t.Errorf("RMA-MCS default TL2 = %d, want 32", got)
	}
}

func TestTunablesReachTheLock(t *testing.T) {
	m := rma.NewMachine(topology.TwoLevel(4, 4))
	l, err := scheme.New(m, "rma-rw", scheme.Tunables{"TDC": 2, "TR": 77, "TL1": 3, "TL2": 5})
	if err != nil {
		t.Fatal(err)
	}
	rw := l.Underlying().(*rmarw.Lock)
	if rw.TDC() != 2 || rw.TR() != 77 || rw.TW() != 15 {
		t.Errorf("got TDC=%d TR=%d TW=%d, want 2/77/15", rw.TDC(), rw.TR(), rw.TW())
	}
}

func TestValidationTypedErrors(t *testing.T) {
	m := rma.NewMachine(topology.TwoLevel(2, 4)) // 2 levels

	// Unknown tunable key.
	_, err := scheme.New(m, "RMA-RW", scheme.Tunables{"BOGUS": 1})
	var unkTun *scheme.UnknownTunableError
	if !errors.As(err, &unkTun) || unkTun.Key != "BOGUS" || unkTun.Scheme != "RMA-RW" {
		t.Errorf("BOGUS: err = %v, want UnknownTunableError", err)
	}

	// A tunable another scheme declares is still unknown here.
	_, err = scheme.New(m, "foMPI-Spin", scheme.Tunables{"TR": 100})
	if !errors.As(err, &unkTun) || unkTun.Scheme != "foMPI-Spin" {
		t.Errorf("foMPI-Spin TR: err = %v, want UnknownTunableError", err)
	}

	// A bare per-level base key is not a valid tunable.
	_, err = scheme.New(m, "RMA-RW", scheme.Tunables{"TL": 8})
	if !errors.As(err, &unkTun) {
		t.Errorf("bare TL: err = %v, want UnknownTunableError", err)
	}

	// Only the canonical level spelling is accepted: "TL02" would be
	// validated here but ignored by the constructor's "TL2" lookup.
	_, err = scheme.New(m, "RMA-RW", scheme.Tunables{"TL02": 8})
	if !errors.As(err, &unkTun) {
		t.Errorf("TL02: err = %v, want UnknownTunableError", err)
	}

	// Out-of-range values.
	var rng *scheme.RangeError
	_, err = scheme.New(m, "RMA-RW", scheme.Tunables{"TR": 0})
	if !errors.As(err, &rng) || rng.Key != "TR" || rng.Min != 1 {
		t.Errorf("TR=0: err = %v, want RangeError", err)
	}
	_, err = scheme.New(m, "RMA-RW", scheme.Tunables{"TL2": -4})
	if !errors.As(err, &rng) || rng.Key != "TL2" {
		t.Errorf("TL2=-4: err = %v, want RangeError", err)
	}
	_, err = scheme.New(m, "RMA-RW", scheme.Tunables{"TDC": -1})
	if !errors.As(err, &rng) {
		t.Errorf("TDC=-1: err = %v, want RangeError", err)
	}

	// A level the machine does not have.
	var lvl *scheme.LevelError
	_, err = scheme.New(m, "RMA-RW", scheme.Tunables{"TL3": 8})
	if !errors.As(err, &lvl) || lvl.Level != 3 || lvl.Levels != 2 {
		t.Errorf("TL3: err = %v, want LevelError{Level:3, Levels:2}", err)
	}

	// Check without a machine skips the level bound but not the range.
	if err := scheme.Check("RMA-RW", scheme.Tunables{"TL7": 8}, 0); err != nil {
		t.Errorf("Check levels=0 TL7: %v", err)
	}
	if err := scheme.Check("RMA-RW", scheme.Tunables{"TL7": 0}, 0); !errors.As(err, &rng) {
		t.Errorf("Check levels=0 TL7=0: err = %v, want RangeError", err)
	}
}

func TestCanonicalEncoding(t *testing.T) {
	if got := (scheme.Tunables)(nil).Canonical(); got != "" {
		t.Errorf("nil Canonical = %q", got)
	}
	tun := scheme.Tunables{"TR": 500, "TDC": 4, "TL2": 16}
	if got, want := tun.Canonical(), "TDC=4,TL2=16,TR=500"; got != want {
		t.Errorf("Canonical = %q, want %q", got, want)
	}
	// Clone is independent.
	c := tun.Clone()
	c["TR"] = 9
	if tun["TR"] != 500 {
		t.Error("Clone aliases its source")
	}
}

func TestCapsAndWrapping(t *testing.T) {
	m := rma.NewMachine(topology.TwoLevel(2, 4))
	for _, name := range scheme.Mutexes() {
		l, err := scheme.New(m, name, nil)
		if err != nil {
			t.Fatal(err)
		}
		if l.Caps().Has(scheme.CapRW) || !l.Caps().Has(scheme.CapMutex) {
			t.Errorf("%s caps = %v", name, l.Caps())
		}
		if _, ok := l.Underlying().(locks.Mutex); !ok {
			t.Errorf("%s: Underlying = %T, not a locks.Mutex", name, l.Underlying())
		}
		if l.Name() != name {
			t.Errorf("Name() = %q, want %q", l.Name(), name)
		}
	}
	for _, name := range scheme.RWCapable() {
		l, err := scheme.New(m, name, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !l.Caps().Has(scheme.CapMutex | scheme.CapRW) {
			t.Errorf("%s caps = %v, want Mutex|RW", name, l.Caps())
		}
	}
	if got := (scheme.CapMutex | scheme.CapRW).String(); got != "Mutex|RW" {
		t.Errorf("Caps string = %q", got)
	}
	// The concrete implementations are reachable for statistics.
	l, _ := scheme.New(m, "D-MCS", nil)
	if _, ok := l.Underlying().(*dmcs.Lock); !ok {
		t.Errorf("D-MCS Underlying = %T", l.Underlying())
	}
	l, _ = scheme.New(m, "foMPI-Spin", nil)
	if _, ok := l.Underlying().(*fompi.SpinLock); !ok {
		t.Errorf("foMPI-Spin Underlying = %T", l.Underlying())
	}
}

func TestRegisterRejectsMalformedAndDuplicate(t *testing.T) {
	newFn := func(m *rma.Machine, tun scheme.Tunables) (scheme.Lock, error) { return nil, nil }
	cases := []struct {
		name string
		d    scheme.Descriptor
	}{
		{"empty name", scheme.Descriptor{New: newFn, Caps: scheme.CapMutex}},
		{"nil New", scheme.Descriptor{Name: "x1", Caps: scheme.CapMutex}},
		{"no mutex cap", scheme.Descriptor{Name: "x2", New: newFn, Caps: scheme.CapRW}},
		{"duplicate", scheme.Descriptor{Name: "RMA-RW", New: newFn, Caps: scheme.CapMutex}},
		{"duplicate alias", scheme.Descriptor{Name: "x3", Aliases: []string{"dmcs"}, New: newFn, Caps: scheme.CapMutex}},
		{"empty tunable key", scheme.Descriptor{Name: "x4", New: newFn, Caps: scheme.CapMutex,
			Tunables: []scheme.TunableSpec{{}}}},
		{"per-level digit key", scheme.Descriptor{Name: "x5", New: newFn, Caps: scheme.CapMutex,
			Tunables: []scheme.TunableSpec{{Key: "TL2", PerLevel: true, Min: 1, Max: 2}}}},
		{"min above max", scheme.Descriptor{Name: "x6", New: newFn, Caps: scheme.CapMutex,
			Tunables: []scheme.TunableSpec{{Key: "K", Min: 5, Max: 1}}}},
		{"default out of range", scheme.Descriptor{Name: "x7", New: newFn, Caps: scheme.CapMutex,
			Tunables: []scheme.TunableSpec{{Key: "K", Default: 9, Min: 1, Max: 5}}}},
		{"duplicate tunable key", scheme.Descriptor{Name: "x8", New: newFn, Caps: scheme.CapMutex,
			Tunables: []scheme.TunableSpec{{Key: "K", Min: 1, Max: 5}, {Key: "K", Min: 1, Max: 5}}}},
	}
	for _, tc := range cases {
		if err := scheme.Register(tc.d); err == nil {
			t.Errorf("Register(%s) accepted a malformed descriptor", tc.name)
		}
	}
	// The registry is unchanged after every rejection.
	if got := scheme.Names(); len(got) != 5 {
		t.Errorf("registry polluted by rejected registrations: %v", got)
	}
}
