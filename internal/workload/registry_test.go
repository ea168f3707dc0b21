package workload_test

// Registry-dispatch equivalence: NewLockSet now builds locks through
// the capability-based scheme registry (internal/scheme). This suite
// pins the redesign's compatibility contract: registry-constructed
// locks are behaviorally identical — byte-identical report
// fingerprints — to the legacy direct constructors with the harness's
// historical defaults, and typed tunables flow end to end.

import (
	"errors"
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
	"rmalocks/internal/workload"
)

// legacyFactory reproduces the pre-registry per-scheme switch of
// NewLockSet, including the harness defaults (RMA-RW: T_DC one per
// node, T_R=1000, T_L=(40,25)).
func legacyFactory(schemeName string) func(m *rma.Machine, n int) ([]locks.RWMutex, error) {
	return func(m *rma.Machine, n int) ([]locks.RWMutex, error) {
		set := make([]locks.RWMutex, n)
		for i := range set {
			switch schemeName {
			case workload.SchemeFoMPISpin:
				set[i] = locks.WriterOnly{Mu: fompi.NewSpin(m)}
			case workload.SchemeDMCS:
				set[i] = locks.WriterOnly{Mu: dmcs.New(m)}
			case workload.SchemeRMAMCS:
				set[i] = locks.WriterOnly{Mu: rmamcs.NewConfig(m, rmamcs.Config{})}
			case workload.SchemeFoMPIRW:
				set[i] = fompi.NewRW(m)
			case workload.SchemeRMARW:
				set[i] = rmarw.NewConfig(m, rmarw.Config{
					TDC: m.Topology().ProcsPerLeaf(), TR: 1000, TL: []int64{0, 40, 25}})
			}
		}
		return set, nil
	}
}

// TestRegistryMatchesLegacyConstructors runs every scheme once through
// the registry dispatch and once through the legacy constructors and
// requires byte-identical fingerprints (including DirectEntries, which
// exercises the unwrapping of both lock-handle shapes).
func TestRegistryMatchesLegacyConstructors(t *testing.T) {
	for _, schemeName := range workload.Schemes {
		schemeName := schemeName
		t.Run(schemeName, func(t *testing.T) {
			base := workload.Spec{
				Scheme: schemeName, P: 24, ProcsPerNode: 8, Iters: 20,
				Profile: workload.Uniform{FW: 0.25, NumLocks: 2},
			}
			viaRegistry, err := workload.Run(base)
			if err != nil {
				t.Fatal(err)
			}
			legacy := base
			legacy.Make = legacyFactory(schemeName)
			viaLegacy, err := workload.Run(legacy)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := viaRegistry.Fingerprint(), viaLegacy.Fingerprint(); a != b {
				t.Errorf("registry vs legacy constructors diverge:\n registry: %s\n legacy:   %s", a, b)
			}
		})
	}
}

// TestSpecTunablesValidation: unknown or out-of-range Spec.Tunables
// fail the run with the registry's typed errors.
func TestSpecTunablesValidation(t *testing.T) {
	spec := workload.Spec{Scheme: workload.SchemeRMARW, P: 8, Iters: 4,
		Tunables: scheme.Tunables{"BOGUS": 1}}
	_, err := workload.Run(spec)
	var unk *scheme.UnknownTunableError
	if !errors.As(err, &unk) {
		t.Fatalf("unknown tunable: err = %v, want UnknownTunableError", err)
	}
	spec.Tunables = scheme.Tunables{"TR": -1}
	_, err = workload.Run(spec)
	var rng *scheme.RangeError
	if !errors.As(err, &rng) {
		t.Fatalf("TR=-1: err = %v, want RangeError", err)
	}
}

// TestSpecTunablesRecorded: non-empty tunables show up canonically in
// the report and its fingerprint; empty tunables leave both untouched.
func TestSpecTunablesRecorded(t *testing.T) {
	base := workload.Spec{Scheme: workload.SchemeRMARW, P: 16, Iters: 10,
		Profile: workload.Uniform{FW: 0.1}}
	plain, err := workload.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Tunables != "" {
		t.Errorf("untuned run recorded Tunables %q", plain.Tunables)
	}
	if strings.Contains(plain.Fingerprint(), "tun=") {
		t.Errorf("untuned fingerprint mentions tunables: %s", plain.Fingerprint())
	}

	tuned := base
	tuned.Tunables = scheme.Tunables{"TR": 1000, "TL1": 40, "TL2": 25}
	rep, err := workload.Run(tuned)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tunables != "TL1=40,TL2=25,TR=1000" {
		t.Errorf("Report.Tunables = %q", rep.Tunables)
	}
	if !strings.Contains(rep.Fingerprint(), " tun=TL1=40,TL2=25,TR=1000") {
		t.Errorf("fingerprint lacks tunables: %s", rep.Fingerprint())
	}
	// These explicit tunables equal the harness defaults, so the
	// simulation itself is identical: only the tunables annotation may
	// differ between the two fingerprints.
	want := strings.Replace(rep.Fingerprint(), " tun=TL1=40,TL2=25,TR=1000", "", 1)
	if plain.Fingerprint() != want {
		t.Errorf("explicit harness defaults changed the simulation:\n plain: %s\n tuned: %s",
			plain.Fingerprint(), rep.Fingerprint())
	}
}

// TestTLTunableSuppressesHarnessDefault: with a TL tunable present, the
// harness's TL default is not injected — the remaining levels take the
// scheme default. Without one it is, into a copy: the caller's tunables
// (a sweep cell's, recorded in its report) are never written.
func TestTLTunableSuppressesHarnessDefault(t *testing.T) {
	m := rma.NewMachine(topology.TwoLevel(2, 8))
	set, err := workload.NewLockSet(m, workload.SchemeRMARW, 1, scheme.Tunables{"TL2": 5})
	if err != nil {
		t.Fatal(err)
	}
	rw := set[0].(scheme.Lock).Underlying().(*rmarw.Lock)
	if rw.TW() != rmarw.DefaultTL*5 {
		t.Errorf("TW = %d, want %d (TL1 default %d, TL2 5)", rw.TW(), rmarw.DefaultTL*5, rmarw.DefaultTL)
	}

	tun := scheme.Tunables{"TR": 9}
	set, err = workload.NewLockSet(m, workload.SchemeRMARW, 1, tun)
	if err != nil {
		t.Fatal(err)
	}
	rw = set[0].(scheme.Lock).Underlying().(*rmarw.Lock)
	if rw.TR() != 9 || rw.TW() != 40*25 {
		t.Errorf("TR = %d, TW = %d, want 9 and the harness default 1000", rw.TR(), rw.TW())
	}
	if tun.Canonical() != "TR=9" {
		t.Errorf("NewLockSet wrote the harness default into its caller's tunables: %s", tun.Canonical())
	}
}

// TestSchemesDerivedFromRegistry: the harness's scheme list is the
// registry's, in presentation order.
func TestSchemesDerivedFromRegistry(t *testing.T) {
	if got, want := len(workload.Schemes), len(scheme.Names()); got != want {
		t.Fatalf("workload.Schemes has %d entries, registry %d", got, want)
	}
	for i, name := range scheme.Names() {
		if workload.Schemes[i] != name {
			t.Errorf("Schemes[%d] = %q, registry %q", i, workload.Schemes[i], name)
		}
	}
}
