package main

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"rmalocks/internal/fault"
	"rmalocks/internal/sweep"
	"rmalocks/internal/workload"
)

// flagGrid is the grid main builds from -schemes, -workloads and
// -profiles lists, at P=8.
func flagGrid(schemes, workloads, profiles string) sweep.Grid {
	return sweep.Grid{Schemes: splitList(schemes, workload.Schemes),
		Workloads: splitList(workloads, workload.WorkloadNames),
		Profiles:  splitList(profiles, workload.ProfileNames), Ps: []int{8}}
}

// TestSplitNamesTypedErrors: a typo'd entry in any comma-list flag, or a
// list with no entries, fails Grid.Cells with a typed AxisError naming
// the axis (the flag's name) and the entry — neither may silently
// enumerate a wrong (or empty) grid. "all" and registry aliases pass.
func TestSplitNamesTypedErrors(t *testing.T) {
	if got := splitList("all", workload.Schemes); !reflect.DeepEqual(got, workload.Schemes) {
		t.Fatalf("splitList(all) = %v", got)
	}
	if got := splitList(" rmarw, ,foMPI-A ", nil); !reflect.DeepEqual(got, []string{"rmarw", "foMPI-A"}) {
		t.Fatalf("splitList = %q", got)
	}
	if _, err := flagGrid("rmarw, foMPI-Spin", "all", "all").Cells(); err != nil {
		t.Fatalf("alias entry rejected: %v", err)
	}
	for _, tc := range []struct {
		grid        sweep.Grid
		axis, value string
	}{
		{flagGrid("RMA-RW,RMA-MSC", "empty", "uniform"), "schemes", "RMA-MSC"},
		{flagGrid("RMA-RW", "empty,dth", "uniform"), "workloads", "dth"},
		{flagGrid("RMA-RW", "empty", "unifrom"), "profiles", "unifrom"},
		{flagGrid("", "empty", "uniform"), "schemes", ""},
		{flagGrid("RMA-RW", ",", "uniform"), "workloads", ""},
		{flagGrid("RMA-RW", "empty", " , "), "profiles", ""},
	} {
		var ae sweep.AxisError
		if _, err := tc.grid.Cells(); !errors.As(err, &ae) || ae.Axis != tc.axis || ae.Value != tc.value {
			t.Errorf("-%s %q: got %v, want an AxisError naming them", tc.axis, tc.value, err)
		}
	}
}

// TestValidateTuneKeys pins the -tune typo guard: an axis key no
// selected scheme accepts fails Grid.Cells, naming the key and the keys
// the schemes do accept, instead of being dropped by the per-scheme
// projection (which would sweep nothing, silently).
func TestValidateTuneKeys(t *testing.T) {
	for _, tc := range []struct {
		schemes string
		tunes   string
		err     bool
	}{
		{"RMA-RW", "TR=250", false},
		{"foMPI-Spin,RMA-RW", "TR=250", false},
		{"foMPI-Spin", "TR=250", true}, // TR is RMA-RW's key
		{"all", "TX=1", true},
		{"RMA-RW", "TR=", true}, // an axis with no values
	} {
		var tunes tuneAxes
		if err := tunes.Set(tc.tunes); err != nil {
			t.Fatal(err)
		}
		g := flagGrid(tc.schemes, "empty", "uniform")
		g.Tunables = tunes
		var ae sweep.AxisError
		switch _, err := g.Cells(); {
		case !tc.err && err != nil:
			t.Errorf("-schemes %s -tune %s: %v", tc.schemes, tc.tunes, err)
		case tc.err && !errors.As(err, &ae):
			t.Errorf("-schemes %s -tune %s: err = %v, want an AxisError", tc.schemes, tc.tunes, err)
		}
	}
	g := flagGrid("all", "empty", "uniform")
	g.Tunables = []sweep.TunableAxis{{Key: "TX", Values: []int64{1}}}
	if _, err := g.Cells(); err == nil || !strings.Contains(err.Error(), `"TX"`) || !strings.Contains(err.Error(), "TR") {
		t.Errorf("unknown key: %v, want the key and the accepted keys named", err)
	}
}

// TestFaultAxesSet pins the -faults flag grammar: full profile specs
// parse through the fault package, typed errors included. A profile
// given twice, or one no selected scheme can run, is Grid.Cells'
// error.
func TestFaultAxesSet(t *testing.T) {
	var axes faultAxes
	if err := axes.Set("jitter=0.2,stall=50us@0.05"); err != nil {
		t.Fatal(err)
	}
	if err := axes.Set("timeout=200us,retries=4"); err != nil {
		t.Fatal(err)
	}
	if len(axes) != 2 || axes[0].Jitter != 0.2 || axes[1].Timeout != 200_000 {
		t.Fatalf("parsed axes = %s", axes.String())
	}

	var uk *fault.UnknownKeyError
	if err := axes.Set("jiter=0.2"); !errors.As(err, &uk) {
		t.Errorf("typo'd fault key: got %v, want *fault.UnknownKeyError", err)
	}
	var ve *fault.ValueError
	if err := axes.Set("jitter=-3"); !errors.As(err, &ve) {
		t.Errorf("bad fault value: got %v, want *fault.ValueError", err)
	}
	if len(axes) != 2 {
		t.Fatalf("failed Set mutated the axes: %s", axes.String())
	}

	g := flagGrid("D-MCS", "empty", "uniform")
	g.Faults = axes
	var ae sweep.AxisError
	if _, err := g.Cells(); !errors.As(err, &ae) || ae.Axis != "faults" || ae.Value != "retries=4,timeout=200000" {
		t.Errorf("-schemes D-MCS -faults timeout=200us: got %v, want an AxisError naming the profile", err)
	}
	// "stall=50000@0.05,jitter=0.2" canonicalizes to the first profile.
	if err := axes.Set("stall=50000@0.05,jitter=0.2"); err != nil {
		t.Fatal(err)
	}
	g = flagGrid("foMPI-Spin", "empty", "uniform")
	g.Faults = axes
	var rep sweep.RepeatedValueError
	if _, err := g.Cells(); !errors.As(err, &rep) || rep.Axis != "faults" {
		t.Errorf("repeated profile: got %v, want a RepeatedValueError", err)
	}
}

// TestParsePs pins -ps: an entry that is not an integer, and a list with
// no entries, are typed errors; only an absent list falls back to -p. A
// P below 1 parses, and Grid.Cells refuses it.
func TestParsePs(t *testing.T) {
	if got, err := parsePs("", 64); err != nil || !reflect.DeepEqual(got, []int{64}) {
		t.Errorf(`parsePs("") = %v, %v; want [64]`, got, err)
	}
	if got, err := parsePs(" 16, 32 ,64", 8); err != nil || !reflect.DeepEqual(got, []int{16, 32, 64}) {
		t.Errorf("parsePs list = %v, %v", got, err)
	}
	var bad *BadEntryError
	for _, s := range []string{",", " , ", "16,x", "1e3", "all"} {
		if _, err := parsePs(s, 64); !errors.As(err, &bad) || bad.Flag != "ps" {
			t.Errorf("parsePs(%q): got %v, want *BadEntryError for -ps", s, err)
		}
	}
	for _, s := range []string{"0", "16,-4"} {
		ps, err := parsePs(s, 64)
		if err != nil {
			t.Fatalf("parsePs(%q): %v", s, err)
		}
		g := flagGrid("RMA-RW", "empty", "uniform")
		g.Ps = ps
		var ae sweep.AxisError
		if _, err := g.Cells(); !errors.As(err, &ae) || ae.Axis != "ps" {
			t.Errorf("-ps %s: got %v, want an AxisError for ps", s, err)
		}
	}
}
