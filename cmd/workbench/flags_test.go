package main

import (
	"errors"
	"reflect"
	"testing"

	"rmalocks/internal/fault"
	"rmalocks/internal/sweep"
	"rmalocks/internal/workload"
)

// TestSplitNamesTypedErrors pins satellite behaviour: a typo'd entry in
// any comma-list flag fails with a typed UnknownNameError naming the
// flag and the accepted set, and an empty list is rejected outright —
// neither may silently enumerate a wrong (or empty) grid.
func TestSplitNamesTypedErrors(t *testing.T) {
	if got, err := splitSchemes("all"); err != nil || !reflect.DeepEqual(got, workload.Schemes) {
		t.Fatalf("splitSchemes(all) = %v, %v", got, err)
	}
	// Registry aliases and case-folding must keep working.
	if _, err := splitSchemes("rmarw, foMPI-Spin"); err != nil {
		t.Fatalf("alias entry rejected: %v", err)
	}

	var unknown *UnknownNameError
	_, err := splitSchemes("RMA-RW,RMA-MSC")
	if !errors.As(err, &unknown) {
		t.Fatalf("typo'd scheme: got %v, want *UnknownNameError", err)
	}
	if unknown.Flag != "schemes" || unknown.Name != "RMA-MSC" {
		t.Errorf("UnknownNameError = %+v", unknown)
	}

	if _, err := splitWorkloads("empty,dth"); !errors.As(err, &unknown) || unknown.Name != "dth" {
		t.Errorf("typo'd workload: got %v", err)
	}
	if _, err := splitProfiles("unifrom"); !errors.As(err, &unknown) || unknown.Name != "unifrom" {
		t.Errorf("typo'd profile: got %v", err)
	}

	var empty *EmptyListError
	for _, s := range []string{"", ",", " , "} {
		if _, err := splitSchemes(s); !errors.As(err, &empty) {
			t.Errorf("splitSchemes(%q): got %v, want *EmptyListError", s, err)
		}
	}
}

// TestValidateTuneKeys pins the -tune typo guard: an axis key no
// selected scheme accepts fails eagerly instead of being dropped by
// the per-scheme projection (which would sweep nothing, silently).
func TestValidateTuneKeys(t *testing.T) {
	ok := []sweep.TunableAxis{{Key: "TR", Values: []int64{250}}}
	if err := validateTuneKeys([]string{workload.SchemeRMARW}, ok); err != nil {
		t.Fatalf("valid axis rejected: %v", err)
	}
	// TR is RMA-RW's key; a foMPI-Spin-only grid must reject it.
	var unknown *UnknownNameError
	err := validateTuneKeys([]string{workload.SchemeFoMPISpin}, ok)
	if !errors.As(err, &unknown) || unknown.Flag != "tune" || unknown.Name != "TR" {
		t.Fatalf("foreign axis: got %v, want *UnknownNameError for TR", err)
	}
	if err := validateTuneKeys([]string{workload.SchemeFoMPISpin, workload.SchemeRMARW}, ok); err != nil {
		t.Errorf("axis accepted by one of two schemes rejected: %v", err)
	}
	bad := []sweep.TunableAxis{{Key: "TX", Values: []int64{1}}}
	if err := validateTuneKeys(workload.Schemes, bad); !errors.As(err, &unknown) || unknown.Name != "TX" {
		t.Errorf("unknown key: got %v", err)
	}
}

// TestFaultAxesSet pins the -faults flag grammar: full profile specs
// parse through the fault package (typed errors included), duplicates
// by canonical form are rejected.
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

	// "stall=50000@0.05,jitter=0.2" canonicalizes to the first profile.
	err := axes.Set("stall=50000@0.05,jitter=0.2")
	if err == nil {
		t.Fatal("duplicate profile accepted")
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
}

// TestParsePs pins -ps: a bad entry and an empty list are typed errors,
// like every other list flag, and only an absent list falls back to -p.
func TestParsePs(t *testing.T) {
	if got, err := parsePs("", 64); err != nil || !reflect.DeepEqual(got, []int{64}) {
		t.Errorf(`parsePs("") = %v, %v; want [64]`, got, err)
	}
	if got, err := parsePs(" 16, 32 ,64", 8); err != nil || !reflect.DeepEqual(got, []int{16, 32, 64}) {
		t.Errorf("parsePs list = %v, %v", got, err)
	}
	var empty *EmptyListError
	for _, s := range []string{",", " , "} {
		if _, err := parsePs(s, 64); !errors.As(err, &empty) || empty.Flag != "ps" {
			t.Errorf("parsePs(%q): got %v, want *EmptyListError for -ps", s, err)
		}
	}
	var bad *BadEntryError
	for _, s := range []string{"16,x", "0", "16,-4", "1e3"} {
		if _, err := parsePs(s, 64); !errors.As(err, &bad) || bad.Flag != "ps" {
			t.Errorf("parsePs(%q): got %v, want *BadEntryError for -ps", s, err)
		}
	}
}
