package main

import (
	"errors"
	"slices"
	"testing"

	"rmalocks/internal/scheme"
	"rmalocks/internal/workload"
)

// FuzzTuneAxis: no -tune value panics, and one tuneAxes.Set accepts
// re-parses from String() to the same axis. Seeds: testdata/fuzz.
func FuzzTuneAxis(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		var axes tuneAxes
		if axes.Set(s) != nil {
			return
		}
		var again tuneAxes
		if err := again.Set(axes.String()); err != nil {
			t.Fatalf("Set(%q) gave %q, which Set rejects: %v", s, axes.String(), err)
		}
		if again[0].Key != axes[0].Key || !slices.Equal(again[0].Values, axes[0].Values) {
			t.Fatalf("Set(%q) = %+v, but its String %q re-parses to %+v", s, axes[0], axes.String(), again[0])
		}
	})
}

// FuzzFlagLists: no comma list panics -schemes, -workloads, -profiles or
// -ps. An accepted list is non-empty and each entry passes the registry
// check that accepted it (a -ps entry is positive); a rejected one is a
// typed error. Seeds: testdata/fuzz.
func FuzzFlagLists(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		checkList(t, "schemes", s, splitSchemes, func(name string) bool {
			_, err := scheme.Describe(name)
			return err == nil
		})
		checkList(t, "workloads", s, splitWorkloads, func(name string) bool {
			_, err := workload.ByName(name)
			return err == nil
		})
		checkList(t, "profiles", s, splitProfiles, func(name string) bool {
			return slices.Contains(workload.ProfileNames, name)
		})
		checkList(t, "ps", s, func(s string) ([]int, error) { return parsePs(s, 64) },
			func(p int) bool { return p > 0 })
	})
}

func checkList[T any](t *testing.T, flag, s string, parse func(string) ([]T, error), valid func(T) bool) {
	t.Helper()
	list, err := parse(s)
	if err != nil {
		var unknown *UnknownNameError
		var empty *EmptyListError
		var bad *BadEntryError
		if !errors.As(err, &unknown) && !errors.As(err, &empty) && !errors.As(err, &bad) {
			t.Fatalf("-%s %q: untyped error %v", flag, s, err)
		}
		return
	}
	if len(list) == 0 {
		t.Fatalf("-%s %q accepted as an empty list", flag, s)
	}
	for _, v := range list {
		if !valid(v) {
			t.Fatalf("-%s %q accepted entry %v, which the registry rejects", flag, s, v)
		}
	}
}
