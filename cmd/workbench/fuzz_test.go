package main

import (
	"slices"
	"testing"
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
