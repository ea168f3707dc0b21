package main

import "testing"

// TestParamspace runs the tour in both modes: every cell of the slice
// must complete, and the registry must reject an out-of-range T_R.
func TestParamspace(t *testing.T) {
	for _, smoke := range []bool{true, false} {
		if err := explore(smoke, 2); err != nil {
			t.Fatalf("smoke=%v: %v", smoke, err)
		}
	}
}
