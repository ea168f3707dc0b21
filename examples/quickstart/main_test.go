package main

import "testing"

// TestQuickstart runs the demo; quickstart itself asserts that every
// writer's increment reached the counter, the claim it prints.
func TestQuickstart(t *testing.T) {
	if err := quickstart(); err != nil {
		t.Fatal(err)
	}
}
