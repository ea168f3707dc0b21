package main

import "testing"

// TestGraphproc runs the comparison; graphproc itself asserts that
// foMPI-Spin needs more than twice the remote operations of either
// queue lock, the claim it prints.
func TestGraphproc(t *testing.T) {
	if err := graphproc(); err != nil {
		t.Fatal(err)
	}
}
