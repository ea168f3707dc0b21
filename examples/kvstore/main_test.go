package main

import "testing"

// TestKVStore runs the comparison; kvstore itself asserts that RMA-RW
// finishes the read-mostly traffic faster than foMPI-RW, the claim it
// prints.
func TestKVStore(t *testing.T) {
	if err := kvstore(); err != nil {
		t.Fatal(err)
	}
}
