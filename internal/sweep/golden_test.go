package sweep_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rmalocks/internal/fault"
	"rmalocks/internal/sweep"
	"rmalocks/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenFingerprints pins the results of the Makefile's two sweep
// grids — SWEEP_FLAGS (`make sweep`, 60 cells) and FAULT_FLAGS (`make
// faults`, 48 cells, degradation metrics applied) — as key → fingerprint
// tables, one line per cell: a change that moves a result fails here
// naming the cells. The grids spell out workbench's flag defaults. Each
// table's first line names the address version it was pinned under, and
// -update refuses a changed table until the version is bumped
// (sweep.Golden).
func TestGoldenFingerprints(t *testing.T) {
	base := sweep.Grid{
		Schemes: workload.Schemes, Workloads: []string{"empty"},
		Iters: 50, ProcsPerNode: 16, Seed: 1, FW: 0.1, Locks: 8, ZipfS: 1.2,
	}
	sweepGrid, faultGrid := base, base
	sweepGrid.Profiles, sweepGrid.Ps = []string{"uniform", "zipf", "bursty", "sweep"}, []int{16, 32, 64}
	faultGrid.Profiles, faultGrid.Ps = []string{"uniform", "zipf"}, []int{16, 64}
	faultGrid.Faults = []*fault.Profile{
		mustFault(t, "jitter=0.2,stragglers=4x5%,stall=50us@0.02"),
		mustFault(t, "stall=100us@0.05,timeout=200us"),
	}
	for _, c := range []struct {
		name  string
		grid  sweep.Grid
		cells int
	}{{"sweep", sweepGrid, 60}, {"faults", faultGrid, 48}} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			cells, err := c.grid.Cells()
			if err != nil {
				t.Fatal(err)
			}
			if len(cells) != c.cells {
				t.Fatalf("%d cells, the Makefile's grid has %d", len(cells), c.cells)
			}
			results, err := sweep.Run(cells, sweep.Options{})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			for _, r := range results {
				fmt.Fprintf(&buf, "%s %s\n", r.Key, r.Fingerprint)
			}
			golden := filepath.Join("testdata", "golden", c.name+".txt")
			want, err := sweep.Golden(golden, buf.Bytes(), *update)
			if err != nil {
				t.Fatal(err)
			}
			if got := buf.Bytes(); !bytes.Equal(got, want) {
				gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if !bytes.Equal(gl[i], wl[i]) {
						t.Errorf("cell moved:\n got  %s\n want %s", gl[i], wl[i])
					}
				}
				t.Fatalf("%s grid drifted from %s (regenerate with -update if intended)", c.name, golden)
			}
		})
	}
}

// TestGoldenRefusesUnversionedChange: -update rewrites a golden table
// only when its results are unchanged or were pinned under another
// address version; a table pinned under another version fails without
// -update.
func TestGoldenRefusesUnversionedChange(t *testing.T) {
	path := filepath.Join(t.TempDir(), "table.txt")
	if _, err := sweep.Golden(path, []byte("a 1\n"), true); err != nil {
		t.Fatalf("first -update: %v", err)
	}
	if got, err := sweep.Golden(path, []byte("a 1\n"), false); err != nil || string(got) != "a 1\n" {
		t.Fatalf("pinned table %q, %v; want %q", got, err, "a 1\n")
	}
	if _, err := sweep.Golden(path, []byte("a 1\n"), true); err != nil {
		t.Fatalf("-update of an unchanged table: %v", err)
	}
	_, err := sweep.Golden(path, []byte("a 2\n"), true)
	if err == nil || !strings.Contains(err.Error(), "bump inputPrefix") {
		t.Fatalf("-update of a changed table under the same address version: %v, want a refusal", err)
	}
	if err := os.WriteFile(path, []byte("# results of address cell/v1\na 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := sweep.Golden(path, []byte("a 1\n"), false); err == nil {
		t.Fatal("a table pinned under another address version passed")
	}
	if _, err := sweep.Golden(path, []byte("a 2\n"), true); err != nil {
		t.Fatalf("-update of a table pinned under another address version: %v", err)
	}
}
