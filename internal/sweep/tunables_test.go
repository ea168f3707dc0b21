package sweep_test

// The tunables axis of the sweep engine: cross-product enumeration in
// canonical order, per-scheme projection, key/fingerprint folding, and
// the regression gate that empty tunables leave the persisted PR2
// baseline (results/sweep.json) byte-identical.

import (
	"encoding/json"
	"strings"
	"testing"

	"rmalocks/internal/sweep"
	"rmalocks/internal/workload"
)

func tunedGrid() sweep.Grid {
	return sweep.Grid{
		Schemes:   []string{workload.SchemeRMARW, workload.SchemeFoMPISpin},
		Workloads: []string{"empty"},
		Profiles:  []string{"uniform"},
		Ps:        []int{16},
		Iters:     8,
		FW:        0.05,
		Tunables: []sweep.TunableAxis{
			{Key: "TR", Values: []int64{250, 500, 1000}},
			{Key: "TL2", Values: []int64{16, 32}},
		},
	}
}

// TestTunablesCrossProduct checks enumeration: RMA-RW accepts both
// axes (3×2 = 6 cells), foMPI-Spin accepts neither (1 untuned cell),
// in canonical order with the combination folded into each key.
func TestTunablesCrossProduct(t *testing.T) {
	cells := mustCells(t, tunedGrid())
	var keys []string
	for _, c := range cells {
		keys = append(keys, c.Key.String())
	}
	want := []string{
		"RMA-RW/empty/uniform/P=16/TL2=16,TR=250",
		"RMA-RW/empty/uniform/P=16/TL2=32,TR=250",
		"RMA-RW/empty/uniform/P=16/TL2=16,TR=500",
		"RMA-RW/empty/uniform/P=16/TL2=32,TR=500",
		"RMA-RW/empty/uniform/P=16/TL2=16,TR=1000",
		"RMA-RW/empty/uniform/P=16/TL2=32,TR=1000",
		"foMPI-Spin/empty/uniform/P=16",
	}
	if len(keys) != len(want) {
		t.Fatalf("got %d cells %v, want %d", len(keys), keys, len(want))
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Errorf("cell %d = %s, want %s", i, keys[i], want[i])
		}
	}
}

// TestTunablesRunAndFingerprint executes the tuned grid: every cell's
// report must carry its tunables, distinct tunables must yield
// distinct fingerprints, and the keys must survive a JSON round-trip.
func TestTunablesRunAndFingerprint(t *testing.T) {
	cells := mustCells(t, tunedGrid())
	results, err := sweep.Run(cells, sweep.Options{Workers: 2, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{}
	for _, r := range results {
		if r.Key.Tunables != r.Report.Tunables {
			t.Errorf("cell %s: key tunables %q != report tunables %q",
				r.Key, r.Key.Tunables, r.Report.Tunables)
		}
		if r.Key.Tunables != "" && !strings.Contains(r.Fingerprint, " tun="+r.Key.Tunables) {
			t.Errorf("cell %s: fingerprint lacks tunables: %s", r.Key, r.Fingerprint)
		}
		if prev, dup := seen[r.Fingerprint]; dup {
			t.Errorf("cells %s and %s share a fingerprint", prev, r.Key)
		}
		seen[r.Fingerprint] = r.Key.String()
	}

	data, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	var back []sweep.CellResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if back[i].Key != results[i].Key {
			t.Errorf("key %v did not round-trip (%v)", results[i].Key, back[i].Key)
		}
	}
}

// TestEmptyTunablesKeyOmitted: untuned cells serialize exactly as
// before the tunables axis existed (no "tunables" JSON field), so
// persisted baselines keep their byte format.
func TestEmptyTunablesKeyOmitted(t *testing.T) {
	data, err := json.Marshal(sweep.Key{Scheme: "RMA-RW", Workload: "empty", Profile: "uniform", P: 16})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "tunables") {
		t.Errorf("empty tunables leak into JSON: %s", data)
	}
	if got := (sweep.Key{Scheme: "s", Workload: "w", Profile: "p", P: 1}).String(); got != "s/w/p/P=1" {
		t.Errorf("untuned Key.String() = %q", got)
	}
}
