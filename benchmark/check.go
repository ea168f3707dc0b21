package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// cellKey mirrors the "key" object of a run file's cell.
type cellKey struct {
	Scheme   string `json:"scheme"`
	Workload string `json:"workload"`
	Profile  string `json:"profile"`
	P        int    `json:"p"`
	Tunables string `json:"tunables"`
	Faults   string `json:"faults"`
}

func (k cellKey) String() string {
	s := fmt.Sprintf("%s/%s/%s/P=%d", k.Scheme, k.Workload, k.Profile, k.P)
	if k.Tunables != "" {
		s += "/" + k.Tunables
	}
	if k.Faults != "" {
		s += "/faults=" + k.Faults
	}
	return s
}

// cellOut is the part of a run file's cell the checks read: the format
// `workbench -out` writes and GET /jobs/{id}/result serves.
type cellOut struct {
	Key    cellKey `json:"key"`
	Report struct {
		P      int `json:"P"`
		Ops    int `json:"Ops"`
		Reads  int `json:"Reads"`
		Writes int `json:"Writes"`
	} `json:"report"`
	Fingerprint string `json:"fingerprint"`
}

// parseRun decodes a run file's cells, in the file's (canonical) order.
func parseRun(data []byte) ([]cellOut, error) {
	var rf struct {
		Cells []cellOut `json:"cells"`
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("parse run file: %w", err)
	}
	return rf.Cells, nil
}

// parsePhases reads the phase wall-time totals of a `workbench -metrics-out` file.
func parsePhases(data []byte) (map[string]float64, error) {
	var snap struct {
		Phases map[string]struct {
			WallNs float64 `json:"wall_ns"`
		} `json:"phases"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("parse metrics snapshot: %w", err)
	}
	out := make(map[string]float64, len(snap.Phases))
	for name, p := range snap.Phases {
		out[name] = p.WallNs
	}
	return out, nil
}

// jobStatus mirrors the daemon's job status payload (POST /jobs and
// GET /jobs/{id}).
type jobStatus struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Cells  int    `json:"cells"`
	Done   int    `json:"done"`
	Cached int    `json:"cached"`
	Failed int    `json:"failed"`
	Error  string `json:"error"`
}

func parseStatus(data []byte) (jobStatus, error) {
	var st jobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return st, fmt.Errorf("parse job status: %w", err)
	}
	return st, nil
}

// tally counts cells attempted and failed over a whole run and keeps the
// first few failures for the report.
type tally struct {
	attempted, failed int
	reasons           []string
}

func (t *tally) fail(n int, format string, args ...any) {
	t.failed += n
	if len(t.reasons) < 10 {
		t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
	}
}

// failAll records a repetition or job that produced no usable output:
// every one of its cells counts as attempted and failed.
func (t *tally) failAll(cells int, format string, args ...any) {
	t.attempted += cells
	t.fail(cells, format, args...)
}

// checkCells counts got's cells as attempted and fails each one that is
// insane (Reads+Writes must be the P·iters operations the grid asked
// for) or, where want is given, differs from want's cell at the same
// position. A wrong cell count fails the whole set.
func (t *tally) checkCells(what string, got []cellOut, g grid, want []cellOut) {
	if len(got) != g.Cells || (want != nil && len(want) != len(got)) {
		t.failAll(g.Cells, "%s: %d cells, want %d", what, len(got), g.Cells)
		return
	}
	t.attempted += len(got)
	for i, c := range got {
		switch {
		case c.Report.P != c.Key.P || c.Report.Ops != c.Key.P*g.Iters || c.Report.Reads+c.Report.Writes != c.Report.Ops:
			t.fail(1, "%s: cell %s: ops=%d reads=%d writes=%d, want P*iters=%d",
				what, c.Key, c.Report.Ops, c.Report.Reads, c.Report.Writes, c.Key.P*g.Iters)
		case c.Fingerprint == "":
			t.fail(1, "%s: cell %s: empty fingerprint", what, c.Key)
		case want != nil && (want[i].Key != c.Key || want[i].Fingerprint != c.Fingerprint):
			t.fail(1, "%s: cell %s differs from reference cell %s", what, c.Key, want[i].Key)
		}
	}
}

// filter keeps the cells for which keep reports true, in order.
func filter(cells []cellOut, keep func(cellKey) bool) []cellOut {
	var out []cellOut
	for _, c := range cells {
		if keep(c.Key) {
			out = append(out, c)
		}
	}
	return out
}

// digest is SHA-256 over the cells' fingerprints in canonical order: the
// simulated statistics of a workload in one comparable line.
func digest(cells []cellOut) string {
	h := sha256.New()
	for _, c := range cells {
		h.Write([]byte(c.Fingerprint))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}
