package jobq

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"rmalocks/internal/cache"
	"rmalocks/internal/fault"
	"rmalocks/internal/obs"
	"rmalocks/internal/sweep"
	"rmalocks/internal/workload"
)

// compactGrid is a small grid of D-MCS and RMA-RW cells.
func compactGrid(ps ...int) sweep.Grid {
	return sweep.Grid{
		Schemes:   []string{workload.SchemeDMCS, workload.SchemeRMARW},
		Workloads: []string{"empty"},
		Profiles:  []string{"uniform", "zipf"},
		Ps:        ps,
		Iters:     12,
		FW:        0.2,
		Locks:     4,
	}
}

// TestFinishedJobKeepsEventLines: a done job's tracker reads its cells'
// keys and fingerprints back from the job's fragments, so each cell line
// carries the fingerprint the job's result serves for that cell. For a
// job with cells that ran, hit the cache and derived from a stored
// sibling, those are the bytes the tracker wrote while it held its
// records; a job with a fault axis gives its degraded cells new
// fingerprints in the degradation join, after the tracker saw them, and
// its lines now carry the joined ones.
func TestFinishedJobKeepsEventLines(t *testing.T) {
	store, _, err := cache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	fill, err := compactGrid(8, 16).Cells()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sweep.Run(fill, sweep.Options{Workers: 2, Cache: store}); err != nil {
		t.Fatal(err)
	}
	jitter, err := fault.Parse("jitter=0.2")
	if err != nil {
		t.Fatal(err)
	}
	// P=8 and 16 hit, or derive for RMA-RW at the new T_R; P=12 runs.
	mixed := compactGrid(8, 12, 16)
	mixed.Tunables = []sweep.TunableAxis{{Key: "TR", Values: []int64{20001}}}
	faulted := compactGrid(8)
	faulted.Faults = []*fault.Profile{jitter}
	for _, tc := range []struct {
		name   string
		g      sweep.Grid
		joined bool
	}{{"ran, cached and derived", mixed, false}, {"fault axis", faulted, true}} {
		cells, err := tc.g.Cells()
		if err != nil {
			t.Fatal(err)
		}
		j := &Job{ID: "job-1", prog: obs.NewSweepProgress("job-1")}
		results, err := sweep.Run(cells, sweep.Options{Workers: 2, Cache: store, Progress: j.prog})
		if err != nil {
			t.Fatal(err)
		}
		var before, after bytes.Buffer
		if err := j.prog.WriteNDJSON(&before); err != nil {
			t.Fatal(err)
		}
		j.finish(results)
		if err := j.prog.WriteNDJSON(&after); err != nil {
			t.Fatal(err)
		}
		if !tc.joined && !bytes.Equal(after.Bytes(), before.Bytes()) {
			t.Errorf("%s: a done job's events changed:\nbefore:\n%s\nafter:\n%s", tc.name, before.Bytes(), after.Bytes())
		}
		// Compact refuses a tracker it has compacted already.
		if j.prog.Compact(fragmentText(j.frags)) {
			t.Errorf("%s: finish left the tracker uncompacted", tc.name)
		}
		// What Manager.AppendResult serves for the job.
		var rf sweep.RunFile
		if err := json.Unmarshal(sweep.AppendFragments(nil, j.ID, j.frags), &rf); err != nil {
			t.Fatal(err)
		}
		served := map[string]string{}
		for _, c := range rf.Cells {
			served[c.Key.String()] = c.Fingerprint
		}
		lines, moved := 0, 0
		sc := bufio.NewScanner(bytes.NewReader(after.Bytes()))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			var l obs.CellLine
			if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
				t.Fatal(err)
			}
			if l.Cell == "" {
				continue // the summary
			}
			lines++
			if l.Fingerprint != served[l.Cell] {
				t.Errorf("%s: cell %s's event line carries fingerprint\n%s\nits result holds\n%s", tc.name, l.Cell, l.Fingerprint, served[l.Cell])
			}
			if !strings.Contains(before.String(), `"fingerprint":"`+l.Fingerprint+`"`) {
				moved++
			}
		}
		if lines != len(rf.Cells) {
			t.Errorf("%s: %d cell lines for %d cells", tc.name, lines, len(rf.Cells))
		}
		if tc.joined && moved == 0 {
			t.Errorf("%s: no cell's fingerprint moved in the degradation join: the case checks nothing", tc.name)
		}
		if !tc.joined {
			ran := strings.Count(before.String(), `"elapsed_ms":`) - 1 // the summary's
			cached := strings.Count(before.String(), `"state":"cached"`)
			derived := strings.Count(before.String(), `"state":"done"`) - ran
			if ran == 0 || cached == 0 || derived == 0 {
				t.Errorf("%s: %d cells ran, %d hit and %d derived; want some of each", tc.name, ran, cached, derived)
			}
		}
	}
}

// TestEventsStreamAcrossFinish: a stream opened before the job finishes
// and read to its end leaves each cell on the line, and the summary on
// the line, that the finished job writes.
func TestEventsStreamAcrossFinish(t *testing.T) {
	m := NewManager(Config{Workers: 1, MaxJobs: 1})
	defer m.Shutdown()
	j, err := m.Submit(compactGrid(8, 16), "stream")
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	if err := j.Progress().StreamNDJSON(&stream, time.Millisecond, j.Done()); err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if st := j.Status(); st.State != StateDone {
		t.Fatalf("job %s: %+v", j.ID, st)
	}
	var final bytes.Buffer
	if err := j.Progress().WriteNDJSON(&final); err != nil {
		t.Fatal(err)
	}
	last := map[string]string{} // a cell's last line, the summary's under ""
	sc := bufio.NewScanner(&stream)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var l obs.CellLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatal(err)
		}
		last[l.Cell] = sc.Text()
	}
	lines := strings.Split(strings.TrimSuffix(final.String(), "\n"), "\n")
	if len(lines) != 9 {
		t.Fatalf("the finished job wrote %d lines, want 8 cells and a summary", len(lines))
	}
	for _, line := range lines {
		var l obs.CellLine
		if err := json.Unmarshal([]byte(line), &l); err != nil {
			t.Fatal(err)
		}
		if last[l.Cell] != line {
			t.Errorf("the stream left cell %q on\n%s\nthe finished job writes\n%s", l.Cell, last[l.Cell], line)
		}
	}
}
