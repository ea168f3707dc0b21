package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// TestProgressNDJSONSchema walks a three-cell sweep through its
// lifecycle and checks the /progress payload at each step: one valid
// JSON object per line, cells in canonical order, and a summary line
// whose counts and ETA follow the transitions.
func TestProgressNDJSONSchema(t *testing.T) {
	p := NewSweepProgress("test sweep")
	p.Start([]string{"a/empty/uniform/P=16", "b/empty/uniform/P=16", "c/empty/uniform/P=16"})

	cells, sum := decodeProgress(t, p)
	if len(cells) != 3 {
		t.Fatalf("cell lines = %d, want 3", len(cells))
	}
	for i, c := range cells {
		if c.State != StateQueued {
			t.Fatalf("cell %d state = %q, want queued", i, c.State)
		}
	}
	if sum.Total != 3 || sum.Done != 0 || sum.Queued != 3 || sum.EtaMs != -1 {
		t.Fatalf("initial summary = %+v", sum)
	}

	p.CellRunning(0)
	p.CellRunning(1)
	p.CellDone(0, "fp-a", nil)
	cells, sum = decodeProgress(t, p)
	if cells[0].State != StateDone || cells[0].Fingerprint != "fp-a" {
		t.Fatalf("cell 0 = %+v", cells[0])
	}
	if cells[1].State != StateRunning || cells[2].State != StateQueued {
		t.Fatalf("cells = %+v", cells)
	}
	if sum.Done != 1 || sum.Running != 1 || sum.Queued != 1 || sum.EtaMs < 0 {
		t.Fatalf("mid summary = %+v", sum)
	}

	p.CellDone(1, "", errors.New("boom"))
	p.CellRunning(2)
	p.CellDone(2, "fp-c", nil)
	cells, sum = decodeProgress(t, p)
	if cells[1].State != StateFailed || cells[1].Error != "boom" {
		t.Fatalf("failed cell = %+v", cells[1])
	}
	if sum.Done != 3 || sum.Failed != 1 || sum.EtaMs != 0 {
		t.Fatalf("final summary = %+v", sum)
	}
}

// decodeProgress renders p and decodes every NDJSON line, failing on
// malformed JSON, a missing summary, or cells after the summary.
func decodeProgress(t *testing.T, p *SweepProgress) ([]CellLine, SummaryLine) {
	t.Helper()
	var sb strings.Builder
	if err := p.WriteNDJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var cells []CellLine
	var sum SummaryLine
	sawSummary := false
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	for sc.Scan() {
		if sawSummary {
			t.Fatalf("line after summary: %s", sc.Text())
		}
		// Distinguish line kinds by the summary marker field.
		var probe map[string]any
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if probe["summary"] == true {
			if err := json.Unmarshal(sc.Bytes(), &sum); err != nil {
				t.Fatal(err)
			}
			sawSummary = true
			continue
		}
		var c CellLine
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			t.Fatal(err)
		}
		if c.Cell == "" || c.State == "" {
			t.Fatalf("cell line missing fields: %s", sc.Text())
		}
		cells = append(cells, c)
	}
	if !sawSummary {
		t.Fatal("no summary line")
	}
	return cells, sum
}

// TestProgressNil drives the nil tracker (progress disabled).
func TestProgressNil(t *testing.T) {
	var p *SweepProgress
	p.Start([]string{"x"})
	p.CellRunning(0)
	p.CellDone(0, "fp", nil)
	if err := p.WriteNDJSON(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

// TestProgressOutOfRange checks stray indices are ignored, not panics.
func TestProgressOutOfRange(t *testing.T) {
	p := NewSweepProgress("")
	p.Start([]string{"only"})
	p.CellRunning(5)
	p.CellDone(-1, "", nil)
	_, sum := decodeProgress(t, p)
	if sum.Done != 0 || sum.Running != 0 {
		t.Fatalf("summary after stray indices = %+v", sum)
	}
}

// TestCellRecords: a cell's record is at most 64 bytes, and its keys
// are the tracker's own copy, not slices of what the caller's keys were
// cut from (a job's address block); a running cell's elapsed time
// grows, a finished one's stays put, and a cell done without running
// has none.
func TestCellRecords(t *testing.T) {
	if n := unsafe.Sizeof(cellStat{}); n > 64 {
		t.Errorf("cellStat is %d bytes, want at most 64", n)
	}
	block := "a/x/P=1b/x/P=1c/x/P=1"
	lo := uintptr(unsafe.Pointer(unsafe.StringData(block)))
	p := NewSweepProgress("records")
	for _, keys := range [][]string{{block[:7]}, {block[:7], block[7:14], block[14:]}} {
		p.Start(keys)
		for i, c := range p.cells {
			if at := uintptr(unsafe.Pointer(unsafe.StringData(c.key))); c.key != keys[i] || at >= lo && at < lo+uintptr(len(block)) {
				t.Errorf("cell %d of %d: key %q, want a copy of %q", i, len(keys), c.key, keys[i])
			}
		}
	}
	snap := func() []CellLine {
		p.mu.Lock()
		defer p.mu.Unlock()
		lines, _ := p.snapshotLocked(nil)
		return lines
	}
	p.CellRunning(0)
	p.CellDone(1, "fp1", nil) // derived: done without running
	p.CellCached(2, "fp2")
	time.Sleep(2 * time.Millisecond)
	if l := snap()[0]; l.State != StateRunning || l.ElapsedMs < 2 {
		t.Errorf("running cell: %+v, want running for at least 2 ms", l)
	}
	p.CellDone(0, "fp0", nil)
	ran := snap()[0].ElapsedMs
	time.Sleep(2 * time.Millisecond)
	lines := snap()
	if l := lines[0]; l.State != StateDone || l.ElapsedMs != ran || ran < 2 {
		t.Errorf("finished cell: %+v, want done after %v ms, and still so", l, ran)
	}
	for _, l := range lines[1:] {
		if l.ElapsedMs != 0 || l.Cell == "" {
			t.Errorf("cell that never ran: %+v, want no elapsed time", l)
		}
	}
	if lines[1].State != StateDone || lines[2].State != StateCached {
		t.Errorf("states %q, %q; want done, cached", lines[1].State, lines[2].State)
	}
}

// TestFinishedSummaryFrozen: a finished sweep's summary line, its
// elapsed time included, reads the same however late it is read.
func TestFinishedSummaryFrozen(t *testing.T) {
	p := NewSweepProgress("frozen")
	p.Start([]string{"a", "b"})
	p.CellRunning(0)
	p.CellDone(0, "fp-a", nil)
	p.CellCached(1, "fp-b")
	read := func() string {
		var sb strings.Builder
		if err := p.WriteNDJSON(&sb); err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitAfter(sb.String(), "\n")
		return lines[len(lines)-2]
	}
	first := read()
	time.Sleep(5 * time.Millisecond)
	if again := read(); again != first {
		t.Errorf("a finished sweep's summary changed between reads:\n%s%s", first, again)
	}
}

// compactText reads keys and fingerprints back as the tracker writes
// them, from a copy of its own, as a job's fragments do.
func compactText(keys, fps []string) CellText {
	return func(b []byte, i int) ([]byte, []byte) {
		return appendString(b, keys[i]), appendString(nil, fps[i])
	}
}

// TestCompactKeepsLines: a finished tracker writes the same bytes
// before and after Compact, for cells that ran, were derived or were
// cached, with keys and fingerprints that need escapes; a stream opened
// before Compact and one opened after end on the same lines. A tracker
// that has not finished, or has a failed cell, does not compact.
func TestCompactKeepsLines(t *testing.T) {
	keys := []string{"a/x/P=1", `b/<&>/P=2/TR="9"`, "c/x/P=3", "d/ /P=4"}
	fps := []string{"fp-a", "fp <b> & \"c\"", "", "fp-\xff"}
	p := NewSweepProgress("compact")
	p.Start(keys)
	p.CellRunning(0)
	p.CellRunning(3)
	time.Sleep(time.Millisecond)
	p.CellDone(0, fps[0], nil)
	p.CellDone(1, fps[1], nil) // derived: done without running
	if p.Compact(compactText(keys, fps)) {
		t.Fatal("a tracker with cells still running compacted")
	}
	p.CellCached(2, fps[2])
	p.CellDone(3, fps[3], nil)
	var before, stream strings.Builder
	if err := p.WriteNDJSON(&before); err != nil {
		t.Fatal(err)
	}
	if !p.Compact(compactText(keys, fps)) {
		t.Fatal("a finished tracker did not compact")
	}
	if p.cells != nil || len(p.states) != 4 || len(p.took) != 2 {
		t.Fatalf("compacted tracker keeps %d records, %d states and %d times; want 0, 4 and 2", len(p.cells), len(p.states), len(p.took))
	}
	var after strings.Builder
	if err := p.WriteNDJSON(&after); err != nil {
		t.Fatal(err)
	}
	if after.String() != before.String() {
		t.Errorf("lines changed by Compact:\nbefore:\n%safter:\n%s", before.String(), after.String())
	}
	if err := p.StreamNDJSON(&stream, time.Millisecond, nil); err != nil {
		t.Fatal(err)
	}
	if stream.String() != before.String() {
		t.Errorf("a stream of the compacted tracker:\n%swant:\n%s", stream.String(), before.String())
	}
	if p.Compact(compactText(keys, fps)) {
		t.Error("a compacted tracker compacted again")
	}

	p.Start(keys[:1])
	p.CellDone(0, "", errors.New("boom"))
	if p.Compact(compactText(keys, fps)) {
		t.Error("a tracker with a failed cell compacted")
	}
}
