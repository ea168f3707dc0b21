package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
)

// encoded is what json.Encoder.Encode writes for v, the bytes the
// appenders must reproduce.
func encoded(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzProgressLines: for any CellLine and SummaryLine, appendCellLine
// and appendSummaryLine write json.Encoder.Encode's bytes, after
// whatever a buffer already holds. Non-finite floats are skipped:
// encoding/json refuses them and the tracker's are durations.
func FuzzProgressLines(f *testing.F) {
	negZero := math.Copysign(0, -1)
	for _, s := range []struct {
		cell, state, fp, errText, title string
		elapsed, sumElapsed, eta        float64
		summary                         bool
		total, done, cached             int
	}{
		{"RMA-RW/dht/zipf/P=64/TR=2000", StateDone, "p=64 ppn=16 mean=1.5us", "", "job-1", 0.25, 12.5, 0, true, 240, 240, 192},
		{"a<b>&c", StateFailed, "x&y", "<script>", "t&t", 1, 2, -1, false, 1, 0, 0},
		{"bad\xffutf8", "\xc3\x28", "\xed\xa0\x80", "\xf0\x28\x8c\x28", "\x80", 3, 4, 5, true, 0, 0, 0},
		{"line sep ", "é", "日本語の指紋", " ", " ", 6, 7, 8, true, 3, 2, 1},
		{"ctl\x00\x01\x1f\x7f", "tab\tnl\n", "quote\"back\\slash", "cr\r", "\x1b[0m", 9, 10, 11, true, 1, 1, 1},
		{"", "", "", "", "", negZero, negZero, negZero, false, 0, 0, 0},
		{"tiny", StateRunning, "", "", "", 1e-7, 9.999999e-7, 1e-6, true, 1, 0, 0},
		{"huge", StateRunning, "", "", "", 1e21, 9.99999999999e20, 1.7976931348623157e308, true, 1, 0, 0},
		{"neg", StateQueued, "", "", "", -1e-300, -123456.789, -5e-324, true, -1, -2, -3},
		{strings.Repeat("abcdefg", 13), StateCached, strings.Repeat("0123456789 =/,.", 47), "", "", 0, 0, 0, true, 1, 1, 1},
	} {
		f.Add(s.cell, s.state, s.fp, s.errText, s.title, s.elapsed, s.sumElapsed, s.eta, s.summary, s.total, s.done, s.cached)
	}
	f.Fuzz(func(t *testing.T, cell, state, fp, errText, title string, elapsed, sumElapsed, eta float64, summary bool, total, done, cached int) {
		for _, v := range []float64{elapsed, sumElapsed, eta} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		prefix := []byte("held\n")
		l := CellLine{Cell: cell, State: state, Fingerprint: fp, Error: errText, ElapsedMs: elapsed}
		if got, want := appendCellLine(bytes.Clone(prefix), &l, nil), append(bytes.Clone(prefix), encoded(t, l)...); !bytes.Equal(got, want) {
			t.Fatalf("cell line\n got %q\nwant %q", got, want)
		}
		s := SummaryLine{
			Summary: summary, Title: title,
			Total: total, Done: done, Running: total - done, Queued: done - cached, Failed: cached - total,
			Cached: cached, ElapsedMs: sumElapsed, EtaMs: eta,
		}
		if got, want := appendSummaryLine(bytes.Clone(prefix), &s), append(bytes.Clone(prefix), encoded(t, s)...); !bytes.Equal(got, want) {
			t.Fatalf("summary line\n got %q\nwant %q", got, want)
		}
	})
}

// TestEscapeInWordEveryByte checks the word-wise test against the
// byte-wise one for every byte value at every position of a word whose
// other seven bytes are one safe value, so no neighbour's borrow can
// hide the byte or invent one. (A word with two unsafe bytes needs only
// one of them found.)
func TestEscapeInWordEveryByte(t *testing.T) {
	unsafeByte := func(c byte) bool {
		return c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&'
	}
	for fill := 0; fill < 256; fill++ {
		if unsafeByte(byte(fill)) {
			continue
		}
		for c := 0; c < 256; c++ {
			for pos := 0; pos < 8; pos++ {
				w := []byte(strings.Repeat(string(rune(fill)), 8))
				w[pos] = byte(c)
				if got, want := needsEscape(string(w)), unsafeByte(byte(c)); got != want {
					t.Fatalf("needsEscape(%q) = %v, want %v", w, got, want)
				}
			}
		}
	}
}

// TestWriteNDJSONOneWrite: a snapshot reaches its writer in one Write,
// and each of its lines is what json.Encoder writes for the value the
// line decodes to.
func TestWriteNDJSONOneWrite(t *testing.T) {
	p := NewSweepProgress("one <write>")
	p.Start([]string{"a/empty/uniform/P=16", "b&c/empty/uniform/P=16", "d/empty/uniform/P=16"})
	p.CellCached(0, "fp-a")
	p.CellRunning(1)
	p.CellDone(1, "", errors.New("boom\n"))
	p.CellRunning(2)
	var w countingWriter
	if err := p.WriteNDJSON(&w); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 {
		t.Errorf("%d writes, want 1", w.writes)
	}
	lines := bytes.SplitAfter(w.buf.Bytes(), []byte("\n"))
	if len(lines) != 5 || len(lines[4]) != 0 {
		t.Fatalf("%d lines, want 3 cells and a summary: %q", len(lines)-1, w.buf.Bytes())
	}
	for i, line := range lines[:4] {
		var v any = &CellLine{}
		if i == 3 {
			v = &SummaryLine{}
		}
		if err := json.Unmarshal(line, v); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if want := encoded(t, v); !bytes.Equal(line, want) {
			t.Errorf("line %d\n got %q\nwant %q", i, line, want)
		}
	}
}

type countingWriter struct {
	buf    bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}
