package obs

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"strconv"
	"sync"
	"unsafe"
)

// The lines of /progress and /jobs/{id}/events are appended by hand
// into one buffer per stream, the bytes json.Encoder.Encode writes for
// the same CellLine or SummaryLine (FuzzProgressLines holds the two
// together): members in field order, omitempty members left out when
// zero, HTML-safe strings, floats as encoding/json formats them, and a
// trailing newline. A tick of the stream is then one Write.

// appendCellLine appends l's NDJSON line. The key text and
// fingerprint of a compacted tracker's line are read back through text
// (non-nil), in the form appendString gives them.
func appendCellLine(b []byte, l *CellLine, text CellText) []byte {
	b = append(b, `{"cell":`...)
	var fp []byte
	if text != nil {
		b, fp = text(b, l.index)
	} else {
		b = appendString(b, l.Cell)
	}
	b = append(b, `,"state":`...)
	b = appendString(b, l.State)
	switch {
	case len(fp) > len(`""`):
		b = append(b, `,"fingerprint":`...)
		b = append(b, fp...)
	case l.Fingerprint != "":
		b = append(b, `,"fingerprint":`...)
		b = appendString(b, l.Fingerprint)
	}
	if l.Error != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, l.Error)
	}
	if l.ElapsedMs != 0 {
		b = append(b, `,"elapsed_ms":`...)
		b = appendFloat(b, l.ElapsedMs)
	}
	return append(b, "}\n"...)
}

// appendSummaryLine appends s's NDJSON line.
func appendSummaryLine(b []byte, s *SummaryLine) []byte {
	b = append(b, `{"summary":`...)
	b = strconv.AppendBool(b, s.Summary)
	if s.Title != "" {
		b = append(b, `,"title":`...)
		b = appendString(b, s.Title)
	}
	b = append(b, `,"total":`...)
	b = strconv.AppendInt(b, int64(s.Total), 10)
	b = append(b, `,"done":`...)
	b = strconv.AppendInt(b, int64(s.Done), 10)
	b = append(b, `,"running":`...)
	b = strconv.AppendInt(b, int64(s.Running), 10)
	b = append(b, `,"queued":`...)
	b = strconv.AppendInt(b, int64(s.Queued), 10)
	b = append(b, `,"failed":`...)
	b = strconv.AppendInt(b, int64(s.Failed), 10)
	if s.Cached != 0 {
		b = append(b, `,"cached":`...)
		b = strconv.AppendInt(b, int64(s.Cached), 10)
	}
	b = append(b, `,"elapsed_ms":`...)
	b = appendFloat(b, s.ElapsedMs)
	b = append(b, `,"eta_ms":`...)
	b = appendFloat(b, s.EtaMs)
	return append(b, "}\n"...)
}

// appendString appends s quoted: copied as it is when no byte needs an
// escape, as in every key, state and fingerprint, and otherwise as
// json.Marshal writes it.
func appendString(b []byte, s string) []byte {
	if needsEscape(s) {
		q, _ := json.Marshal(s) // strings always marshal
		return append(b, q...)
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat appends f as encoding/json formats a float64: the
// shortest decimal that round-trips, in exponent form below 1e-6 and
// from 1e21 on, with a one-digit negative exponent unpadded. The
// tracker's floats are durations, never NaN or infinite, which
// encoding/json refuses.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

const (
	lsb = 0x0101010101010101
	msb = 0x8080808080808080
)

// needsEscape reports whether json.Marshal would write some byte of s
// other than as itself: a control byte, '"', '\\', one of the HTML
// characters '<', '>' and '&', or any byte of a multi-byte sequence
// (invalid UTF-8, U+2028 and U+2029 are rewritten; a valid rune is not,
// but is left to Marshal). It reads s a word at a time.
func needsEscape(s string) bool {
	p := unsafe.Slice(unsafe.StringData(s), len(s))
	i := 0
	for ; i+8 <= len(p); i += 8 {
		if escapeInWord(binary.LittleEndian.Uint64(p[i:])) {
			return true
		}
	}
	for ; i < len(p); i++ {
		if c := p[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return true
		}
	}
	return false
}

// escapeInWord reports whether one of x's eight bytes needs an escape
// (needsEscape), with the classic zero-byte test: (v-lsb) &^ v & msb
// is not zero exactly when some byte of v is zero. A byte is below
// 0x20 when subtracting 0x20 borrows; '"' (0x22) and '&' (0x26) are the
// bytes that or 0x04 makes 0x26; '<' (0x3c) and '>' (0x3e) those that
// or 0x02 makes 0x3e; and a byte from 0x80 on has its top bit set.
func escapeInWord(x uint64) bool {
	quoteAmp := (x | 0x04*lsb) ^ '&'*lsb
	angle := (x | 0x02*lsb) ^ '>'*lsb
	backslash := x ^ '\\'*lsb
	return ((x-0x20*lsb)&^x|
		(quoteAmp-lsb)&^quoteAmp|
		(angle-lsb)&^angle|
		(backslash-lsb)&^backslash|
		x)&msb != 0
}

// maxPooled is the largest buffer a pool keeps: one big grid's stream
// should not pin its memory for every later one.
const maxPooled = 8 << 20

// ndjson is one stream's scratch, pooled across streams: the bytes of a
// tick, the snapshot they are appended from, and the state each cell
// was last sent in.
type ndjson struct {
	buf   []byte
	lines []CellLine
	last  []string
}

var ndjsonPool = sync.Pool{New: func() any { return new(ndjson) }}

func getNDJSON() *ndjson {
	s := ndjsonPool.Get().(*ndjson)
	s.buf, s.lines, s.last = s.buf[:0], s.lines[:0], s.last[:0]
	return s
}

// putNDJSON returns s to the pool without the strings its snapshot
// held.
func putNDJSON(s *ndjson) {
	if cap(s.buf) > maxPooled {
		return
	}
	clear(s.lines[:cap(s.lines)])
	ndjsonPool.Put(s)
}
