package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"slices"
	"unsafe"

	"rmalocks/internal/workload"
)

// A cell's run-file fragment is its compact JSON encoding re-indented
// to the depth it has inside RunFile.Cells. json.MarshalIndent is
// json.Marshal followed by json.Indent over the whole document, and
// Indent treats a nested element exactly like a document whose prefix
// is the element's own indentation, so
//
//	json.Indent(dst, json.Marshal(cell), "    ", "  ")
//
// is byte for byte what MarshalIndent(runFile, "", "  ") emits for that
// element (TestEncodeMatchesMarshalIndent and its fuzz target hold the
// two together). Encode splices fragments; internal/cache keeps one per
// resident entry, so a served cell is never decoded or marshalled again.
// A derived cell's fragment is its source's with the three members
// that hold the tunables spliced (retune), so a derived cell is never
// marshalled either; a source Run simulated without a cache is encoded
// once, for all its derived siblings and itself.
const (
	fragPrefix = "    "
	fragIndent = "  "
)

// errNotCanonical rejects a stored payload that is valid JSON but not
// the encoding json.Marshal gives its own decoded value: unknown or
// reordered fields, a different number spelling, whitespace. Serving it
// would put bytes in a result that no local run writes.
var errNotCanonical = errors.New("sweep: cell payload is not in canonical form")

// fragmentOf marshals r and indents it to run-file depth.
func fragmentOf(r CellResult) ([]byte, error) {
	payload, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	return indentFragment(payload)
}

func indentFragment(payload []byte) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(2 * len(payload))
	if err := json.Indent(&buf, payload, fragPrefix, fragIndent); err != nil {
		return nil, err
	}
	// A fragment lives as long as its cache entry and is charged to the
	// cache's budget by capacity: keep its length, not the scratch's.
	return bytes.Clone(buf.Bytes()), nil
}

// DecodeCell turns a stored payload back into a cell with its fragment
// attached. The payload must be canonical, or it is refused:
// the fragment is derived from the payload's bytes, the value from its
// meaning, and only a canonical payload keeps the two the same cell.
func DecodeCell(payload []byte) (CellResult, error) {
	var r CellResult
	if err := json.Unmarshal(payload, &r); err != nil {
		return CellResult{}, fmt.Errorf("sweep: decode cell: %w", err)
	}
	canon, err := json.Marshal(r)
	if err != nil {
		return CellResult{}, fmt.Errorf("sweep: decode cell: %w", err)
	}
	if !bytes.Equal(canon, payload) {
		return CellResult{}, errNotCanonical
	}
	if r.frag, err = indentFragment(payload); err != nil {
		return CellResult{}, fmt.Errorf("sweep: decode cell: %w", err)
	}
	return r, nil
}

// SealCell returns a copy of r that shares no writable memory with it
// and carries its fragment — r's own when it has one, so a cell Run
// encoded for the cache is not encoded again. The copy is what a cache
// may keep and hand to any number of readers.
func SealCell(r CellResult) (CellResult, error) {
	c := r.clone()
	c.Trace, c.witness = nil, nil
	if r.frag != nil {
		c.frag = r.frag
		return c, nil
	}
	frag, err := fragmentOf(c)
	if err != nil {
		return CellResult{}, err
	}
	c.frag = frag
	return c, nil
}

// CellFragment returns the fragment r carries, nil if none. Read-only.
func CellFragment(r CellResult) []byte { return r.frag }

// Fragment returns r's fragment: the one it carries, read-only, or,
// for a cell that carries none, its encoding made now. The error is
// the one Encode gives for r, a cell that does not marshal.
func Fragment(r CellResult) ([]byte, error) {
	if r.frag != nil {
		return r.frag, nil
	}
	return fragmentOf(r)
}

// DecodeFragment turns a fragment that Fragment returned back into its
// cell, which carries it, so encoding the cell again copies frag.
func DecodeFragment(frag []byte) (CellResult, error) {
	var r CellResult
	if err := json.Unmarshal(frag, &r); err != nil {
		return CellResult{}, fmt.Errorf("sweep: decode fragment: %w", err)
	}
	r.frag = frag
	return r, nil
}

// CellWitness returns the witness Run attached to a result it handed to
// CellCache.Put: what the run that produced it shows about its
// siblings. It is the zero Witness on any other result. Read-only.
func CellWitness(r CellResult) workload.Witness {
	if r.witness == nil {
		return workload.Witness{}
	}
	return *r.witness
}

// CellFootprint estimates the bytes r keeps resident: the struct, its
// strings, map and slice, and the fragment. It is what internal/cache
// charges an entry against its budget.
func CellFootprint(r CellResult) int64 {
	rep := &r.Report
	n := int(unsafe.Sizeof(r)) + cap(r.frag) +
		len(r.Key.Scheme) + len(r.Key.Workload) + len(r.Key.Profile) + len(r.Key.Tunables) + len(r.Key.Faults) +
		len(rep.Scheme) + len(rep.Workload) + len(rep.Profile) + len(rep.Tunables) + len(rep.Faults) +
		len(r.Fingerprint) + 8*cap(rep.HandoffLocality)
	for k := range rep.Extra {
		// Key header and bytes, the value, and about a word of bucket
		// overhead per slot.
		n += 16 + len(k) + 8 + 8
	}
	return int64(n)
}

// The members a derived cell's fragment differs in from its source's,
// as json.Indent lays them out at run-file depth. Each starts a line of
// its own, and a string never holds a raw newline, so no marker can
// match inside a value.
const (
	keyP      = "\n        \"p\": "
	keyTun    = ",\n        \"tunables\": "
	reportP   = "\n        \"P\": "
	reportTun = ",\n        \"Tunables\": "
	fragEnd   = "\"\n    }" // the fingerprint's closing quote, the cell's brace
)

// The lines of a fragment that AppendKeyText reads: the opening of the
// cell and its key, each member of the key (keyMembers), the key's
// close, and the fingerprint, the cell's last member: the start of a
// cell member's line, and its name.
const (
	keyOpen  = "{\n      \"key\": {"
	keyClose = "\n      },"
	fpIndent = "\n      \""
	fpName   = "fingerprint\": \""
)

// keyMembers are the members of a fragment's key in field order: the
// start of each one's line, what the key text writes before its value,
// whether the value is a string, and whether the member may be left
// out (omitempty).
var keyMembers = [...]struct {
	line, sep     string
	str, optional bool
}{
	{"\n        \"scheme\": ", "", true, false},
	{"\n        \"workload\": ", "/", true, false},
	{"\n        \"profile\": ", "/", true, false},
	{keyP, "/P=", false, false},
	{keyTun[1:], "/", true, true},
	{"\n        \"faults\": ", "/faults=", true, true},
}

// AppendKeyText appends to b the key text (Key.String) of the cell frag
// encodes, and returns it with the cell's fingerprint, a slice of frag.
// Both are JSON strings, quoted and escaped as json.Marshal writes them.
// They are read off frag's layout, and nothing is decoded: each member
// of the key is a line of its own, in field order, and the fingerprint
// is the cell's last line. Marshal escapes a string rune by rune, and
// the key text joins its members with ASCII, so the members' escapes
// joined are the text's. ok is false, and b is returned as it was, when
// frag is not so laid out.
func AppendKeyText(b, frag []byte) (_, fingerprint []byte, ok bool) {
	n := len(b)
	rest, ok := cutPrefix(frag, keyOpen)
	if !ok {
		return b, nil, false
	}
	b = append(b, '"')
	for _, m := range keyMembers {
		line, set := cutPrefix(rest, m.line)
		if !set && m.optional {
			continue
		}
		end := bytes.IndexByte(line, '\n')
		if !set || end < 0 {
			return b[:n], nil, false
		}
		// A string's last byte is its quote: a comma after it ends the
		// member.
		v := bytes.TrimSuffix(line[:end], []byte{','})
		switch {
		case !m.str && len(v) == 0, m.str && (len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"'):
			return b[:n], nil, false
		case m.str:
			v = v[1 : len(v)-1]
		}
		b = append(append(b, m.sep...), v...)
		rest = line[end:]
	}
	if _, ok = cutPrefix(rest, keyClose); !ok {
		return b[:n], nil, false
	}
	b = append(b, '"')
	// The fingerprint ends the cell. Its name followed by a string is
	// found nowhere before it: a string's quotes are escaped, and no
	// other member of that name holds a string. The search skips ahead
	// to the name's first byte, 'f', which few lines hold.
	body, ok := bytes.CutSuffix(frag, []byte(fragEnd))
	at := bytes.Index(body, []byte(fpName))
	if !ok || at < len(fpIndent) || string(body[at-len(fpIndent):at]) != fpIndent {
		return b[:n], nil, false
	}
	return b, frag[at+len(fpName)-1 : len(body)+1], true
}

// cutPrefix is bytes.CutPrefix with a string prefix, which it compares
// without converting.
func cutPrefix(s []byte, prefix string) ([]byte, bool) {
	if len(s) < len(prefix) || string(s[:len(prefix)]) != prefix {
		return s, false
	}
	return s[len(prefix):], true
}

// retune returns src as the result of the sibling cell key names, which
// differs from src.Key in its tunables only: src's report with key's
// tunables. Its fingerprint and fragment are src's with the three
// places that hold the tunables spliced — key.tunables, report.Tunables
// and the fingerprint's tail (workload.Report.Retune) — so nothing is
// formatted or marshalled again. A src without a fragment (it does not
// marshal) gives a result without one. ok is false when key is not a
// sibling of src's, or src's fingerprint is not its report's, or its
// fragment not its encoding. The result shares src's map and slice,
// which nobody writes through (CellResult).
func retune(src CellResult, key Key) (r CellResult, ok bool) {
	sib := key
	sib.Tunables = src.Key.Tunables
	if sib != src.Key {
		return CellResult{}, false
	}
	fp, cut, ok := src.Report.Retune(src.Fingerprint, key.Tunables)
	if !ok {
		return CellResult{}, false
	}
	r = src
	r.Key, r.Report.Tunables, r.Fingerprint = key, key.Tunables, fp
	r.Trace, r.Derived, r.frag, r.witness = nil, true, nil, nil
	if src.frag == nil {
		return r, true
	}
	frag := src.frag
	k0, k1, ok := member(frag, 0, keyP, keyTun, src.Key.Tunables)
	if !ok {
		return CellResult{}, false
	}
	r0, r1, ok := member(frag, k1, reportP, reportTun, src.Report.Tunables)
	if !ok {
		return CellResult{}, false
	}
	tun := jsonEscape(key.Tunables)
	oldTail, newTail := jsonEscape(src.Fingerprint[cut:]), jsonEscape(fp[cut:])
	f1 := len(frag) - len(fragEnd)
	f0 := f1 - len(oldTail)
	if f0 < r1 || string(frag[f0:f1]) != oldTail || string(frag[f1:]) != fragEnd {
		return CellResult{}, false
	}
	size := len(frag) - (k1 - k0) - (r1 - r0) - len(oldTail) + len(newTail)
	if key.Tunables != "" {
		size += len(keyTun) + len(reportTun) + 2*(len(tun)+2)
	}
	b := make([]byte, 0, size)
	b = appendMember(append(b, frag[:k0]...), keyTun, tun, key.Tunables != "")
	b = appendMember(append(b, frag[k1:r0]...), reportTun, tun, key.Tunables != "")
	b = append(append(append(b, frag[r1:f0]...), newTail...), fragEnd...)
	r.frag = b
	return r, true
}

// member finds, in frag from offset from, the optional string member
// name that follows the integer member after p: the span [start, end)
// it occupies, empty at the integer's end when val is "". ok is false
// unless the span holds exactly val's member.
func member(frag []byte, from int, p, name, val string) (start, end int, ok bool) {
	i := bytes.Index(frag[from:], []byte(p))
	if i < 0 {
		return 0, 0, false
	}
	start = from + i + len(p)
	for start < len(frag) && (frag[start] == '-' || '0' <= frag[start] && frag[start] <= '9') {
		start++
	}
	rest := frag[start:]
	if val == "" {
		return start, start, !bytes.HasPrefix(rest, []byte(name))
	}
	esc := jsonEscape(val)
	n := len(name) + len(esc) + 2
	ok = len(rest) >= n && string(rest[:len(name)]) == name &&
		rest[len(name)] == '"' && string(rest[len(name)+1:n-1]) == esc && rest[n-1] == '"'
	return start, start + n, ok
}

// appendMember appends a string member, name and quoted esc, if set.
func appendMember(b []byte, name, esc string, set bool) []byte {
	if !set {
		return b
	}
	b = append(b, name...)
	b = append(b, '"')
	b = append(b, esc...)
	return append(b, '"')
}

// jsonEscape returns s as json.Marshal writes it between the quotes:
// s itself, without allocating, when no byte needs an escape, as in
// every canonical tunables or fault encoding.
func jsonEscape(s string) string {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // strings always marshal
			return string(q[1 : len(q)-1])
		}
	}
	return s
}

// clone copies r's map and slice; the fragment is dropped, because the
// copy exists to be changed.
func (r CellResult) clone() CellResult {
	r.frag = nil
	r.Report.Extra = maps.Clone(r.Report.Extra)
	r.Report.HandoffLocality = slices.Clone(r.Report.HandoffLocality)
	return r
}
