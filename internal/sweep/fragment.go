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

// clone copies r's map and slice; the fragment is dropped, because the
// copy exists to be changed.
func (r CellResult) clone() CellResult {
	r.frag = nil
	r.Report.Extra = maps.Clone(r.Report.Extra)
	r.Report.HandoffLocality = slices.Clone(r.Report.HandoffLocality)
	return r
}
