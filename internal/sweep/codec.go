package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"rmalocks/internal/fault"
)

// WireError reports a Grid that cannot cross the wire: the named field
// is meaningful only in-process (a live obs registry, a trace sink).
type WireError struct {
	Field string
}

func (e WireError) Error() string {
	return fmt.Sprintf("sweep: grid field %s is not wire-expressible", e.Field)
}

// EncodeGrid marshals a grid into its JSON wire form (see Grid). Grids
// carrying in-process-only attachments fail with a typed WireError
// rather than silently dropping behaviour on the floor.
func EncodeGrid(g Grid) ([]byte, error) {
	switch {
	case g.Obs != nil:
		return nil, WireError{Field: "Obs"}
	case g.Trace != 0:
		return nil, WireError{Field: "Trace"}
	}
	// The fault-free baseline cell is implicit (faultsFor).
	g.Faults = slices.DeleteFunc(slices.Clone(g.Faults), func(fp *fault.Profile) bool { return fp == nil })
	return json.Marshal(g)
}

// DecodeGrid unmarshals a grid from its JSON wire form. Decoding is
// strict — unknown fields and anything but white space after the grid
// are rejected, so a typo'd or spliced submission fails eagerly instead
// of silently sweeping defaults — and fault profiles are parsed by
// internal/fault's validating grammar. A null fault entry is refused
// here: in a decoded grid it would be a nil profile, the baseline that
// Cells skips, and the grid would run without the entry it names.
func DecodeGrid(data []byte) (Grid, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var g Grid
	if err := dec.Decode(&g); err != nil {
		return Grid{}, fmt.Errorf("sweep: decode grid: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Grid{}, fmt.Errorf("sweep: decode grid: data after the grid")
	}
	if slices.Contains(g.Faults, nil) {
		return Grid{}, AxisError{Axis: "faults", Why: "an entry is null, not a fault profile (the fault-free cell is always enumerated)"}
	}
	return g, nil
}
