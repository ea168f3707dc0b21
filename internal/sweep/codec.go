package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"rmalocks/internal/fault"
)

// gridWire is the JSON wire form of a Grid — the request body of
// cmd/sweepd's POST /jobs and the payload of `workbench -submit`. It
// covers exactly the fields that define what a sweep computes; the
// server-side attachment (Obs) and the unserializable trace mode
// (Trace) are deliberately not wire-expressible, so a submitted grid
// always produces cacheable, byte-reproducible cells.
type gridWire struct {
	Schemes       []string      `json:"schemes"`
	Workloads     []string      `json:"workloads"`
	Profiles      []string      `json:"profiles"`
	Ps            []int         `json:"ps,omitempty"`
	ProcsPerNode  int           `json:"ppn,omitempty"`
	Iters         int           `json:"iters,omitempty"`
	Seed          int64         `json:"seed,omitempty"`
	SeedSet       bool          `json:"seed_set,omitempty"`
	FW            float64       `json:"fw,omitempty"`
	Locks         int           `json:"locks,omitempty"`
	ZipfS         float64       `json:"zipfs,omitempty"`
	ZipfSSet      bool          `json:"zipfs_set,omitempty"`
	ThinkNs       int64         `json:"think_ns,omitempty"`
	ThinkJitterNs int64         `json:"think_jitter_ns,omitempty"`
	RemotePct     int64         `json:"remote_pct,omitempty"`
	Tunables      []tunableWire `json:"tunables,omitempty"`
	// Faults carries the canonical fault-profile encodings (see
	// internal/fault's grammar, e.g. "jitter=0.2,stall=50000@0.01").
	Faults []string `json:"faults,omitempty"`
	Engine string   `json:"engine,omitempty"`
}

type tunableWire struct {
	Key    string  `json:"key"`
	Values []int64 `json:"values"`
}

// WireError reports a Grid that cannot cross the wire: the named field
// is meaningful only in-process (a live obs registry, a trace sink).
type WireError struct {
	Field string
}

func (e WireError) Error() string {
	return fmt.Sprintf("sweep: grid field %s is not wire-expressible", e.Field)
}

// EncodeGrid marshals a grid into its JSON wire form. Grids carrying
// in-process-only attachments fail with a typed WireError rather than
// silently dropping behaviour on the floor.
func EncodeGrid(g Grid) ([]byte, error) {
	switch {
	case g.Obs != nil:
		return nil, WireError{Field: "Obs"}
	case g.Trace != 0:
		return nil, WireError{Field: "Trace"}
	}
	w := gridWire{
		Schemes: g.Schemes, Workloads: g.Workloads, Profiles: g.Profiles,
		Ps: g.Ps, ProcsPerNode: g.ProcsPerNode, Iters: g.Iters,
		Seed: g.Seed, SeedSet: g.SeedSet, FW: g.FW, Locks: g.Locks,
		ZipfS: g.ZipfS, ZipfSSet: g.ZipfSSet,
		ThinkNs: g.ThinkNs, ThinkJitterNs: g.ThinkJitterNs,
		RemotePct: g.RemotePct, Engine: g.Engine,
	}
	for _, ax := range g.Tunables {
		w.Tunables = append(w.Tunables, tunableWire{Key: ax.Key, Values: ax.Values})
	}
	for _, fp := range g.Faults {
		if fp == nil {
			continue // the fault-free baseline cell is implicit (faultsFor)
		}
		w.Faults = append(w.Faults, fp.Canonical())
	}
	return json.Marshal(w)
}

// DecodeGrid unmarshals a grid from its JSON wire form. Decoding is
// strict — unknown fields and anything but white space after the grid
// are rejected, so a typo'd or spliced submission fails eagerly instead
// of silently sweeping defaults — and fault profiles are re-parsed
// through internal/fault's validating grammar.
func DecodeGrid(data []byte) (Grid, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var w gridWire
	if err := dec.Decode(&w); err != nil {
		return Grid{}, fmt.Errorf("sweep: decode grid: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Grid{}, fmt.Errorf("sweep: decode grid: data after the grid")
	}
	g := Grid{
		Schemes: w.Schemes, Workloads: w.Workloads, Profiles: w.Profiles,
		Ps: w.Ps, ProcsPerNode: w.ProcsPerNode, Iters: w.Iters,
		Seed: w.Seed, SeedSet: w.SeedSet, FW: w.FW, Locks: w.Locks,
		ZipfS: w.ZipfS, ZipfSSet: w.ZipfSSet,
		ThinkNs: w.ThinkNs, ThinkJitterNs: w.ThinkJitterNs,
		RemotePct: w.RemotePct, Engine: w.Engine,
	}
	for _, ax := range w.Tunables {
		g.Tunables = append(g.Tunables, TunableAxis{Key: ax.Key, Values: ax.Values})
	}
	for i, spec := range w.Faults {
		fp, err := fault.Parse(spec)
		if err != nil {
			return Grid{}, fmt.Errorf("sweep: decode grid: faults[%d]: %w", i, err)
		}
		g.Faults = append(g.Faults, fp)
	}
	return g, nil
}
