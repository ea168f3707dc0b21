package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// RunFile is the persisted form of one sweep run — the results/*.json
// format. Cells are stored in canonical grid order, each with its full
// Report and Fingerprint. A run file holds nothing but the label and the
// cells, so it is a pure function of its grid: two runs agree exactly
// when their files are cmp-equal.
type RunFile struct {
	// Label describes the run (the grid title in workbench output).
	Label string `json:"label,omitempty"`
	// Cells holds the merged results in canonical order.
	Cells []CellResult `json:"cells"`
}

// Encode renders the run in the persisted format — the bytes of
// json.MarshalIndent(rf, "", "  ") plus a trailing newline — in a
// buffer of its own: AppendEncode(nil, rf).
func Encode(rf RunFile) ([]byte, error) { return AppendEncode(nil, rf) }

// AppendEncode appends the run's persisted form to b, and is the one
// assembly path for `workbench -out` and Save: the header, then every
// cell's fragment (the one it carries, or marshal + indent on the spot
// for a cell that has none), with b grown once, up front, to the size
// the fragments add up to. Cache-served and derived cells, and the runs
// derived cells came from, carry one, so a run of such cells is a copy
// of stored and spliced bytes, and a result sweepd serves
// (AppendFragments) is byte-identical to a local `workbench -out` file
// of the same grid. A caller that hands in a reused buffer assembles a
// result without allocating one.
func AppendEncode(b []byte, rf RunFile) ([]byte, error) {
	size := 0
	for i := range rf.Cells {
		// A cell without a fragment grows the buffer when it gets there.
		size += len(rf.Cells[i].frag)
	}
	return appendRun(b, rf.Label, rf.Cells == nil, len(rf.Cells), size, func(buf *bytes.Buffer, i int) error {
		if frag := rf.Cells[i].frag; frag != nil {
			buf.Write(frag)
			return nil
		}
		payload, err := json.Marshal(rf.Cells[i])
		if err != nil {
			return err
		}
		return json.Indent(buf, payload, fragPrefix, fragIndent)
	})
}

// AppendFragments appends to b the persisted form of the run labelled
// label whose cells' fragments (Fragment) are frags, in order: the
// bytes AppendEncode writes for those cells, through the same writer.
// It is how sweepd serves a finished job, which keeps its cells'
// fragments and nothing else of them.
func AppendFragments(b []byte, label string, frags [][]byte) []byte {
	size := 0
	for _, f := range frags {
		size += len(f)
	}
	b, _ = appendRun(b, label, frags == nil, len(frags), size, func(buf *bytes.Buffer, i int) error {
		buf.Write(frags[i])
		return nil
	})
	return b
}

// appendRun is the one writer of a run file: the label, then the n
// cells that cell writes in order, each at its place in the cells
// array (nil writes a null array), then the closing brace, with b grown
// once by what the fragments are known to add up to, fragBytes.
func appendRun(b []byte, label string, null bool, n, fragBytes int, cell func(buf *bytes.Buffer, i int) error) ([]byte, error) {
	// Strings always marshal.
	lab, _ := json.Marshal(label)
	// The writes go through a bytes.Buffer over b: it grows b by
	// doubling where append would grow a large slice by a quarter.
	buf := bytes.NewBuffer(b)
	buf.Grow(len(lab) + 64 + fragBytes + n*(len(fragPrefix)+len(",\n")))
	buf.WriteString("{\n")
	if label != "" {
		buf.WriteString(`  "label": `)
		buf.Write(lab)
		buf.WriteString(",\n")
	}
	switch {
	case null:
		buf.WriteString(`  "cells": null`)
	case n == 0:
		buf.WriteString(`  "cells": []`)
	default:
		buf.WriteString(`  "cells": [`)
		for i := 0; i < n; i++ {
			if i > 0 {
				buf.WriteByte(',')
			}
			buf.WriteString("\n" + fragPrefix)
			if err := cell(buf, i); err != nil {
				return nil, err
			}
		}
		buf.WriteString("\n  ]")
	}
	buf.WriteString("\n}\n")
	return buf.Bytes(), nil
}

// Save writes the run as indented JSON, creating parent directories as
// needed (results/ is the conventional home). The write goes through a
// temporary file in the target's directory and a rename, so an
// interrupted save never leaves a truncated run file behind. A target that
// exists and is not a regular file (a device such as /dev/stdout, a FIFO)
// is written in place: renaming over it would replace the node itself.
func Save(path string, rf RunFile) error {
	if err := save(path, rf); err != nil {
		return fmt.Errorf("sweep: save %s: %w", path, err)
	}
	return nil
}

func save(path string, rf RunFile) error {
	data, err := Encode(rf)
	if err != nil {
		return err
	}
	if fi, err := os.Stat(path); err == nil && !fi.Mode().IsRegular() {
		return os.WriteFile(path, data, 0o644)
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// Load reads a run persisted by Save.
func Load(path string) (RunFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return RunFile{}, fmt.Errorf("sweep: load %s: %w", path, err)
	}
	var rf RunFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return RunFile{}, fmt.Errorf("sweep: load %s: %w", path, err)
	}
	return rf, nil
}
