package main

// Flag parsing. A comma-list or axis flag is split into the grid's
// entries here and nothing more: whether an entry names something the
// grid can run is sweep.Grid.Cells' decision (a typed sweep.AxisError,
// RepeatedValueError or DuplicateAxisError), made once in main for
// local runs and submissions alike, and by sweepd for posted grids.

import (
	"fmt"
	"strconv"
	"strings"

	"rmalocks/internal/fault"
)

// BadEntryError reports a comma-list flag that does not parse as what
// the flag takes: -ps wants a list of integers.
type BadEntryError struct {
	Flag  string
	Entry string
}

func (e *BadEntryError) Error() string {
	return fmt.Sprintf("workbench: -%s: bad entry %q", e.Flag, e.Entry)
}

// parsePs parses the -ps sweep list; without one the run takes the
// single -p. A list with no entries is not one.
func parsePs(s string, single int) ([]int, error) {
	if s == "" {
		return []int{single}, nil
	}
	var ps []int
	for _, part := range splitList(s, nil) {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, &BadEntryError{Flag: "ps", Entry: part}
		}
		ps = append(ps, v)
	}
	if len(ps) == 0 {
		return nil, &BadEntryError{Flag: "ps", Entry: s}
	}
	return ps, nil
}

// splitList splits a comma list into its non-blank entries; "all"
// selects every name in all.
func splitList(s string, all []string) []string {
	if s == "all" {
		return all
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// faultAxes accumulates repeated -faults flags into the grid's
// fault-injection axis. Each flag value is one full profile spec
// (internal/fault grammar, e.g.
// "jitter=0.2,stragglers=4x1%,stall=50us@0.01"); parse errors surface
// the fault package's typed UnknownKeyError / ValueError.
type faultAxes []*fault.Profile

func (f *faultAxes) String() string {
	parts := make([]string, len(*f))
	for i, p := range *f {
		parts[i] = p.Canonical()
	}
	return strings.Join(parts, " ")
}

func (f *faultAxes) Set(s string) error {
	p, err := fault.Parse(s)
	if err != nil {
		return err
	}
	*f = append(*f, p)
	return nil
}
