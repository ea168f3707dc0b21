package main

// Flag-list parsing and validation. Every comma-list flag is checked
// eagerly at startup with a typed error: a typo'd scheme, workload,
// profile or tunable key must fail the invocation, not silently
// enumerate an empty (or unfiltered) grid — the sweep engine's
// per-scheme axis projection is exactly the mechanism that would
// otherwise swallow an unknown -tune key without a trace.

import (
	"fmt"
	"strconv"
	"strings"

	"rmalocks/internal/fault"
	"rmalocks/internal/scheme"
	"rmalocks/internal/sweep"
	"rmalocks/internal/workload"
)

// UnknownNameError reports a comma-list flag entry that names nothing:
// the flag it arrived on, the offending entry, and the accepted names.
type UnknownNameError struct {
	Flag string
	Name string
	Have []string
}

func (e *UnknownNameError) Error() string {
	return fmt.Sprintf("workbench: -%s: unknown entry %q (have %s)",
		e.Flag, e.Name, strings.Join(e.Have, ","))
}

// EmptyListError reports a comma-list flag that parsed to no entries
// (e.g. -schemes "" or -schemes ","): an empty axis would enumerate
// zero cells and print an empty table that looks like success.
type EmptyListError struct {
	Flag string
}

func (e *EmptyListError) Error() string {
	return fmt.Sprintf("workbench: -%s: empty list", e.Flag)
}

// BadEntryError reports a comma-list flag entry that does not parse as
// what the flag takes: -ps wants positive rank counts.
type BadEntryError struct {
	Flag  string
	Entry string
}

func (e *BadEntryError) Error() string {
	return fmt.Sprintf("workbench: -%s: bad entry %q", e.Flag, e.Entry)
}

// parsePs parses the -ps sweep list; without one the run takes the
// single -p.
func parsePs(s string, single int) ([]int, error) {
	if s == "" {
		return []int{single}, nil
	}
	var ps []int
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v <= 0 {
			return nil, &BadEntryError{Flag: "ps", Entry: part}
		}
		ps = append(ps, v)
	}
	if len(ps) == 0 {
		return nil, &EmptyListError{Flag: "ps"}
	}
	return ps, nil
}

// splitNames splits a comma list ("all" selects the full set) and
// validates every entry through valid — a typed UnknownNameError for
// the first unknown entry, EmptyListError when nothing remains.
func splitNames(flagName, s string, all []string, valid func(string) bool) ([]string, error) {
	if s == "all" {
		return all, nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p == "" {
			continue
		}
		if !valid(p) {
			return nil, &UnknownNameError{Flag: flagName, Name: p, Have: all}
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, &EmptyListError{Flag: flagName}
	}
	return out, nil
}

// splitSchemes validates scheme entries through the registry (alias-
// and case-aware), so -schemes rmarw keeps working.
func splitSchemes(s string) ([]string, error) {
	return splitNames("schemes", s, workload.Schemes, func(name string) bool {
		_, err := scheme.Describe(name)
		return err == nil
	})
}

func splitWorkloads(s string) ([]string, error) {
	return splitNames("workloads", s, workload.WorkloadNames, func(name string) bool {
		_, err := workload.ByName(name)
		return err == nil
	})
}

func splitProfiles(s string) ([]string, error) {
	return splitNames("profiles", s, workload.ProfileNames, func(name string) bool {
		for _, have := range workload.ProfileNames {
			if name == have {
				return true
			}
		}
		return false
	})
}

// validateTuneKeys rejects -tune axes no selected scheme accepts: the
// per-scheme projection (sweep.axesFor) would drop such an axis from
// every scheme, silently sweeping nothing. The error lists the union
// of tunable keys the selected schemes do accept.
func validateTuneKeys(schemes []string, axes []sweep.TunableAxis) error {
	for _, ax := range axes {
		accepted := false
		var have []string
		seen := map[string]bool{}
		for _, s := range schemes {
			d, err := scheme.Describe(s)
			if err != nil {
				return nil // unknown scheme: the run surfaces its own typed error
			}
			if d.Accepts(ax.Key, 0) {
				accepted = true
			}
			for _, ts := range d.Tunables {
				if !seen[ts.Key] {
					seen[ts.Key] = true
					have = append(have, ts.Key)
				}
			}
		}
		if !accepted {
			return &UnknownNameError{Flag: "tune", Name: ax.Key, Have: have}
		}
	}
	return nil
}

// faultAxes accumulates repeated -faults flags into the grid's
// fault-injection axis. Each flag value is one full profile spec
// (internal/fault grammar, e.g.
// "jitter=0.2,stragglers=4x1%,stall=50us@0.01"); parse errors surface
// the fault package's typed UnknownKeyError / ValueError, and two
// flags canonicalizing identically are rejected like a duplicate
// -tune axis (they would enumerate colliding cell Keys).
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
	for _, prev := range *f {
		if prev.Canonical() == p.Canonical() {
			return fmt.Errorf("duplicate -faults profile %q", p.Canonical())
		}
	}
	*f = append(*f, p)
	return nil
}
