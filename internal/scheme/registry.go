package scheme

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"rmalocks/internal/rma"
	"rmalocks/internal/topology"
)

// Descriptor declares one lock scheme: its identity, capabilities, the
// tunables it accepts, and a validating constructor. Lock packages
// register their descriptor from init, so importing an implementation
// makes it enumerable.
type Descriptor struct {
	// Name is the canonical (presentation) scheme name, e.g. "RMA-RW".
	// Lookups are case-insensitive, so "rma-rw" resolves too.
	Name string
	// Aliases are additional lookup names (also case-insensitive).
	Aliases []string
	// Doc is a one-line description of the scheme.
	Doc string
	// Caps is the capability mask (CapMutex, CapRW).
	Caps Caps
	// Order fixes the presentation order of Names (mutex baselines
	// first, then the RW locks, matching the paper's evaluation).
	Order int
	// Tunables declares the accepted tunables with defaults and ranges.
	Tunables []TunableSpec
	// New builds one lock on m from validated tunables. The registry
	// calls Check first, so New sees only known, in-range values; it may
	// still return errors for machine-dependent constraints (e.g. T_W
	// overflow).
	New func(m *rma.Machine, t Tunables) (Lock, error)
	// Resolve maps validated tunables to what a lock built from them on
	// topo runs with: the same mapping New builds from, so the two
	// cannot disagree. Nil for a scheme whose locks track no thresholds.
	Resolve func(topo *topology.Topology, t Tunables) (Resolved, error)
}

// Resolved is what a scheme's tunables come to on a machine: the
// structural counter threshold T_DC (0 for a scheme without counters)
// and the value of every tracked threshold (locks.Threshold) under its
// key — "TR", "TW", "TL1", ... — as the locks report their boxes.
type Resolved struct {
	TDC        int
	Thresholds map[string]int64
}

var (
	regMu   sync.RWMutex
	byName  = map[string]*Descriptor{} // normalized name/alias → descriptor
	ordered []*Descriptor
)

func normalize(name string) string { return strings.ToLower(strings.TrimSpace(name)) }

// Register adds a descriptor to the registry. It fails on duplicate
// names/aliases and malformed descriptors; lock packages use
// MustRegister from init.
func Register(d Descriptor) error {
	if d.Name == "" {
		return fmt.Errorf("scheme: descriptor with empty Name")
	}
	if d.New == nil {
		return fmt.Errorf("scheme: %s: descriptor without New", d.Name)
	}
	if !d.Caps.Has(CapMutex) {
		return fmt.Errorf("scheme: %s: every lock scheme must offer mutual exclusion (CapMutex)", d.Name)
	}
	seen := map[string]bool{}
	for _, spec := range d.Tunables {
		if spec.Key == "" {
			return fmt.Errorf("scheme: %s: tunable with empty Key", d.Name)
		}
		if c := spec.Key[len(spec.Key)-1]; spec.PerLevel && c >= '0' && c <= '9' {
			return fmt.Errorf("scheme: %s: per-level tunable key %q must not end in a digit", d.Name, spec.Key)
		}
		if seen[spec.Key] {
			return fmt.Errorf("scheme: %s: duplicate tunable key %q", d.Name, spec.Key)
		}
		seen[spec.Key] = true
		if spec.Min > spec.Max {
			return fmt.Errorf("scheme: %s: tunable %s has Min %d > Max %d", d.Name, spec.Key, spec.Min, spec.Max)
		}
		if spec.Default != 0 && (spec.Default < spec.Min || spec.Default > spec.Max) {
			return fmt.Errorf("scheme: %s: tunable %s default %d outside [%d, %d]", d.Name, spec.Key, spec.Default, spec.Min, spec.Max)
		}
	}
	names := append([]string{d.Name}, d.Aliases...)
	regMu.Lock()
	defer regMu.Unlock()
	for _, n := range names {
		if _, dup := byName[normalize(n)]; dup {
			return fmt.Errorf("scheme: duplicate registration of %q", n)
		}
	}
	dc := d // copy; the registry owns its descriptor
	dc.Aliases = append([]string(nil), d.Aliases...)
	dc.Tunables = append([]TunableSpec(nil), d.Tunables...)
	for _, n := range names {
		byName[normalize(n)] = &dc
	}
	ordered = append(ordered, &dc)
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].Order != ordered[j].Order {
			return ordered[i].Order < ordered[j].Order
		}
		return ordered[i].Name < ordered[j].Name
	})
	return nil
}

// MustRegister is Register but panics on error (init-time use).
func MustRegister(d Descriptor) {
	if err := Register(d); err != nil {
		panic(err)
	}
}

// Names lists every registered scheme's canonical name in presentation
// order.
func Names() []string {
	return names(func(*Descriptor) bool { return true })
}

// Mutexes lists the writer-only schemes (no CapRW) in presentation
// order: the paper's mutex comparison targets.
func Mutexes() []string {
	return names(func(d *Descriptor) bool { return !d.Caps.Has(CapRW) })
}

// RWCapable lists the schemes with genuine reader-writer semantics in
// presentation order.
func RWCapable() []string {
	return names(func(d *Descriptor) bool { return d.Caps.Has(CapRW) })
}

func names(keep func(*Descriptor) bool) []string {
	regMu.RLock()
	defer regMu.RUnlock()
	var out []string
	for _, d := range ordered {
		if keep(d) {
			out = append(out, d.Name)
		}
	}
	return out
}

// Describe returns a copy of the named scheme's descriptor (lookup is
// case-insensitive and alias-aware).
func Describe(name string) (Descriptor, error) {
	d, err := lookup(name)
	if err != nil {
		return Descriptor{}, err
	}
	dc := *d
	dc.Aliases = append([]string(nil), d.Aliases...)
	dc.Tunables = append([]TunableSpec(nil), d.Tunables...)
	return dc, nil
}

func lookup(name string) (*Descriptor, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	if d, ok := byName[normalize(name)]; ok {
		return d, nil
	}
	var have []string
	for _, d := range ordered {
		have = append(have, d.Name)
	}
	return nil, &UnknownSchemeError{Name: name, Have: have}
}

// spec resolves a tunable key against the descriptor: an exact
// non-per-level match, or a per-level family member ("TL2" → TL spec).
// levels bounds the accepted level range; pass 0 to skip the bound
// check (machine not known yet, e.g. CLI-time validation).
func (d *Descriptor) spec(key string, levels int) (*TunableSpec, error) {
	for i := range d.Tunables {
		s := &d.Tunables[i]
		if !s.PerLevel && s.Key == key {
			return s, nil
		}
	}
	if base, level, ok := splitLevel(key); ok {
		for i := range d.Tunables {
			s := &d.Tunables[i]
			if s.PerLevel && s.Key == base {
				if levels > 0 && level > levels {
					return nil, &LevelError{Scheme: d.Name, Key: key, Level: level, Levels: levels}
				}
				return s, nil
			}
		}
	}
	return nil, &UnknownTunableError{Scheme: d.Name, Key: key, Have: d.acceptedKeys()}
}

func (d *Descriptor) acceptedKeys() []string {
	var keys []string
	for _, s := range d.Tunables {
		if s.PerLevel {
			keys = append(keys, s.Key+"<level>")
		} else {
			keys = append(keys, s.Key)
		}
	}
	return keys
}

// Accepts reports whether the scheme accepts the tunable key (level
// bound checked only when levels > 0).
func (d *Descriptor) Accepts(key string, levels int) bool {
	_, err := d.spec(key, levels)
	return err == nil
}

// Check validates a tunable set against the descriptor: every key must
// resolve to a declared spec (with its level inside [1, levels] when
// levels > 0) and every value must lie inside the spec's range. Errors
// are typed (UnknownTunableError, RangeError, LevelError) and
// deterministic: keys are checked in sorted order.
func (d *Descriptor) Check(t Tunables, levels int) error {
	for _, key := range t.Keys() {
		s, err := d.spec(key, levels)
		if err != nil {
			return err
		}
		if v := t[key]; v < s.Min || v > s.Max {
			return &RangeError{Scheme: d.Name, Key: key, Value: v, Min: s.Min, Max: s.Max}
		}
	}
	return nil
}

// Check validates a tunable set against the named scheme without
// building a lock (levels as in Descriptor.Check).
func Check(name string, t Tunables, levels int) error {
	d, err := lookup(name)
	if err != nil {
		return err
	}
	return d.Check(t, levels)
}

// New validates t against the named scheme's descriptor and builds one
// lock on m. This is the registry's single construction entry point:
// the workload harness, the sweep engine and the rmalocks facade all
// dispatch through it.
func New(m *rma.Machine, name string, t Tunables) (Lock, error) {
	d, err := lookup(name)
	if err != nil {
		return nil, err
	}
	if err := d.Check(t, m.Topology().Levels()); err != nil {
		return nil, err
	}
	return d.New(m, t)
}
