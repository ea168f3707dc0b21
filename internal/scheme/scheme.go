// Package scheme is the capability-based lock-scheme registry: the
// single source of truth for which lock schemes exist, what they can do
// (mutex vs reader-writer capabilities), and which tunables — the
// paper's three-dimensional lock parameter space T_DC, T_R, T_L,i
// (Figure 1, §3) — each of them accepts, together with the tunables'
// documented defaults and validity ranges.
//
// Each lock package (fompi, dmcs, rmamcs, rmarw) self-registers a
// Descriptor from an init function, so importing the implementations
// populates the registry; the workload harness, the sweep engine and
// the rmalocks facade then *enumerate* schemes and tunables as data
// instead of switching on scheme names. Construction goes through New,
// which validates tunables against the registered specs and returns
// typed errors (UnknownSchemeError, UnknownTunableError, RangeError,
// LevelError) instead of the silent-default/panic behaviour of the
// legacy per-scheme constructors.
package scheme

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"rmalocks/internal/locks"
)

// Caps is the capability bitmask of a lock scheme.
type Caps uint8

const (
	// CapMutex marks a scheme offering mutual exclusion.
	CapMutex Caps = 1 << iota
	// CapRW marks a scheme with genuine reader-writer semantics
	// (concurrent readers). Schemes without CapRW present the RWMutex
	// interface through a writer-only adaptation: reads acquire
	// exclusively.
	CapRW
	// CapTimeout marks a scheme supporting bounded acquisition
	// (locks.TryMutex / locks.TryRWMutex): a timed-out acquire is
	// cleanly abandoned with nothing enqueued. Queue locks whose MCS
	// node cannot be unlinked without successor cooperation do not have
	// it; requesting a timeout against them is typed-rejected
	// (CapabilityError).
	CapTimeout
)

// Has reports whether every capability in q is present in c.
func (c Caps) Has(q Caps) bool { return c&q == q }

func (c Caps) String() string {
	var parts []string
	if c.Has(CapMutex) {
		parts = append(parts, "Mutex")
	}
	if c.Has(CapRW) {
		parts = append(parts, "RW")
	}
	if c.Has(CapTimeout) {
		parts = append(parts, "Timeout")
	}
	if len(parts) == 0 {
		return "Caps(0)"
	}
	return strings.Join(parts, "|")
}

// TunableSpec declares one tunable of a scheme: its key, documented
// default and validity range. A PerLevel spec declares a whole family
// of keys — Key immediately followed by the 1-based tree level, e.g.
// "TL2" for T_L,2 — because the number of levels depends on the
// machine the lock is built for.
type TunableSpec struct {
	// Key is the canonical tunable key ("TDC", "TR", "TL"). For
	// PerLevel specs the accepted keys are Key + level ("TL1", "TL2",
	// ...).
	Key string
	// Doc is a one-line description shown by discovery consumers.
	Doc string
	// Default is the value used when the tunable is not given; 0 marks
	// a machine-dependent default described in Doc (e.g. T_DC = one
	// counter per compute node).
	Default int64
	// Min and Max bound accepted values (inclusive).
	Min, Max int64
	// PerLevel marks a per-tree-level family of keys (see Key).
	PerLevel bool
}

// Tunables maps tunable keys to values. Per-level tunables use the
// level-suffixed form ("TL2"). A nil map is a valid empty set.
type Tunables map[string]int64

// Clone returns an independent copy of t (nil stays nil).
func (t Tunables) Clone() Tunables {
	if t == nil {
		return nil
	}
	c := make(Tunables, len(t))
	for k, v := range t {
		c[k] = v
	}
	return c
}

// Keys returns t's keys in sorted order.
func (t Tunables) Keys() []string {
	keys := make([]string, 0, len(t))
	for k := range t {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Canonical renders t as the canonical "K1=V1,K2=V2" encoding with
// sorted keys: the textual identity used in sweep cell keys, report
// fingerprints and baselines. An empty set renders as "".
func (t Tunables) Canonical() string {
	if len(t) == 0 {
		return ""
	}
	var b strings.Builder
	for i, k := range t.Keys() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%d", k, t[k])
	}
	return b.String()
}

// Value returns t[key], or def when the key is absent.
func (t Tunables) Value(key string, def int64) int64 {
	if v, ok := t[key]; ok {
		return v
	}
	return def
}

// LevelSlice assembles the 1-based per-level slice consumed by the lock
// constructors from a PerLevel family: index i holds t[base+i] when
// set, 0 (meaning "scheme default") otherwise. Index 0 is unused, as in
// the paper's T_L,i notation.
func (t Tunables) LevelSlice(base string, levels int) []int64 {
	out := make([]int64, levels+1)
	for i := 1; i <= levels; i++ {
		out[i] = t[base+strconv.Itoa(i)]
	}
	return out
}

// splitLevel parses a level-suffixed key: "TL2" → ("TL", 2, true).
// Only the canonical spelling is accepted — a leading-zero suffix like
// "TL02" is rejected, because LevelSlice and Canonical would otherwise
// treat it as a distinct, silently-ignored key.
func splitLevel(key string) (base string, level int, ok bool) {
	i := len(key)
	for i > 0 && key[i-1] >= '0' && key[i-1] <= '9' {
		i--
	}
	if i == 0 || i == len(key) {
		return "", 0, false
	}
	n, err := strconv.Atoi(key[i:])
	if err != nil || n < 1 || key[i:] != strconv.Itoa(n) {
		return "", 0, false
	}
	return key[:i], n, true
}

// Lock is the unified handle the registry returns: every scheme
// presents the reader-writer interface (schemes without CapRW through a
// writer-only adaptation, so reads acquire exclusively), and carries
// its identity, capabilities and the concrete implementation for
// consumers that need scheme-specific statistics.
type Lock interface {
	locks.RWMutex
	// Name returns the canonical scheme name.
	Name() string
	// Caps returns the scheme's capability mask.
	Caps() Caps
	// Underlying returns the concrete lock implementation (e.g.
	// *rmamcs.Lock), for statistics and diagnostics.
	Underlying() any
}

// wrapped is the one Lock implementation.
type wrapped struct {
	locks.RWMutex
	name string
	caps Caps
	impl any
}

func (w wrapped) Name() string    { return w.name }
func (w wrapped) Caps() Caps      { return w.caps }
func (w wrapped) Underlying() any { return w.impl }

// WrapMutex adapts a mutex-only implementation to the unified Lock
// interface: reads acquire exclusively (locks.WriterOnly), and Caps
// reports CapMutex, plus CapTimeout when the implementation supports
// bounded acquisition (locks.TryMutex).
func WrapMutex(name string, mu locks.Mutex) Lock {
	caps := CapMutex
	if _, ok := mu.(locks.TryMutex); ok {
		caps |= CapTimeout
	}
	return wrapped{RWMutex: locks.WriterOnly{Mu: mu}, name: name, caps: caps, impl: mu}
}

// WrapRW wraps a genuine reader-writer implementation; Caps reports
// CapMutex|CapRW (a writer acquisition is mutual exclusion), plus
// CapTimeout when the implementation supports bounded acquisition
// (locks.TryRWMutex).
func WrapRW(name string, rw locks.RWMutex) Lock {
	caps := CapMutex | CapRW
	if _, ok := rw.(locks.TryRWMutex); ok {
		caps |= CapTimeout
	}
	return wrapped{RWMutex: rw, name: name, caps: caps, impl: rw}
}

// AsTimed extracts the bounded-acquire view of a registry lock:
// directly for TryRWMutex implementations, through the writer-only
// adaptation for TryMutex ones, or false for schemes without
// CapTimeout.
func AsTimed(l Lock) (locks.TryRWMutex, bool) {
	switch impl := l.Underlying().(type) {
	case locks.TryRWMutex:
		return impl, true
	case locks.TryMutex:
		return locks.TryWriterOnly{Mu: impl}, true
	}
	return nil, false
}

// ---------------------------------------------------------------------
// Typed validation errors.
// ---------------------------------------------------------------------

// UnknownSchemeError reports a scheme name absent from the registry.
type UnknownSchemeError struct {
	Name string
	Have []string
}

func (e *UnknownSchemeError) Error() string {
	return fmt.Sprintf("scheme: unknown scheme %q (have %v)", e.Name, e.Have)
}

// CapabilityError reports a request for a capability a scheme does not
// have, e.g. bounded-timeout acquires (CapTimeout) against an MCS-queue
// lock whose enqueued node cannot be abandoned.
type CapabilityError struct {
	Scheme string
	Need   Caps
}

func (e *CapabilityError) Error() string {
	return fmt.Sprintf("scheme: %s lacks capability %s", e.Scheme, e.Need)
}

// UnknownTunableError reports a tunable key the scheme does not accept.
type UnknownTunableError struct {
	Scheme string
	Key    string
	// Have lists the accepted keys, with per-level families shown as
	// "TL<level>".
	Have []string
}

func (e *UnknownTunableError) Error() string {
	return fmt.Sprintf("scheme: %s does not accept tunable %q (accepts %v)", e.Scheme, e.Key, e.Have)
}

// RangeError reports a tunable value outside its declared range.
type RangeError struct {
	Scheme, Key string
	Value       int64
	Min, Max    int64
}

func (e *RangeError) Error() string {
	return fmt.Sprintf("scheme: %s tunable %s=%d out of range [%d, %d]", e.Scheme, e.Key, e.Value, e.Min, e.Max)
}

// LevelError reports a per-level tunable addressing a tree level the
// machine does not have.
type LevelError struct {
	Scheme, Key string
	Level       int
	// Levels is the machine's level count.
	Levels int
}

func (e *LevelError) Error() string {
	return fmt.Sprintf("scheme: %s tunable %s addresses level %d of a %d-level machine", e.Scheme, e.Key, e.Level, e.Levels)
}
