package workload

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"rmalocks/internal/locks"
	"rmalocks/internal/scheme"
	"rmalocks/internal/topology"
)

// A Witness is what a finished run shows about the runs it did not
// make: the machine and the resolved T_DC the run's locks were built
// with, and one box per tracked threshold (locks.Threshold) — for a
// lock set, the intersection of every lock's box. It admits tunables t
// (Admits) when a run of the same Spec with Tunables t would make every
// decision this run made, and so produce this run's Report with only
// its Tunables field changed. The zero Witness admits nothing: a scheme
// without tracked thresholds, a Make spec or a failed run has none.
//
// A witness is plain data with one text form (Canonical, ParseWitness),
// so it can be stored beside the result it was produced with and used
// by another process.
type Witness struct {
	// Scheme is the run's scheme as the spec named it.
	Scheme string
	// P and PPN are the machine: topology.ForProcs(P, PPN).
	P, PPN int
	// TDC is the distributed-counter threshold the locks resolved to (0
	// for a scheme without counters). It is structure, not a threshold:
	// only tunables that resolve to the same T_DC are admitted.
	TDC int
	// Boxes holds the box of every tracked threshold under the key the
	// scheme's Resolve gives its value ("TR", "TW", "TL1", ...).
	Boxes map[string]locks.Box
}

// tracked is a lock whose thresholds remember what a run asked of them
// (rmarw, rmamcs).
type tracked interface {
	Boxes() map[string]locks.Box
}

// witness collects the lock set's witness after a successful run: the
// zero Witness when the scheme resolves no thresholds or some lock
// tracks none.
func witness(spec Spec, topo *topology.Topology, set []locks.RWMutex) Witness {
	d, err := scheme.Describe(spec.Scheme)
	if err != nil || d.Resolve == nil {
		return Witness{}
	}
	r, err := d.Resolve(topo, tunables(&d, topo.Levels(), spec.Tunables))
	if err != nil {
		return Witness{}
	}
	w := Witness{Scheme: spec.Scheme, P: spec.P, PPN: spec.ProcsPerNode, TDC: r.TDC}
	for _, l := range set {
		sl, ok := l.(scheme.Lock)
		if !ok {
			return Witness{}
		}
		tl, ok := sl.Underlying().(tracked)
		if !ok {
			return Witness{}
		}
		boxes := tl.Boxes()
		if w.Boxes == nil {
			w.Boxes = boxes
			continue
		}
		for k, b := range boxes {
			w.Boxes[k] = w.Boxes[k].Intersect(b)
		}
	}
	return w
}

// maxMachine bounds P and PPN of a witness that Admits will build a
// machine for, as topology bounds the ranks of one.
const maxMachine = 1 << 30

// Admits reports whether a run with tunables t would make every
// decision the witnessed run made. t must pass the registry's checks,
// and is completed as the harness completes it; the scheme's Resolve
// then maps it to the run's T_DC and a value inside every box, with no
// threshold unaccounted for on either side. It is w.Judge().Admits(t).
func (w Witness) Admits(t scheme.Tunables) bool { return w.Judge().Admits(t) }

// A Judge is a witness with its scheme's descriptor and its machine
// looked up once, for a holder that asks it about many tunables: a
// cache's stored run, or a sweep's simulated one. The zero Judge admits
// nothing. It is read-only, and safe for concurrent use.
type Judge struct {
	w      Witness
	d      *scheme.Descriptor // nil: the witness admits nothing
	topo   *topology.Topology
	levels int
}

// Judge resolves w's scheme and machine for Admits.
func (w Witness) Judge() Judge {
	if w.Scheme == "" || w.P < 1 || w.P > maxMachine || w.PPN < 1 || w.PPN > maxMachine {
		return Judge{}
	}
	d, err := scheme.Describe(w.Scheme)
	if err != nil || d.Resolve == nil {
		return Judge{}
	}
	topo := topology.ForProcs(w.P, w.PPN)
	return Judge{w: w, d: &d, topo: topo, levels: topo.Levels()}
}

// Admits is Witness.Admits for the witness j was made from.
func (j Judge) Admits(t scheme.Tunables) bool {
	if j.d == nil || j.d.Check(t, j.levels) != nil {
		return false
	}
	r, err := j.d.Resolve(j.topo, tunables(j.d, j.levels, t))
	if err != nil || r.TDC != j.w.TDC || len(r.Thresholds) != len(j.w.Boxes) {
		return false
	}
	for k, v := range r.Thresholds {
		if b, ok := j.w.Boxes[k]; !ok || !b.Contains(v) {
			return false
		}
	}
	return true
}

// Canonical renders the witness as its one text form:
//
//	<scheme> P=<p> ppn=<ppn> TDC=<tdc> <key>=<lo>..<hi> ...
//
// with the boxes in key order and every integer in decimal. The zero
// Witness renders as "".
func (w Witness) Canonical() string {
	if w.Scheme == "" {
		return ""
	}
	keys := make([]string, 0, len(w.Boxes))
	for k := range w.Boxes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b := make([]byte, 0, 32+40*len(keys))
	b = append(b, w.Scheme...)
	b = append(b, " P="...)
	b = strconv.AppendInt(b, int64(w.P), 10)
	b = append(b, " ppn="...)
	b = strconv.AppendInt(b, int64(w.PPN), 10)
	b = append(b, " TDC="...)
	b = strconv.AppendInt(b, int64(w.TDC), 10)
	for _, k := range keys {
		box := w.Boxes[k]
		b = append(b, ' ')
		b = append(b, k...)
		b = append(b, '=')
		b = strconv.AppendInt(b, box.Lo, 10)
		b = append(b, ".."...)
		b = strconv.AppendInt(b, box.Hi, 10)
	}
	return string(b)
}

// ParseWitness reads the text form Canonical writes, and only that: any
// other spelling of the same witness is an error, so a stored witness
// re-renders byte for byte. "" is the zero Witness.
func ParseWitness(s string) (Witness, error) {
	if s == "" {
		return Witness{}, nil
	}
	fields := strings.Split(s, " ")
	if len(fields) < 4 || fields[0] == "" || strings.Contains(fields[0], "=") {
		return Witness{}, fmt.Errorf("workload: witness %q: want <scheme> P= ppn= TDC= and boxes", s)
	}
	w := Witness{Scheme: fields[0], Boxes: make(map[string]locks.Box, len(fields)-4)}
	for i, f := range []struct {
		name string
		v    *int
	}{{"P", &w.P}, {"ppn", &w.PPN}, {"TDC", &w.TDC}} {
		v, ok := strings.CutPrefix(fields[i+1], f.name+"=")
		n, err := strconv.Atoi(v)
		if !ok || err != nil {
			return Witness{}, fmt.Errorf("workload: witness %q: field %d is not %s=<int>", s, i+2, f.name)
		}
		*f.v = n
	}
	for _, f := range fields[4:] {
		k, v, ok := strings.Cut(f, "=")
		lo, hi, ok2 := strings.Cut(v, "..")
		if !ok || !ok2 || k == "" {
			return Witness{}, fmt.Errorf("workload: witness %q: box %q is not <key>=<lo>..<hi>", s, f)
		}
		l, err := strconv.ParseInt(lo, 10, 64)
		h, err2 := strconv.ParseInt(hi, 10, 64)
		if err != nil || err2 != nil || l > h {
			return Witness{}, fmt.Errorf("workload: witness %q: box %q is not a range", s, f)
		}
		if _, dup := w.Boxes[k]; dup {
			return Witness{}, fmt.Errorf("workload: witness %q: box %s twice", s, k)
		}
		w.Boxes[k] = locks.Box{Lo: l, Hi: h}
	}
	if w.Canonical() != s {
		return Witness{}, fmt.Errorf("workload: witness %q is not in canonical form", s)
	}
	return w, nil
}
