package workload

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"rmalocks/internal/rma"
	"rmalocks/internal/stats"
)

// runBufs holds the per-rank sample buffers of one harness run plus the
// summary scratch space. A sync.Pool recycles them across runs, so hot
// sweep loops (repeated cells, -check re-runs, benchmark iterations)
// stop re-allocating report buffers. Nothing in a Report aliases a
// runBufs, so pooling cannot change results.
type runBufs struct {
	rlat, wlat  [][]float64
	ends        []int64
	all, rs, ws []float64
}

var runBufPool = sync.Pool{New: func() any { return &runBufs{} }}

// getRunBufs returns a pooled buffer set sized for procs ranks, with
// ends zeroed and every per-rank sample slice emptied (capacity kept).
func getRunBufs(procs int) *runBufs {
	b := runBufPool.Get().(*runBufs)
	if cap(b.rlat) < procs {
		b.rlat = make([][]float64, procs)
		b.wlat = make([][]float64, procs)
		b.ends = make([]int64, procs)
	} else {
		b.rlat, b.wlat, b.ends = b.rlat[:procs], b.wlat[:procs], b.ends[:procs]
	}
	for i := 0; i < procs; i++ {
		b.rlat[i] = b.rlat[i][:0]
		b.wlat[i] = b.wlat[i][:0]
		b.ends[i] = 0
	}
	return b
}

func putRunBufs(b *runBufs) { runBufPool.Put(b) }

// Report is the unified outcome of one harness run.
type Report struct {
	// Scheme, Workload and Profile identify the grid cell.
	Scheme   string
	Workload string
	Profile  string
	// P is the process count of the machine.
	P int
	// Tunables is the canonical encoding of the scheme tunables the run
	// was constructed with ("TL2=16,TR=500", sorted keys; see
	// internal/scheme). Empty when the run used no explicit tunables,
	// and then omitted from JSON and the Fingerprint, so pre-registry
	// baselines stay byte-identical.
	Tunables string `json:",omitempty"`
	// Faults is the canonical encoding of the fault profile the run was
	// perturbed with (see internal/fault; e.g.
	// "jitter=0.2,stall=50000@0.01", sorted keys). Empty for fault-free
	// runs and then omitted from JSON and the Fingerprint, so fault-free
	// baselines stay byte-identical to pre-fault ones.
	Faults string `json:",omitempty"`

	// Ops is the number of measured cycles (Reads + Writes); WarmupOps
	// counts the discarded warm-up cycles.
	Ops       int64
	Reads     int64
	Writes    int64
	WarmupOps int64

	// ThroughputMops is aggregate measured acquisitions per second, in
	// millions (the paper's "mln locks/s").
	ThroughputMops float64
	// Latency summarizes per-cycle acquire→release virtual latency in
	// µs over all measured cycles; ReadLatency / WriteLatency split it
	// by entry mode.
	Latency      stats.Summary
	ReadLatency  stats.Summary
	WriteLatency stats.Summary

	// MakespanMs is the measured phase's virtual duration.
	MakespanMs float64
	// MaxClock is the total virtual makespan of the run in ns,
	// including warm-up (Machine.MaxClock).
	MaxClock int64
	// RemoteOps counts RMA operations that left their rank.
	RemoteOps int64
	// DirectEntries counts RMA-MCS acquisitions that short-cut into the
	// CS through an intra-element pass (0 for other schemes), including
	// warm-up cycles.
	DirectEntries int64

	// Extra holds workload-specific results (e.g. "stored" for DHTOps).
	Extra map[string]float64

	// Fairness is the Jain fairness index of per-rank lock acquisitions
	// over the measured phase; HandoffLocality is the handoff-distance
	// histogram (index = topology distance between consecutive holders
	// of the same lock: 0 = re-acquire, 1 = intra-node, 2 = cross-node
	// on a two-level machine). Both are computed only for traced runs
	// (Spec.Trace) and omitted from JSON and the Fingerprint otherwise,
	// so untraced baselines stay byte-identical to pre-trace ones.
	Fairness        float64 `json:",omitempty"`
	HandoffLocality []int64 `json:",omitempty"`
}

func (r Report) String() string {
	return fmt.Sprintf("%s/%s/%s P=%d: %.3f mln locks/s, mean latency %.2f µs, makespan %.2f ms",
		r.Scheme, r.Workload, r.Profile, r.P, r.ThroughputMops, r.Latency.Mean, r.MakespanMs)
}

// Fingerprint returns a canonical textual encoding of every field. Two
// runs of the same Spec must produce byte-identical fingerprints; the
// determinism regression tests rely on this. The Extra map is encoded
// in sorted-key order (map iteration order must never leak in), and the
// trace-only fields are appended only when the run was traced, so
// untraced fingerprints are byte-identical to those of pre-trace
// baselines. The tunables and faults come last (tailOf), so a sibling's
// fingerprint is this one with its tail swapped (Retune).
func (r Report) Fingerprint() string {
	keys := make([]string, 0, len(r.Extra))
	for k := range r.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	extra := ""
	for _, k := range keys {
		extra += fmt.Sprintf("%s=%v;", k, r.Extra[k])
	}
	tracePart := ""
	if r.HandoffLocality != nil || r.Fairness != 0 {
		// JSON omits a Fairness of -0 and decodes it as 0: write what a
		// decoded report writes.
		fair := r.Fairness
		if fair == 0 {
			fair = 0
		}
		tracePart = fmt.Sprintf(" fair=%v hloc=%v", fair, r.HandoffLocality)
	}
	var tail strings.Builder
	writeTail(&tail, r.Tunables, r.Faults)
	return fmt.Sprintf("%s/%s/%s P=%d ops=%d r=%d w=%d warm=%d thr=%v lat=%+v rlat=%+v wlat=%+v mk=%v clk=%d rem=%d de=%d extra=%s%s%s",
		r.Scheme, r.Workload, r.Profile, r.P, r.Ops, r.Reads, r.Writes, r.WarmupOps,
		r.ThroughputMops, r.Latency, r.ReadLatency, r.WriteLatency,
		r.MakespanMs, r.MaxClock, r.RemoteOps, r.DirectEntries, extra, tracePart, tail.String())
}

// tailOf is the tail of a fingerprint that holds the run's tunables and
// faults, " tun=T faults=F": a label and a value each, written only when
// the value is set. Nothing before the tail depends on Tunables, and it
// starts with a space when it is not empty.
func tailOf(tunables, faults string) [2][2]string {
	return [2][2]string{{" tun=", tunables}, {" faults=", faults}}
}

func writeTail(b *strings.Builder, tunables, faults string) {
	for _, part := range tailOf(tunables, faults) {
		if part[1] != "" {
			b.WriteString(part[0])
			b.WriteString(part[1])
		}
	}
}

// cutTail returns fp without the tail, and false if fp does not end
// with it.
func cutTail(fp, tunables, faults string) (string, bool) {
	parts := tailOf(tunables, faults)
	for i := len(parts) - 1; i >= 0; i-- {
		if parts[i][1] == "" {
			continue
		}
		var ok bool
		if fp, ok = strings.CutSuffix(fp, parts[i][1]); !ok {
			return "", false
		}
		if fp, ok = strings.CutSuffix(fp, parts[i][0]); !ok {
			return "", false
		}
	}
	return fp, true
}

// Retune returns the fingerprint of r with its Tunables set to tunables,
// given fp, r's own fingerprint: fp with its tunables-and-faults tail
// swapped, so nothing before the tail is formatted again. cut is where
// the tail starts, in fp and in the result alike. ok is false when fp
// does not end with r's tail, so it cannot be r's fingerprint.
func (r Report) Retune(fp, tunables string) (retuned string, cut int, ok bool) {
	head, ok := cutTail(fp, r.Tunables, r.Faults)
	if !ok {
		return "", 0, false
	}
	var b strings.Builder
	b.Grow(len(head) + len(" tun=") + len(tunables) + len(" faults=") + len(r.Faults))
	b.WriteString(head)
	writeTail(&b, tunables, r.Faults)
	return b.String(), len(head), true
}

// summarize assembles a Report from the raw per-rank samples in b. The
// summary scratch slices live in b too (SummarizeInPlace sorts them);
// their grown capacity is kept for the next pooled run.
func summarize(spec Spec, m *rma.Machine, start int64, b *runBufs) Report {
	var end int64
	var reads, writes int64
	rlat, wlat, ends := b.rlat, b.wlat, b.ends
	all, rs, ws := b.all[:0], b.rs[:0], b.ws[:0]
	first := spec.first()
	for r := first; r < len(ends); r++ {
		if ends[r] > end {
			end = ends[r]
		}
		reads += int64(len(rlat[r]))
		writes += int64(len(wlat[r]))
		rs = append(rs, rlat[r]...)
		ws = append(ws, wlat[r]...)
		all = append(all, rlat[r]...)
		all = append(all, wlat[r]...)
	}
	b.all, b.rs, b.ws = all, rs, ws
	ops := reads + writes
	return Report{
		Scheme:         spec.Scheme,
		Workload:       spec.Workload.Name(),
		Profile:        spec.Profile.Name(),
		P:              spec.P,
		Ops:            ops,
		Reads:          reads,
		Writes:         writes,
		WarmupOps:      int64(spec.Warmup * (len(ends) - first)),
		ThroughputMops: throughputMops(ops, end-start),
		Latency:        stats.SummarizeInPlace(all),
		ReadLatency:    stats.SummarizeInPlace(rs),
		WriteLatency:   stats.SummarizeInPlace(ws),
		MakespanMs:     float64(end-start) / 1e6,
		MaxClock:       m.MaxClock(),
		RemoteOps:      m.Stats().Remote(),
		Extra:          map[string]float64{},
	}
}

// throughputMops converts (ops, makespan ns) to million ops per second.
func throughputMops(ops int64, ns int64) float64 {
	if ns <= 0 {
		return 0
	}
	return float64(ops) / float64(ns) * 1e3
}
