package workload

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"

	"rmalocks/internal/fault"
	"rmalocks/internal/locks/dmcs"
	"rmalocks/internal/locks/fompi"
	"rmalocks/internal/locks/rmamcs"
	"rmalocks/internal/locks/rmarw"
	"rmalocks/internal/obs"
	"rmalocks/internal/rma"
	"rmalocks/internal/scheme"
	"rmalocks/internal/stats"
	"rmalocks/internal/topology"
	"rmalocks/internal/trace"
)

// ErrRetriesExhausted aborts a faulted run whose fault profile sets
// onexhaust=abort once a rank runs out of bounded-acquire retries. It
// surfaces through Run wrapped (errors.Is-visible) identically on both
// engines, like sim.ErrTimeLimit.
var ErrRetriesExhausted = errors.New("workload: bounded-acquire retries exhausted")

// Lock scheme names understood by the harness, aliased from the lock
// packages' registry names so the layers cannot drift.
const (
	SchemeFoMPISpin = fompi.SchemeSpin
	SchemeDMCS      = dmcs.SchemeName
	SchemeRMAMCS    = rmamcs.SchemeName
	SchemeFoMPIRW   = fompi.SchemeRW
	SchemeRMARW     = rmarw.SchemeName
	// SchemeFoMPIA is the paper's lock-free DHT baseline (§5.3): no lock,
	// the workload's atomic operation family instead. A scheme coordinate,
	// not a registry scheme: Schemes does not list it.
	SchemeFoMPIA = "foMPI-A"
)

// AtomicFamilyError reports SchemeFoMPIA on a workload that has no
// atomic operation family: without a lock its critical sections would
// race.
type AtomicFamilyError struct {
	Workload string
}

func (e *AtomicFamilyError) Error() string {
	return fmt.Sprintf("workload: %s runs no lock, and workload %q has no atomic operation family", SchemeFoMPIA, e.Workload)
}

// Schemes lists every lock scheme the harness can run, derived from the
// scheme registry in presentation order: the mutexes (run through a
// writer-only adaptation) followed by the RW locks.
var Schemes = scheme.Names()

// tunables completes a run's typed tunables with the harness default:
// an RMA-RW lock given no locality threshold at all receives
// T_L,1..2 = (40, 25) — T_W = 1000, the paper's Fig. 4c middle. Levels
// below 2 (machines with racks) take the scheme default
// (rmarw.DefaultTL, the paper's 32); the harness's own runs always
// build two-level machines (topology.ForProcs), so their reports are
// unaffected by that default.
func tunables(d *scheme.Descriptor, levels int, tun scheme.Tunables) scheme.Tunables {
	if d.Name != SchemeRMARW || hasLevelKey(tun, "TL", levels) {
		return tun
	}
	t := tun.Clone()
	if t == nil {
		t = scheme.Tunables{}
	}
	harnessTL := []int64{0, 40, 25}
	for i := 1; i < len(harnessTL) && i <= levels; i++ {
		t["TL"+strconv.Itoa(i)] = harnessTL[i]
	}
	return t
}

func hasLevelKey(t scheme.Tunables, base string, levels int) bool {
	for i := 1; i <= levels; i++ {
		if _, ok := t[base+strconv.Itoa(i)]; ok {
			return true
		}
	}
	return false
}

// NewLockSet builds n instances of the named scheme on m through the
// scheme registry, so every scheme presents the RWMutex interface
// (mutex-only schemes through a writer-only adaptation). tun is
// validated strictly (typed errors for unknown or out-of-range
// tunables). Call before m.Run.
func NewLockSet(m *rma.Machine, name string, n int, tun scheme.Tunables) ([]scheme.Lock, error) {
	if n < 1 {
		n = 1
	}
	d, err := scheme.Describe(name)
	if err != nil {
		return nil, err
	}
	t := tunables(&d, m.Topology().Levels(), tun)
	set := make([]scheme.Lock, n)
	for i := range set {
		l, err := scheme.New(m, name, t)
		if err != nil {
			return nil, err
		}
		set[i] = l
	}
	return set, nil
}

// Spec configures one harness run: a lock scheme, a contention profile,
// a critical-section workload, and the machine dimensions. Zero fields
// select the defaults of the paper's evaluation setup.
type Spec struct {
	// Scheme selects the lock scheme: one of Schemes, or SchemeFoMPIA
	// for no lock at all.
	Scheme string

	// P is the process count (default 64).
	P int
	// ProcsPerNode is the machine shape (default 16, the paper's).
	ProcsPerNode int
	// Seed seeds the per-process RNG streams (default 1).
	Seed int64
	// TimeLimit bounds one run in virtual ns (default ~73 virtual
	// minutes), converting protocol livelock into an error.
	TimeLimit int64
	// RemotePct scales the calibrated inter-node latencies to this
	// percent (rma.RemoteLatency); 0 and 100 are the calibrated model.
	RemotePct int64

	// Iters is the number of measured cycles per participating process
	// (default 50).
	Iters int
	// Warmup is the number of discarded cycles before the measured
	// phase; 0 selects the paper's 10% (Iters/10+1) — none for the DHT
	// benchmark (DHTOps) — and negative disables warm-up entirely.
	Warmup int
	// Profile is the contention generator (default Uniform{FW: 1}: an
	// all-write single-lock workload).
	Profile Profile
	// Workload is the critical-section body (default Empty).
	Workload Workload
	// Tunables sets scheme tunables by registry key (the paper's typed
	// parameter space, e.g. "TR": 500, "TL2": 16). They are validated
	// strictly: unknown keys or out-of-range values fail the run with a
	// typed error from internal/scheme. Non-empty tunables are recorded in
	// Report.Tunables and its fingerprint; empty tunables leave reports
	// byte-identical to pre-registry baselines. Ignored when Scheme is
	// SchemeFoMPIA.
	Tunables scheme.Tunables

	// Faults, when non-nil, runs the cell under the deterministic
	// perturbation profile (see internal/fault): jitter, congestion,
	// stragglers and stalls flow into rma.Config.Faults; a Timeout
	// switches lock acquires to the bounded try/backoff/retry path,
	// which requires a scheme with the CapTimeout capability — others
	// fail with a typed *scheme.CapabilityError. Faulted runs stay
	// byte-identical across engines (differential-tested); the profile's
	// canonical string is recorded in Report.Faults and its fingerprint,
	// and degradation metrics (lat_p99/lat_p999, timeout/retry counts)
	// land in Report.Extra. Nil leaves reports byte-identical to
	// fault-free baselines.
	Faults *fault.Profile
	// FaultMetrics forces the tail-latency Extra keys (lat_p99,
	// lat_p999) even on a fault-free run. Sweep grids with a faults axis
	// set it on every cell, so the fault-free baseline cell carries the
	// percentiles the degradation pass divides by.
	FaultMetrics bool

	// Engine selects the scheduler implementation: "" or rma.EngineFast
	// for the token-owned fast-path scheduler, rma.EngineRef for the
	// reference one. The differential determinism suite runs every cell
	// on both and requires byte-identical reports.
	Engine string
	// NoCoalesce publishes every RMA charge to the scheduler at once, the
	// eager oracle of the default lazy publication (verification knob;
	// see rma.Config.NoCoalesce).
	NoCoalesce bool
	// MemStats records host memory cost in Report.Extra after the run:
	// "heap_bytes_per_rank" (live heap / P) and "sys_bytes_per_rank"
	// (total runtime-held memory / P, which includes goroutine stacks —
	// the dominant term when many ranks genuinely interleave). Off by
	// default: the numbers are host-dependent and Extra feeds the report
	// fingerprint, so enabling this forfeits byte-identical comparisons
	// against baselines recorded without it.
	MemStats bool
	// Trace, when non-nil, captures the run's event stream (see
	// internal/trace) and fills Report.Fairness and
	// Report.HandoffLocality from the measured phase. The sink is
	// restarted by the run and left holding the full stream (warm-up
	// included) for export or deeper analysis; it must not be shared by
	// concurrent runs. Tracing never changes the simulation — traced
	// and untraced runs are byte-identical up to the trace-only report
	// fields (differential-tested).
	Trace *trace.Sink
	// Obs, when non-nil, attaches live observability instruments to the
	// run (see internal/obs): setup/run/drain phase spans and an
	// iteration counter. Observe, never perturb: metric values never
	// enter Report.Extra or fingerprints, so obs-on and obs-off runs are
	// byte-identical (test-enforced), unlike MemStats.
	Obs *obs.Registry
}

func (s *Spec) fill() {
	if s.P == 0 {
		s.P = 64
	}
	if s.ProcsPerNode == 0 {
		s.ProcsPerNode = 16
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.TimeLimit == 0 {
		s.TimeLimit = 1 << 42
	}
	if s.Iters == 0 {
		s.Iters = 50
	}
	if s.Profile == nil {
		s.Profile = Uniform{FW: 1}
	}
	if s.Workload == nil {
		s.Workload = Empty{}
	}
	bench := hostedDHT(s.Workload)
	if s.Warmup == 0 && bench == nil {
		s.Warmup = s.Iters/10 + 1
	}
	if s.Warmup < 0 {
		s.Warmup = 0
	}
	if bench != nil && bench.Cells == 0 {
		bench.Cells = s.P*(s.Iters+s.Warmup) + 16
	}
}

// first is the lowest rank that runs cycles: 1 when rank 0 only hosts
// the DHT benchmark's volume.
func (s *Spec) first() int {
	if hostedDHT(s.Workload) != nil {
		return 1
	}
	return 0
}

// Run executes one workload benchmark: build the machine and lock set,
// run Warmup discarded cycles per process, synchronize on a barrier,
// run Iters measured cycles, and summarize. The per-cycle latency spans
// acquire through release (the paper's LB measures exactly this with an
// empty CS); think time is charged after the measurement point.
func Run(spec Spec) (Report, error) {
	rep, _, err := run(spec, false)
	return rep, err
}

// RunWitness is Run that also returns the run's Witness. It is the
// zero Witness for a scheme without tracked thresholds (SchemeFoMPIA
// among them) and for a failed run.
func RunWitness(spec Spec) (Report, Witness, error) {
	return run(spec, true)
}

func run(spec Spec, want bool) (Report, Witness, error) {
	spec.fill()
	setupSpan := spec.Obs.Span("setup")
	topo := topology.ForProcs(spec.P, spec.ProcsPerNode)
	cfg := rma.Config{Seed: spec.Seed, TimeLimit: spec.TimeLimit,
		Engine: spec.Engine, NoCoalesce: spec.NoCoalesce, Trace: spec.Trace,
		Faults: spec.Faults}
	if pct := spec.RemotePct; pct != 0 && pct != 100 {
		lat := rma.RemoteLatency(topo.MaxDistance(), pct)
		cfg.Latency = &lat
	}
	m := rma.NewMachineConfig(topo, cfg)
	// Everything below that looks into the machine (summarize, Extract,
	// the MemStats read) runs before this returns its scratch.
	defer m.Release()

	var set []scheme.Lock
	var err error
	noLock := spec.Scheme == SchemeFoMPIA
	if noLock {
		// Only the hashtable has an atomic operation family.
		if d, ok := spec.Workload.(*DHTOps); ok {
			d.Atomic = true
		} else {
			err = &AtomicFamilyError{Workload: spec.Workload.Name()}
		}
	} else {
		set, err = NewLockSet(m, spec.Scheme, spec.Profile.Locks(), spec.Tunables)
	}
	if err != nil {
		return Report{}, Witness{}, err
	}
	timed, err := timedSet(spec.Faults, set)
	if err != nil {
		return Report{}, Witness{}, err
	}
	spec.Workload.Setup(m)

	procs := m.Procs()
	bufs := getRunBufs(procs)
	defer putRunBufs(bufs)
	rlat, wlat, ends := bufs.rlat, bufs.wlat, bufs.ends
	var start int64
	var fc *faultCounters
	if timed != nil {
		fc = &faultCounters{}
	}
	// One counter add per measured cycle is the harness's entire
	// hot-path cost with obs on (a nil-check no-op with it off); the
	// scheduler's Advance fast path is never instrumented.
	itersDone := spec.Obs.Counter("cell_iters_done_total",
		"Measured workload cycles completed, summed over ranks and cells.")
	setupSpan.End()
	runSpan := spec.Obs.Span("run")

	first := spec.first()
	runErr := m.Run(func(p *rma.Proc) {
		r := p.Rank()
		if r < first {
			p.Barrier()
			if r == 0 {
				start = p.Now()
			}
			return
		}
		rl, wl := rlat[r][:0], wlat[r][:0] // reuse pooled capacity
		step := func(it int, measured bool) {
			in := spec.Profile.Next(p, it)
			t0 := p.Now()
			acquired := true
			switch {
			case noLock:
				spec.Workload.Body(p, in)
			case timed != nil:
				if acquired = acquireTimed(p, timed[in.Lock], in.Write, spec.Faults, fc); acquired {
					spec.Workload.Body(p, in)
					if in.Write {
						timed[in.Lock].ReleaseWrite(p)
					} else {
						timed[in.Lock].ReleaseRead(p)
					}
				}
			case in.Write:
				lk := set[in.Lock]
				lk.AcquireWrite(p)
				spec.Workload.Body(p, in)
				lk.ReleaseWrite(p)
			default:
				lk := set[in.Lock]
				lk.AcquireRead(p)
				spec.Workload.Body(p, in)
				lk.ReleaseRead(p)
			}
			if measured && acquired {
				d := float64(p.Now()-t0) / 1e3 // µs
				if in.Write {
					wl = append(wl, d)
				} else {
					rl = append(rl, d)
				}
			}
			if in.Think > 0 {
				p.Compute(in.Think)
			}
		}
		for i := 0; i < spec.Warmup; i++ {
			step(i, false)
		}
		p.Barrier() // clocks align here
		if r == 0 {
			start = p.Now()
		}
		for i := 0; i < spec.Iters; i++ {
			step(i, true)
			itersDone.Add(1)
		}
		ends[r] = p.Now()
		rlat[r], wlat[r] = rl, wl
	})
	runSpan.End()
	if runErr != nil {
		return Report{}, Witness{}, fmt.Errorf("workload: %s/%s/%s P=%d: %w",
			spec.Scheme, spec.Workload.Name(), spec.Profile.Name(), spec.P, runErr)
	}

	drainSpan := spec.Obs.Span("drain")
	rep := summarize(spec, m, start, bufs)
	rep.DirectEntries = directEntries(set)
	if !noLock && len(spec.Tunables) > 0 {
		rep.Tunables = spec.Tunables.Canonical()
	}
	if spec.Faults != nil {
		rep.Faults = spec.Faults.Canonical()
	}
	if spec.FaultMetrics || spec.Faults != nil {
		// Tail latencies for the degradation pass (sweep.ApplyDegradation
		// divides a faulted cell's tails by its fault-free baseline's).
		// bufs.all was sorted by summarize.
		rep.Extra["lat_p99"] = stats.Percentile(bufs.all, 99)
		rep.Extra["lat_p999"] = stats.Percentile(bufs.all, 99.9)
	}
	if fc != nil {
		fc.apply(&rep)
	}
	if spec.Trace != nil {
		applyTraceMetrics(&rep, spec.Trace, topo, start, first)
	}
	if spec.MemStats {
		// Read after the run, while the machine/scheduler buffers are
		// still reachable: HeapAlloc approximates the run's resident
		// simulation state, Sys adds the runtime's stack spans.
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		rep.Extra["heap_bytes_per_rank"] = float64(ms.HeapAlloc) / float64(procs)
		rep.Extra["sys_bytes_per_rank"] = float64(ms.Sys) / float64(procs)
		// runtime/metrics signals (see runtimestats.go): the goroutine
		// count read here, right after the run, is the evidence for the
		// lazy-goroutine claim — ranks that never genuinely interleave
		// never get a goroutine, so it stays far below P at scale.
		rep.Extra["goroutines"] = float64(liveGoroutines())
		rep.Extra["gc_pause_total_ns"] = float64(ms.PauseTotalNs)
	}
	spec.Workload.Extract(m, &rep)
	var w Witness
	if want {
		w = witness(spec, topo, set)
	}
	drainSpan.End()
	return rep, w, nil
}

// applyTraceMetrics fills the trace-derived report fields from the
// measured phase (events at or after the post-warm-up barrier): the
// Jain fairness index over participating ranks' lock acquisitions, and
// the handoff-locality histogram — topology distance between
// consecutive holders of each lock, the paper's locality claim made
// measurable per cell. Ranks below first ran no cycles.
func applyTraceMetrics(rep *Report, sink *trace.Sink, topo *topology.Topology, start int64, first int) {
	events := sink.Events()
	// Keep only the measured phase; warm-up handoffs would otherwise
	// skew fairness between cells with different warm-up shares.
	measured := events[:0:0]
	for _, e := range events {
		if e.Clock >= start {
			measured = append(measured, e)
		}
	}
	counts := trace.Acquisitions(measured, topo.Procs())
	rep.Fairness = trace.Jain(counts[first:])
	rep.HandoffLocality = trace.LocalityHist(measured, topo.Distance, topo.MaxDistance())
}

// directEntries sums the intra-element shortcut count over every RMA-MCS
// lock in the set (0 for other schemes).
func directEntries(set []scheme.Lock) int64 {
	var n int64
	for _, l := range set {
		if rl, ok := l.Underlying().(*rmamcs.Lock); ok {
			n += rl.DirectEntries
		}
	}
	return n
}

func errUnknown(kind, name string, have []string) error {
	return fmt.Errorf("workload: unknown %s %q (have %v)", kind, name, have)
}
