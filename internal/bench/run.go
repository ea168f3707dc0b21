package bench

import (
	"fmt"
	"strconv"

	"rmalocks/internal/scheme"
	"rmalocks/internal/workload"
)

// isRWScheme reports whether the registry lists the scheme as having
// genuine reader-writer semantics.
func isRWScheme(name string) bool {
	for _, s := range scheme.RWCapable() {
		if s == name {
			return true
		}
	}
	return false
}

// tunablesFor spells the parameter structs' T_L,i / T_DC / T_R fields as
// the typed tunables of the named scheme. Zero fields stay unset, so
// scheme and harness defaults apply, and keys the scheme does not
// declare are left out, so one parameter struct serves every scheme of
// a comparison (foMPI-RW beside RMA-RW).
func tunablesFor(name string, tl []int64, tdc int, tr int64) scheme.Tunables {
	d, err := scheme.Describe(name)
	if err != nil {
		return nil // foMPI-A runs lock-free; any other name fails in workload.Run
	}
	t := scheme.Tunables{}
	set := func(key string, v int64) {
		if v != 0 && d.Accepts(key, 0) {
			t[key] = v
		}
	}
	set("TDC", int64(tdc))
	set("TR", tr)
	for i := 1; i < len(tl); i++ {
		if tl[i] > 0 {
			set("TL"+strconv.Itoa(i), tl[i])
		}
	}
	return t
}

// The three Run* entry points below are thin adapters over the unified
// workload subsystem (internal/workload): they translate the historical
// parameter structs into a workload.Spec and map the Report back. All
// driver loops live in workload.Run.

// wlFor maps the paper's benchmark selector to a (workload, profile)
// pair of the unified subsystem; fw is the writer fraction (1 for
// mutexes, where every entry is exclusive).
func wlFor(w Workload, fw float64) (workload.Workload, workload.Profile) {
	prof := workload.Uniform{FW: fw}
	switch w {
	case SOB:
		return &workload.SharedOp{}, prof
	case WCSB:
		return &workload.CounterCompute{}, prof
	case WARB:
		// Wait-after-release: 1–4 µs pause between releases.
		prof.ThinkNs, prof.ThinkJitterNs = 1000, 3000
		return workload.Empty{}, prof
	default: // ECSB
		return workload.Empty{}, prof
	}
}

// mutexSpec builds the workload.Spec shared by RunMutex and the ablation
// variants.
func mutexSpec(params MutexParams) workload.Spec {
	wl, prof := wlFor(params.Workload, 1)
	return workload.Spec{
		Scheme:       params.Scheme,
		P:            params.P,
		ProcsPerNode: params.ProcsPerNode,
		Seed:         params.Seed,
		TimeLimit:    timeLimit,
		Iters:        params.Iters,
		Profile:      prof,
		Workload:     wl,
		Tunables:     tunablesFor(params.Scheme, params.TL, 0, 0),
		Engine:       params.Engine,
	}
}

// toResult maps a workload.Report back to the historical Result type.
func toResult(rep workload.Report, scheme string, P int) Result {
	return Result{
		Scheme:         scheme,
		P:              P,
		ThroughputMops: rep.ThroughputMops,
		Latency:        rep.Latency,
		MakespanMs:     rep.MakespanMs,
		Ops:            rep.Ops,
		WarmupOps:      rep.WarmupOps,
		RemoteOps:      rep.RemoteOps,
		DirectEntries:  rep.DirectEntries,
	}
}

// RunMutex executes one mutex benchmark: every process performs warmup
// cycles, synchronizes on a barrier, then runs Iters measured
// acquire/release cycles of the chosen workload. Throughput is aggregate
// measured acquires divided by the measured phase's makespan; latency is
// the per-cycle virtual duration (the paper's LB measures exactly this
// with an empty CS).
func RunMutex(params MutexParams) (Result, error) {
	params.fill()
	if err := validMutexScheme(params.Scheme); err != nil {
		return Result{}, err
	}
	rep, err := workload.Run(mutexSpec(params))
	if err != nil {
		return Result{}, fmt.Errorf("bench: %s P=%d: %w", params.Scheme, params.P, err)
	}
	return toResult(rep, params.Scheme, params.P), nil
}

// validMutexScheme rejects RW and unknown scheme names with the
// historical error message.
func validMutexScheme(scheme string) error {
	for _, s := range MutexSchemes {
		if s == scheme {
			return nil
		}
	}
	return fmt.Errorf("bench: unknown mutex scheme %q", scheme)
}

// RunRW executes one reader/writer benchmark. Each iteration is a write
// with probability FW, a read otherwise (deterministic per-process RNG).
// Any registry scheme with reader-writer semantics is accepted.
func RunRW(params RWParams) (Result, error) {
	params.fill()
	if !isRWScheme(params.Scheme) {
		return Result{}, fmt.Errorf("bench: unknown RW scheme %q", params.Scheme)
	}
	wl, prof := wlFor(params.Workload, params.FW)
	rep, err := workload.Run(workload.Spec{
		Scheme:       params.Scheme,
		P:            params.P,
		ProcsPerNode: params.ProcsPerNode,
		Seed:         params.Seed,
		TimeLimit:    timeLimit,
		Iters:        params.Iters,
		Profile:      prof,
		Workload:     wl,
		Tunables:     tunablesFor(params.Scheme, params.TL, params.TDC, params.TR),
		Engine:       params.Engine,
	})
	if err != nil {
		return Result{}, fmt.Errorf("bench: %s P=%d FW=%g: %w", params.Scheme, params.P, params.FW, err)
	}
	return toResult(rep, params.Scheme, params.P), nil
}

// DHTParams configures one distributed-hashtable benchmark run (§5.3):
// P−1 processes issue OpsPerProc operations against the local volume of
// rank 0; each operation is an insert with probability FW, otherwise a
// read of a random key.
type DHTParams struct {
	Scheme       string // SchemeFoMPIA, SchemeFoMPIRW or SchemeRMARW
	P            int
	FW           float64
	OpsPerProc   int
	Seed         int64
	ProcsPerNode int
	Slots        int // table slots per volume (default 512)
	Cells        int // overflow cells (default: enough for all inserts)
	// RMA-RW parameters.
	TDC int
	TR  int64
	TL  []int64
}

// DHTResult is the outcome of one DHT benchmark run.
type DHTResult struct {
	Scheme      string
	P           int
	FW          float64
	TotalTimeMs float64 // the paper's Figure 6 metric
	Inserts     int64
	Lookups     int64
	Stored      int // elements in the target volume afterwards
}

// RunDHT executes one DHT benchmark run.
func RunDHT(params DHTParams) (DHTResult, error) {
	if params.ProcsPerNode == 0 {
		params.ProcsPerNode = ProcsPerNode
	}
	if params.OpsPerProc == 0 {
		params.OpsPerProc = 20
	}
	if params.Seed == 0 {
		params.Seed = 1
	}
	if params.Slots == 0 {
		params.Slots = 512
	}
	if params.Cells == 0 {
		params.Cells = params.P*params.OpsPerProc + 16
	}
	if params.Scheme != SchemeFoMPIA && !isRWScheme(params.Scheme) {
		return DHTResult{}, fmt.Errorf("bench: unknown DHT scheme %q", params.Scheme)
	}
	atomic := params.Scheme == SchemeFoMPIA
	wl := &workload.DHTOps{Slots: params.Slots, Cells: params.Cells, Vol: 0, Atomic: atomic}
	rep, err := workload.Run(workload.Spec{
		Scheme:       params.Scheme,
		NoLock:       atomic, // raw atomics
		P:            params.P,
		ProcsPerNode: params.ProcsPerNode,
		Seed:         params.Seed,
		TimeLimit:    timeLimit,
		Iters:        params.OpsPerProc,
		Warmup:       -1, // the paper's DHT benchmark has no warm-up phase
		Profile:      workload.Uniform{FW: params.FW},
		Workload:     wl,
		Tunables:     tunablesFor(params.Scheme, params.TL, params.TDC, params.TR),
		// Rank 0 only hosts the volume (the paper: P−1 clients).
		Skip: func(rank, procs int) bool { return rank == 0 },
	})
	if err != nil {
		return DHTResult{}, fmt.Errorf("bench: DHT %s P=%d FW=%g: %w", params.Scheme, params.P, params.FW, err)
	}
	return DHTResult{
		Scheme:      params.Scheme,
		P:           params.P,
		FW:          params.FW,
		TotalTimeMs: rep.MakespanMs,
		Inserts:     rep.Writes,
		Lookups:     rep.Reads,
		Stored:      int(rep.Extra["stored"]),
	}, nil
}
