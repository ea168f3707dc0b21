// Package sweep is the host-parallel sweep engine: it enumerates
// scheme × workload × profile × P parameter grids as independent
// workload.Spec cells, executes them on a bounded worker pool, and
// merges the results in canonical cell order.
//
// Every cell is a byte-deterministic simulation (see DESIGN.md,
// "Determinism") with no shared mutable state, so the grid is
// embarrassingly parallel across host cores. The pool's unit of work is
// a sibling group (see Run): distributing groups over workers changes
// wall-clock time but never the merged output, nor which cells derive
// from a sibling's run. internal/jobq's identity matrix guards that
// property across worker counts, engines and cache states.
//
// Sweep runs persist as JSON (see persist.go) under results/. A run
// file is a pure function of its grid, so two runs agree exactly when
// their files are cmp-equal; what a grid's cells are is pinned per cell
// by TestGoldenFingerprints.
package sweep

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"rmalocks/internal/fault"
	"rmalocks/internal/obs"
	"rmalocks/internal/rma"
	"rmalocks/internal/scheme"
	"rmalocks/internal/stats"
	"rmalocks/internal/trace"
	"rmalocks/internal/workload"
)

// Key identifies one grid cell: the coordinates of the paper's
// scheme × workload × profile × P parameter space (§5), plus the
// scheme-tunables coordinate of its lock parameter space (Figure 1).
type Key struct {
	Scheme   string `json:"scheme"`
	Workload string `json:"workload"`
	Profile  string `json:"profile"`
	P        int    `json:"p"`
	// Tunables is the canonical "K1=V1,K2=V2" encoding (sorted keys,
	// see internal/scheme) of the cell's scheme tunables; empty — and
	// omitted from JSON, keeping pre-tunables baselines byte-identical —
	// when the cell uses scheme defaults.
	Tunables string `json:"tunables,omitempty"`
	// Faults is the canonical encoding of the cell's fault profile (see
	// internal/fault); empty — and omitted from JSON, keeping fault-free
	// baselines byte-identical — for unperturbed cells, including the
	// fault-free baseline cell a fault axis always enumerates.
	Faults string `json:"faults,omitempty"`
}

func (k Key) String() string { return string(k.appendTo(make([]byte, 0, 64))) }

// keyText is c.Key.String(), sliced out of c's address, which starts
// with it, when c has one: a job's progress keys cost no allocation.
func (c Cell) keyText() string {
	var a [128]byte
	k := c.Key.appendTo(a[:0])
	if rest, ok := strings.CutPrefix(c.Input, inputPrefix); ok && len(rest) >= len(k) && rest[:len(k)] == string(k) {
		return rest[:len(k)]
	}
	return string(k)
}

// appendTo appends the key's text form: what String returns and what a
// cell's content address starts with (cellSpec.appendInput).
func (k Key) appendTo(b []byte) []byte {
	b = append(b, k.Scheme...)
	b = append(b, '/')
	b = append(b, k.Workload...)
	b = append(b, '/')
	b = append(b, k.Profile...)
	b = append(b, "/P="...)
	b = strconv.AppendInt(b, int64(k.P), 10)
	if k.Tunables != "" {
		b = append(b, '/')
		b = append(b, k.Tunables...)
	}
	if k.Faults != "" {
		b = append(b, "/faults="...)
		b = append(b, k.Faults...)
	}
	return b
}

// Cell is one independent simulation of a sweep. Grid.Cells is the only
// source of cells: every cell is a grid cell.
type Cell struct {
	// Key names the cell in reports and baselines.
	Key Key
	// Input is the canonical encoding of every result-affecting input
	// parameter of the cell (see cellSpec.appendInput): because each cell
	// is a deterministic function of its inputs, Input is a valid content
	// address for the cell's result — the cache key of internal/cache.
	// Empty marks the cell uncacheable: only a traced cell has none, its
	// trace sink and trace-derived metrics being beyond what a cache holds.
	Input string

	// cs is the cell's description and att what its grid attaches.
	cs  *cellSpec
	att *attachments
}

// Spec builds a fresh workload.Spec for one execution. A fresh value
// per call is required: Workload implementations carry per-run state
// (window offsets, DHT tables), so executions — including the -check
// re-run — must never share instances across workers.
func (c Cell) Spec() (workload.Spec, error) { return c.cs.spec(c.att) }

// CellResult is the merged outcome of one cell, in canonical order.
//
// A result that came out of a CellCache — or that Run computed with one
// attached — is shared with the cache and with every other job served
// the same cell: read it, copy it, never write through its Report.Extra
// or HandoffLocality. So is a derived result (Derived), which shares
// them with the run it came from. Code that changes a cell builds a
// new value (ApplyDegradation does). Such results, and a simulated one
// that a sibling derived from, also carry their run-file fragment (see
// fragment.go) in an unexported field, which another freshly computed
// one does not, so tests compare cells by their encoding or
// Fingerprint, not with reflect.DeepEqual.
type CellResult struct {
	Key         Key             `json:"key"`
	Locks       int             `json:"locks"`
	Report      workload.Report `json:"report"`
	Fingerprint string          `json:"fingerprint"`
	// Trace holds the cell's event sink when the grid ran with tracing
	// (Grid.Trace); consumers (workbench -trace) export it. Never
	// persisted: baselines carry only the trace-derived Report fields.
	Trace *trace.Sink `json:"-"`
	// Derived marks a result Run took from a sibling's run instead of
	// simulating the cell (see Run). Never persisted, and never stored
	// by a cache: it says how this Run got the result, not what it is.
	Derived bool `json:"-"`

	// frag is this cell's encoding as it stands inside RunFile.Cells,
	// nil until something has encoded it. It is immutable and always
	// the encoding of the exported fields above: whoever changes those
	// on a copy drops it (clone).
	frag []byte
	// witness is what the run that produced the report shows about its
	// siblings (workload.Witness), set only on the value Run hands to
	// CellCache.Put, for the cache to store beside the result
	// (CellWitness). Like Derived, it is not part of the result. A
	// pointer, because every result a job retains carries the field.
	witness *workload.Witness
}

// Options configures a sweep execution.
type Options struct {
	// Workers bounds the worker pool; <= 0 selects GOMAXPROCS.
	Workers int
	// Check runs every cell twice and fails the sweep unless both
	// executions produce byte-identical report fingerprints. Check
	// bypasses Cache lookups (a served result would defeat the
	// reproducibility verification); verified results are still stored.
	Check bool
	// Progress, when non-nil, receives cell lifecycle notifications
	// (obs.SweepProgress feeds the /progress endpoint). Purely
	// observational: notifications happen outside cell execution and
	// never influence scheduling order or results.
	Progress Progress
	// Cache, when non-nil, memoizes cell results by their content
	// address (Cell.Input). Run resolves every cacheable cell against it
	// up front — hits land in the merged output without executing and
	// cells a stored sibling's run covers derive from it, so a warm
	// re-run recomputes only the dirty cells — and stores freshly
	// computed results back. Because cells are deterministic functions
	// of their Input, the merged output is byte-identical whether a cell
	// was served, derived or computed (test-enforced).
	Cache CellCache
	// Cancel, when non-nil, aborts the sweep when closed: workers stop
	// claiming new cells, in-flight cells run to completion (and still
	// reach the Cache), and Run returns ErrCanceled.
	Cancel <-chan struct{}
	// Results, when it has room for every cell, is the storage Run
	// returns its results in, overwritten from its first element, so
	// that a caller running one sweep after another need not allocate
	// each one's results. The caller must be done with the results of
	// the sweep that last used it.
	Results []CellResult
}

// CellCache memoizes cell results by content address (Cell.Input).
// Implementations must be safe for concurrent use; internal/cache's
// Store is the canonical one. Get may miss spuriously (eviction,
// corruption) — the cell is then recomputed — but what it returns must
// be the result of a run of the same Input (its Key is the cell's), or
// of a sibling's run (SiblingOf: the same address up to the tunables)
// whose witness — CellWitness of what Put received — admits the cell's
// tunables; Run derives the cell from the latter. Put receives only
// simulated results, never a derived one. What Get returns and what Put
// receives may be shared between the cache and any number of callers,
// so both sides treat it as read-only (see CellResult); a cache that
// keeps a Put value takes its own copy (SealCell).
type CellCache interface {
	Get(input string) (CellResult, bool)
	Put(input string, r CellResult)
}

// ErrCanceled reports a sweep aborted through Options.Cancel. In-flight
// cells were drained (run to completion); unclaimed cells never ran.
var ErrCanceled = errors.New("sweep: canceled")

// Progress receives sweep lifecycle notifications. Implementations must
// be safe for concurrent calls — workers report in parallel. Declared
// here (and satisfied by obs.SweepProgress) so the engine stays free of
// an obs dependency in its core path.
type Progress interface {
	// Start announces the full cell list, in canonical order, before any
	// cell executes.
	Start(keys []string)
	// CellRunning marks cell i as executing on some worker.
	CellRunning(i int)
	// CellCached marks cell i as resolved from the result cache, with
	// the cached report fingerprint: the cell reached its terminal state
	// without ever running. Fired during Run's pre-pass, before any cell
	// executes.
	CellCached(i int, fingerprint string)
	// CellDone marks cell i finished: its report fingerprint on success,
	// the error otherwise. A cell derived from a sibling's run is done
	// without CellRunning: in Run's pre-pass when the cache holds the
	// run, on its group's worker when the run was this Run's.
	CellDone(i int, fingerprint string, err error)
}

// ForEach runs n independent jobs on a bounded worker pool and blocks
// until all complete. Job errors do not cancel other jobs (cells are
// independent); the error returned is the lowest-index failure, so
// error reporting is deterministic regardless of worker count.
func ForEach(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Run executes every cell on the worker pool and returns the results in
// the cells' order. Output is byte-identical for any worker count:
// result slot i belongs to cell i no matter which worker ran it — and,
// with a Cache attached, no matter which cells were served instead of
// computed (a cached result is the byte-identical outcome of an earlier
// run of the same Input).
//
// Siblings — cells whose addresses share a SiblingOf group, differing in
// their tunables only — may share one simulation. A run's witness
// (workload.Witness) says which tunables would have made every threshold
// comparison of the run come out the same. The pool's unit of work is a
// sibling group: one worker runs the group's pending cells in canonical
// order, and a cell that the witness of an earlier run of its group
// admits takes that run's report with its own Tunables and fingerprint
// (CellResult.Derived) instead of simulating. Which cells derive is thus
// a function of the cells, whatever the worker count. With a Cache
// attached the pre-pass asks it for every cell with an address (unless
// Check), on either engine: a cell answered with its own run is served
// (CellCached), one answered with a stored sibling's run derives from it
// (CellDone), and only the rest reach the pool. Every simulated cell
// that could derive records its witness for the Cache to store.
// Derivation needs an address and the default engine: on the reference
// engine, under Check, and without an address (a traced cell) a cell is
// a group of one and simulates.
//
// Cells of a grid with a fault axis finish with the degradation join
// (ApplyDegradation) once every cell has its result; what the Cache
// stores, and what Progress reports, are the cells before it.
func Run(cells []Cell, opts Options) ([]CellResult, error) {
	if opts.Progress != nil {
		keys := make([]string, len(cells))
		for i, c := range cells {
			keys[i] = c.keyText()
		}
		opts.Progress.Start(keys)
	}
	results := opts.Results[:0]
	if cap(results) < len(cells) {
		results = make([]CellResult, len(cells))
	} else {
		results = results[:len(cells)]
		clear(results)
	}
	// Cache pre-pass: resolve hits and derivations up front, so only
	// dirty cells reach the worker pool and progress knows immediately
	// which cells are instantaneous (the ETA extrapolates from computed
	// cells only).
	pending := make([]int, 0, len(cells))
	for i, c := range cells {
		if opts.Cache != nil && !opts.Check && c.Input != "" {
			if r, ok := opts.Cache.Get(c.Input); ok {
				if r.Key != c.Key {
					if derive(c, i, &r, opts, results) { // a stored sibling's run
						continue
					}
					pending = append(pending, i)
					continue
				}
				results[i] = r
				if opts.Progress != nil {
					opts.Progress.CellCached(i, r.Fingerprint)
				}
				continue
			}
		}
		pending = append(pending, i)
	}
	if len(pending) > 0 {
		if err := runGroups(cells, pending, opts, results); err != nil {
			return nil, err
		}
	}
	if slices.ContainsFunc(cells, func(c Cell) bool { return c.cs.faultMetrics }) {
		ApplyDegradation(results)
	}
	return results, nil
}

// runGroups resolves the pending cells into results on the worker pool,
// one sibling group per unit of work, and returns the lowest-index
// failure, whatever worker ran which group.
func runGroups(cells []Cell, pending []int, opts Options, results []CellResult) error {
	groups := siblingGroups(cells, pending, opts.Check)
	errs := make([]error, len(cells))
	ForEach(len(groups), opts.Workers, func(g int) error {
		group := groups[g]
		witnessed := mayDerive(cells[group[0]], opts.Check) && (opts.Cache != nil || len(group) > 1)
		var runs []source // the group's simulations so far
		for _, i := range group {
			errs[i] = runCell(cells[i], i, opts, results, witnessed, &runs)
		}
		return nil // errs keeps each failure at its cell's index
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// mayDerive reports whether cell c may derive from a sibling's run: only
// with an address (an untraced cell), and never on the reference engine
// or under Check, which run every cell.
func mayDerive(c Cell, check bool) bool {
	return c.Input != "" && c.att.engine != rma.EngineRef && !check
}

// siblingGroups partitions the pending cells into sibling groups
// (SiblingOf), ordered by their first cells, each in canonical order. A
// cell that may not derive is a group of its own.
func siblingGroups(cells []Cell, pending []int, check bool) [][]int {
	groups := make([][]int, 0, len(pending))
	ids := map[string]int{}
	for _, i := range pending {
		if c := cells[i]; mayDerive(c, check) {
			if addr, _, _, ok := SiblingOf(c.Input); ok {
				if g, seen := ids[addr]; seen {
					groups[g] = append(groups[g], i)
					continue
				}
				ids[addr] = len(groups)
			}
		}
		groups = append(groups, []int{i})
	}
	return groups
}

// source is a simulation a sibling may be derived from: its result index
// and its witness, resolved once for the siblings it is asked about.
type source struct {
	i int
	w workload.Judge
}

// runCell resolves cell i into results[i]: from one of runs, the earlier
// simulations of its group, when one's witness admits the cell, by
// simulating it otherwise. witnessed asks the simulation for its
// witness, with which it joins runs.
func runCell(c Cell, i int, opts Options, results []CellResult, witnessed bool, runs *[]source) error {
	if opts.Cancel != nil {
		select {
		case <-opts.Cancel:
			// Drain semantics: this cell was never claimed for
			// execution, so progress keeps it queued; cells already
			// past this check complete normally (and still land in
			// the cache).
			return ErrCanceled
		default:
		}
	}
	for _, src := range *runs {
		if src.w.Admits(c.cs.tun) && derive(c, i, &results[src.i], opts, results) {
			return nil
		}
	}
	// Only a cell that simulates is running: the ETA extrapolates from
	// those alone.
	if opts.Progress != nil {
		opts.Progress.CellRunning(i)
	}
	rep, locks, sink, w, err := runOnce(c, witnessed)
	if err != nil {
		err = fmt.Errorf("sweep: cell %s: %w", c.Key, err)
		if opts.Progress != nil {
			opts.Progress.CellDone(i, "", err)
		}
		return err
	}
	fp := rep.Fingerprint()
	if opts.Check {
		rep2, _, _, _, err := runOnce(c, false)
		if err != nil {
			err = fmt.Errorf("sweep: cell %s (check re-run): %w", c.Key, err)
			if opts.Progress != nil {
				opts.Progress.CellDone(i, fp, err)
			}
			return err
		}
		if rep2.Fingerprint() != fp {
			err = fmt.Errorf("sweep: cell %s is NOT reproducible", c.Key)
			if opts.Progress != nil {
				opts.Progress.CellDone(i, fp, err)
			}
			return err
		}
	}
	results[i] = CellResult{Key: c.Key, Locks: locks, Report: rep, Fingerprint: fp, Trace: sink}
	store(opts, c, results, i, w)
	if w.Scheme != "" {
		*runs = append(*runs, source{i, w.Judge()})
	}
	if opts.Progress != nil {
		opts.Progress.CellDone(i, fp, nil)
	}
	return nil
}

// derive makes results[i] cell c's result from src, the result of a
// sibling whose witness admits c: src's report with c's key and
// tunables, its fingerprint and fragment spliced from src's (retune),
// so a derived cell is neither formatted nor marshalled. A src without
// a fragment, simulated in this Run without a cache, is encoded here
// once and keeps it: its other derived siblings splice it, and Encode
// writes it. derive is the one place a derived cell is built, whether
// its sibling ran in this Run or the cache holds it; it stores nothing.
// It returns false, and builds nothing, when src's fingerprint or
// fragment is not its own: the cell is then simulated.
func derive(c Cell, i int, src *CellResult, opts Options, results []CellResult) bool {
	if src.frag == nil {
		src.frag, _ = fragmentOf(*src) // nil still if src does not marshal
	}
	r, ok := retune(*src, c.Key)
	if !ok {
		return false
	}
	results[i] = r
	if opts.Progress != nil {
		opts.Progress.CellDone(i, r.Fingerprint, nil)
	}
	return true
}

// store puts results[i], a simulated cell's, into the cache with the
// witness of its run, if there is a cache and the cell has an address.
func store(opts Options, c Cell, results []CellResult, i int, w workload.Witness) {
	if opts.Cache == nil || c.Input == "" {
		return
	}
	// Encode the cell here, once: the cache stores this fragment and
	// Encode splices it. A cell that does not marshal (a NaN in its
	// report) is not cacheable and fails in Encode as it always has.
	if frag, err := fragmentOf(results[i]); err == nil {
		results[i].frag = frag
		r := results[i]
		if w.Scheme != "" {
			wc := w // only a witness that is stored escapes
			r.witness = &wc
		}
		opts.Cache.Put(c.Input, r)
	}
}

// runOnce simulates the cell; witnessed asks for the run's witness too.
func runOnce(c Cell, witnessed bool) (workload.Report, int, *trace.Sink, workload.Witness, error) {
	spec, err := c.Spec()
	if err != nil {
		return workload.Report{}, 0, nil, workload.Witness{}, err
	}
	locks := 1
	if spec.Profile != nil {
		locks = spec.Profile.Locks()
	}
	var rep workload.Report
	var w workload.Witness
	if witnessed {
		rep, w, err = workload.RunWitness(spec)
	} else {
		rep, err = workload.Run(spec)
	}
	return rep, locks, spec.Trace, w, err
}

// Grid enumerates a scheme × workload × profile × P (× tunables, see
// Tunables) parameter space with shared cell parameters.
//
// Zero fields select the defaults of the paper's evaluation setup:
// Ps {64}, ProcsPerNode 16, Iters 50, Seed 1, Locks 8, ZipfS 1.2,
// RemotePct 100.
// FW, ThinkNs and ThinkJitterNs default to 0 (zero is their natural
// meaning). For the two fields where zero is also a legitimate explicit
// setting — Seed and ZipfS — the SeedSet/ZipfSSet flags suppress the
// default fill; zero-valued grids without the flags keep enumerating
// the default parameter space byte-identically (persisted baselines
// never move).
//
// A Grid is also its own JSON wire form (EncodeGrid, DecodeGrid): the
// request body of cmd/sweepd's POST /jobs and the payload of `workbench
// -submit`. The wire covers exactly the fields that define what a sweep
// computes; the server-side attachment (Obs) and the unserializable
// trace mode (Trace) are deliberately not wire-expressible, so a
// submitted grid always produces cacheable, byte-reproducible cells.
type Grid struct {
	// Schemes, Workloads and Profiles name the axes (workload.Schemes
	// by registry name or alias, or workload.SchemeFoMPIA;
	// workload.WorkloadNames; workload.ProfileNames). Cells rejects an
	// empty axis and a name it does not know.
	Schemes   []string `json:"schemes"`
	Workloads []string `json:"workloads"`
	Profiles  []string `json:"profiles"`
	// Ps is the process-count axis (e.g. 16→512 to reproduce the
	// paper's scaling figures in one invocation); every P is at least 1.
	// Default {64}.
	Ps []int `json:"ps,omitempty"`

	// ProcsPerNode is the machine shape (default 16).
	ProcsPerNode int `json:"ppn,omitempty"`
	// Iters is the measured cycles per process (default 50); it also
	// sets the sweep profile's span.
	Iters int `json:"iters,omitempty"`
	// Seed seeds every cell (default 1 unless SeedSet). Note the machine
	// layer treats seed 0 as 1 too, so an explicit zero seed runs the
	// same simulation as the default — SeedSet only keeps the grid from
	// rewriting the field.
	Seed int64 `json:"seed,omitempty"`
	// SeedSet marks Seed as explicitly chosen: fill leaves a zero Seed
	// alone instead of defaulting it to 1.
	SeedSet bool `json:"seed_set,omitempty"`
	// FW is the writer fraction handed to the profiles.
	FW float64 `json:"fw,omitempty"`
	// Locks is the lock-set size for multi-lock profiles (default 8;
	// clamped to P for the sharded DHT workload).
	Locks int `json:"locks,omitempty"`
	// ZipfS is the Zipf skew exponent (default 1.2 unless ZipfSSet).
	ZipfS float64 `json:"zipfs,omitempty"`
	// ZipfSSet marks ZipfS as explicitly chosen: fill leaves a zero
	// exponent alone, making S=0 (a uniform draw — every lock equally
	// hot) expressible from the workbench (-zipfs 0).
	ZipfSSet bool `json:"zipfs_set,omitempty"`
	// ThinkNs / ThinkJitterNs set post-release think time.
	ThinkNs       int64 `json:"think_ns,omitempty"`
	ThinkJitterNs int64 `json:"think_jitter_ns,omitempty"`
	// RemotePct scales the calibrated inter-node latencies to this
	// percent (workload.Spec.RemotePct; default 100).
	RemotePct int64 `json:"remote_pct,omitempty"`
	// Tunables adds the paper's lock parameter space as grid axes: the
	// cross-product of every axis' values becomes extra cells, innermost
	// in the canonical order, with the combination folded into each
	// cell's Key and report fingerprint. An axis applies only to the
	// schemes whose registry descriptor accepts its key (e.g. a TR axis
	// sweeps RMA-RW but leaves foMPI-Spin with a single untuned cell),
	// so mixed-scheme grids stay enumerable; an axis that no scheme of
	// the grid accepts, or that has no values, is an AxisError. An empty
	// list reproduces the pre-tunables grid byte-identically.
	Tunables []TunableAxis `json:"tunables,omitempty"`
	// Faults adds a fault-injection axis: each profile becomes an extra
	// cell, innermost in the canonical order (inside the tunables
	// cross-product), with the profile's canonical encoding folded into
	// the cell Key and report fingerprint. A non-empty axis always
	// enumerates the fault-free cell first — the degradation baseline —
	// and switches every cell (including fault-free ones) to
	// FaultMetrics mode so tail-latency percentiles are comparable; Run
	// then derives per-cell inflation metrics (ApplyDegradation).
	// Profiles that request acquire timeouts apply only to schemes whose
	// registry descriptor advertises CapTimeout (mirroring the
	// tunables-axis projection; an MCS-queue node cannot abandon its
	// slot), and one that no scheme of the grid can run is an AxisError.
	// An empty axis reproduces the pre-fault grid byte-identically. On
	// the wire each profile is its canonical spec (internal/fault's
	// grammar, e.g. "jitter=0.2,stall=50000@0.01") and a nil entry, the
	// baseline, is left out.
	Faults []*fault.Profile `json:"faults,omitempty"`
	// Engine selects the scheduler implementation for every cell ("" or
	// "fast" = token-owned fast path, "ref" = reference engine; Cells
	// rejects any other name); the workbench -engine flag exposes it for
	// ad-hoc differential sweeps.
	Engine string `json:"engine,omitempty"`
	// Trace, when nonzero, attaches a fresh trace sink with this class
	// mask to every cell (cells run in parallel, so sinks are per-cell),
	// filling the per-cell Report.Fairness / Report.HandoffLocality
	// metrics and returning the raw sinks via CellResult.Trace.
	Trace trace.Class `json:"-"`
	// Obs, when non-nil, attaches the live observability instruments to
	// every cell (see workload.Spec.Obs): phase spans and per-rank
	// iteration counters. One registry is shared across all cells (every
	// instrument is concurrency-safe and merge-by-sum), so /metrics shows
	// sweep-wide totals mid-run. Observation only: with Obs on or off
	// every report and fingerprint is byte-identical (test-enforced).
	Obs *obs.Registry `json:"-"`
}

// Defaults returns what a zero Grid enumerates with: the paper's
// evaluation setup, which fill gives every zero field.
func Defaults() Grid { return Grid{}.fill() }

func (g Grid) fill() Grid {
	if len(g.Ps) == 0 {
		g.Ps = []int{64}
	}
	if g.ProcsPerNode == 0 {
		g.ProcsPerNode = 16
	}
	if g.Iters == 0 {
		g.Iters = 50
	}
	if g.Seed == 0 && !g.SeedSet {
		g.Seed = 1
	}
	if g.Locks == 0 {
		g.Locks = 8
	}
	if g.ZipfS == 0 && !g.ZipfSSet {
		g.ZipfS = 1.2
	}
	if g.RemotePct == 0 {
		g.RemotePct = 100
	}
	return g
}

// TunableAxis is one sweepable dimension of the paper's lock parameter
// space: a tunable key (registry form, e.g. "TR" or "TL2") and the
// values to enumerate.
type TunableAxis struct {
	Key    string  `json:"key"`
	Values []int64 `json:"values"`
}

// DuplicateAxisError reports a tunables axis key that appears more than
// once in a grid. A repeated key cannot cross-product: later values
// would overwrite earlier ones inside each combination, enumerating
// duplicate cell Keys that silently collide in ApplyDegradation's join
// and in the golden key → fingerprint tables.
type DuplicateAxisError struct {
	Key string
}

func (e DuplicateAxisError) Error() string {
	return fmt.Sprintf("sweep: duplicate tunables axis %q", e.Key)
}

// RepeatedValueError reports a value listed twice on one grid axis. It
// would enumerate two cells with the same Key, and ApplyDegradation and
// the golden tables index cells by that key.
type RepeatedValueError struct {
	// Axis is "schemes", "workloads", "profiles", "ps", "faults" or a
	// tunable key.
	Axis  string
	Value string
}

func (e RepeatedValueError) Error() string {
	return fmt.Sprintf("sweep: %s axis: value %s repeated", e.Axis, e.Value)
}

// repeated returns the first value of vals that an earlier one equals.
// Axes are short, so a scan beats building a set.
func repeated[T comparable](vals []T) (T, bool) {
	for i, v := range vals {
		if slices.Contains(vals[:i], v) {
			return v, true
		}
	}
	var zero T
	return zero, false
}

// maxCells bounds the cells one grid may enumerate: far above any grid
// this repository runs (the benchmark's largest is 1040 cells), and far
// below what would exhaust a daemon's memory — a cell description costs
// about half a kilobyte before it runs.
const maxCells = 1 << 16

// TooManyCellsError reports a grid whose axis lengths multiply past
// maxCells. It is returned before any cell is built.
type TooManyCellsError struct{}

func (TooManyCellsError) Error() string {
	return fmt.Sprintf("sweep: grid axes multiply past %d cells", maxCells)
}

// checkSize bounds the product of the grid's axis lengths, an upper
// bound on what it enumerates (the per-scheme projection of the
// tunables and fault axes only removes cells). The running product is
// held at maxCells+1, so no length of a slice in memory overflows it.
func (g Grid) checkSize() error {
	lens := []int{len(g.Schemes), len(g.Workloads), len(g.Profiles), len(g.Ps), len(g.Faults) + 1}
	for _, ax := range g.Tunables {
		lens = append(lens, max(len(ax.Values), 1))
	}
	n := 1
	for _, l := range lens {
		n = min(n*l, maxCells+1)
	}
	if n > maxCells {
		return TooManyCellsError{}
	}
	return nil
}

// checkRepeats rejects a tunables axis key given twice, with a
// DuplicateAxisError, and a value repeated on any axis of the grid,
// with a RepeatedValueError naming the axis and the value.
func (g Grid) checkRepeats() error {
	for i, ax := range g.Tunables {
		if slices.ContainsFunc(g.Tunables[:i], func(prev TunableAxis) bool { return prev.Key == ax.Key }) {
			return DuplicateAxisError{Key: ax.Key}
		}
	}
	for _, ax := range []struct {
		name string
		vals []string
	}{{"schemes", g.Schemes}, {"workloads", g.Workloads}, {"profiles", g.Profiles}} {
		if v, ok := repeated(ax.vals); ok {
			return RepeatedValueError{Axis: ax.name, Value: v}
		}
	}
	if v, ok := repeated(g.Ps); ok {
		return RepeatedValueError{Axis: "ps", Value: strconv.Itoa(v)}
	}
	for _, ax := range g.Tunables {
		if v, ok := repeated(ax.Values); ok {
			return RepeatedValueError{Axis: ax.Key, Value: strconv.FormatInt(v, 10)}
		}
	}
	faults := make([]string, 0, len(g.Faults))
	for _, fp := range g.Faults {
		if fp != nil {
			faults = append(faults, fp.Canonical())
		}
	}
	if v, ok := repeated(faults); ok {
		return RepeatedValueError{Axis: "faults", Value: v}
	}
	return nil
}

// combos expands the cross-product of the axes in declaration order
// (first axis outermost); no axes yield the single empty combination.
// The keys are distinct and every axis has values (Cells checks both).
func combos(axes []TunableAxis) []scheme.Tunables {
	out := []scheme.Tunables{nil}
	for _, ax := range axes {
		next := make([]scheme.Tunables, 0, len(out)*len(ax.Values))
		for _, base := range out {
			for _, v := range ax.Values {
				t := base.Clone()
				if t == nil {
					t = scheme.Tunables{}
				}
				t[ax.Key] = v
				next = append(next, t)
			}
		}
		out = next
	}
	return out
}

// axesFor projects the grid's tunable axes onto one scheme: only axes
// whose key the scheme's descriptor accepts take part in its
// cross-product, so a mixed-scheme grid never enumerates meaningless
// (and duplicate-keyed) cells. Cells has checked that every axis some
// scheme of the grid accepts.
func axesFor(d *scheme.Descriptor, axes []TunableAxis) []TunableAxis {
	var out []TunableAxis
	for _, ax := range axes {
		if d.Accepts(ax.Key, 0) {
			out = append(out, ax)
		}
	}
	return out
}

// faultsFor projects the grid's fault axis onto one scheme: the
// fault-free baseline cell always leads, and profiles that bound
// acquires (Timeout > 0) take part only when the scheme's descriptor
// advertises CapTimeout — mirroring axesFor, so a mixed-scheme grid
// never enumerates cells the workload layer would typed-reject. An
// empty axis yields the single fault-free combination with metrics off.
func faultsFor(d *scheme.Descriptor, profiles []*fault.Profile) []*fault.Profile {
	out := []*fault.Profile{nil}
	for _, fp := range profiles {
		if fp == nil || fp.Timeout > 0 && !d.Caps.Has(scheme.CapTimeout) {
			continue // the baseline cell is always enumerated exactly once
		}
		out = append(out, fp)
	}
	return out
}

// describe returns the descriptor of a grid's scheme entry: the
// registry's (names and aliases), or, for workload.SchemeFoMPIA, which
// runs no lock, one that accepts no tunable and has no capability.
func describe(name string) (scheme.Descriptor, error) {
	if name == workload.SchemeFoMPIA {
		return scheme.Descriptor{Name: name}, nil
	}
	return scheme.Describe(name)
}

// AxisError reports a grid axis entry that would run nothing, or an
// axis with no entries at all. Cells rejects such a grid rather than
// enumerate a different one from what was asked for: a dropped entry, an
// untuned cell for a tunables axis no scheme takes, a cell keyed P=0
// that runs at the default P.
type AxisError struct {
	// Axis is "schemes", "workloads", "profiles", "ps", "tunables",
	// "faults", or a tunable key when that axis has no values.
	Axis string
	// Value is the entry, "" when the axis is empty.
	Value string
	// Why says what is wrong with the entry.
	Why string
	// Have lists what the axis accepts, when that is a set of names.
	Have []string
}

func (e AxisError) Error() string {
	msg := fmt.Sprintf("sweep: %s axis: %s", e.Axis, e.Why)
	if e.Value != "" {
		msg = fmt.Sprintf("sweep: %s axis: %q: %s", e.Axis, e.Value, e.Why)
	}
	if len(e.Have) > 0 {
		msg += " (have " + strings.Join(e.Have, ",") + ")"
	}
	return msg
}

// checkEntries rejects, with an AxisError, every grid entry that would
// run nothing: an empty schemes, workloads or profiles axis, a name the
// axis does not know, foMPI-A beside no workload with an atomic
// operation family or such a workload beside foMPI-A alone, a P below
// 1, a tunables axis with no values or whose key no scheme of the grid
// accepts, and a fault profile that perturbs nothing or that no scheme
// of the grid can run. Names are
// checked, values are not: a tunable out of its range is a run error of
// the cells that take it. It returns the descriptors of the grid's
// schemes, in order.
func (g Grid) checkEntries() ([]scheme.Descriptor, error) {
	names := []struct {
		axis string
		vals []string
		have []string
	}{
		{"schemes", g.Schemes, workload.Schemes},
		{"workloads", g.Workloads, workload.WorkloadNames},
		{"profiles", g.Profiles, workload.ProfileNames},
	}
	for _, ax := range names {
		if len(ax.vals) == 0 {
			return nil, AxisError{Axis: ax.axis, Why: "no values"}
		}
	}
	descs := make([]scheme.Descriptor, len(g.Schemes))
	for i, name := range g.Schemes {
		d, err := describe(name)
		if err != nil {
			have := append(slices.Clip(workload.Schemes), workload.SchemeFoMPIA)
			return nil, AxisError{Axis: "schemes", Value: name, Why: "unknown scheme", Have: have}
		}
		descs[i] = d
	}
	for _, ax := range names[1:] {
		for _, v := range ax.vals {
			if !slices.Contains(ax.have, v) {
				return nil, AxisError{Axis: ax.axis, Value: v, Why: "unknown name", Have: ax.have}
			}
		}
	}
	// foMPI-A runs only the workloads that have an atomic operation
	// family, the way a tunables axis projects onto the schemes that
	// take its key (enumerate).
	if slices.Contains(g.Schemes, workload.SchemeFoMPIA) {
		atomic := slices.DeleteFunc(slices.Clone(workload.WorkloadNames), func(w string) bool { return !workload.HasAtomicFamily(w) })
		lockless := !slices.ContainsFunc(g.Schemes, func(s string) bool { return s != workload.SchemeFoMPIA })
		if !slices.ContainsFunc(g.Workloads, workload.HasAtomicFamily) {
			return nil, AxisError{Axis: "schemes", Value: workload.SchemeFoMPIA, Why: "runs no lock, and no workload of the grid has an atomic operation family", Have: atomic}
		}
		if i := slices.IndexFunc(g.Workloads, func(w string) bool { return !workload.HasAtomicFamily(w) }); i >= 0 && lockless {
			return nil, AxisError{Axis: "workloads", Value: g.Workloads[i], Why: "has no atomic operation family, and the grid's one scheme runs no lock", Have: atomic}
		}
	}
	for _, p := range g.Ps {
		if p < 1 {
			return nil, AxisError{Axis: "ps", Value: strconv.Itoa(p), Why: "not a rank count"}
		}
	}
	for _, ax := range g.Tunables {
		if len(ax.Values) == 0 {
			return nil, AxisError{Axis: ax.Key, Why: "no values"}
		}
		if !slices.ContainsFunc(descs, func(d scheme.Descriptor) bool { return d.Accepts(ax.Key, 0) }) {
			var have []string
			for _, d := range descs {
				for _, ts := range d.Tunables {
					k := ts.Key
					if ts.PerLevel {
						k += "<level>"
					}
					if !slices.Contains(have, k) {
						have = append(have, k)
					}
				}
			}
			return nil, AxisError{Axis: "tunables", Value: ax.Key, Why: "no scheme of the grid accepts the key", Have: have}
		}
	}
	for _, fp := range g.Faults {
		switch {
		case fp == nil:
		case fp.Canonical() == "":
			return nil, AxisError{Axis: "faults", Why: "an entry perturbs nothing (the fault-free cell is always enumerated)"}
		case fp.Timeout > 0 && !slices.ContainsFunc(descs, func(d scheme.Descriptor) bool { return d.Caps.Has(scheme.CapTimeout) }):
			return nil, AxisError{Axis: "faults", Value: fp.Canonical(), Why: "no scheme of the grid can time out an acquire"}
		}
	}
	return descs, nil
}

// cellSpec is the one description of a cell: every input that can
// change its result, each holding the value the run will use — the
// grid's defaults filled, the lock count already fitted to the workload
// (workload.LockSet). Cells builds one per cell and never writes it again;
// Cell.Key, Cell.Input and Cell.Spec are all derived from it, so an
// input cannot reach the run without also reaching the content address
// (TestAddressCoversSpec perturbs every field and requires the address
// to move).
type cellSpec struct {
	Key
	// tun and fault are the typed forms of Key.Tunables and Key.Faults,
	// which are their canonical encodings.
	tun   scheme.Tunables
	fault *fault.Profile

	ppn, iters    int
	seed          int64
	fw            float64
	locks         int
	zipfs         float64
	think, thinkj int64
	faultMetrics  bool
	remotePct     int64
}

// attachments is what a grid hands every cell's run that is not part of
// the cell's identity: the engine (results are engine-invariant, the
// differential suite's claim) and the in-process instruments. Trace does
// change what a cell reports, which is why traced cells have no address
// at all (Cells).
type attachments struct {
	engine string
	trace  trace.Class
	obs    *obs.Registry
}

// Cells enumerates the grid in canonical order: scheme outermost, then
// workload, then profile, then P, then the tunables cross-product
// (first axis outermost), then the fault axis (fault-free baseline
// first). Reports and run files follow this order.
//
// Cells is where a grid is checked, for every caller alike: axes that
// multiply past maxCells are a TooManyCellsError, before anything else
// is looked at; a repeated tunables axis key is a DuplicateAxisError
// and a value repeated on one axis a RepeatedValueError — both checked
// on the full axis lists, before per-scheme projection, so the same
// grid fails the same way regardless of which schemes it names; and an
// entry that would run nothing is an AxisError naming the axis and the
// entry (see checkEntries). An unknown Engine name, a negative
// ProcsPerNode or RemotePct, and an invalid fault profile are errors
// too. A grid that passes enumerates every entry it names in some cell.
func (g Grid) Cells() ([]Cell, error) {
	specs, att, err := g.enumerate()
	if err != nil {
		return nil, err
	}
	// A trace sink cannot be served from a cache: traced cells get no
	// address.
	cacheable := att.trace == 0
	cells := make([]Cell, len(specs))
	var buf []byte
	var ends []int
	var floats floatText
	if cacheable {
		buf = make([]byte, 0, 128*len(specs))
		ends = make([]int, len(specs))
	}
	for i := range specs {
		cs := &specs[i]
		cells[i] = Cell{Key: cs.Key, cs: cs, att: att}
		if cacheable {
			buf = cs.appendInput(buf, &floats)
			ends[i] = len(buf)
		}
	}
	// The grid's addresses are one string, each cell's Input a slice of it.
	all, start := string(buf), 0
	for i, end := range ends {
		cells[i].Input = all[start:end]
		start = end
	}
	return cells, nil
}

// enumerate validates the grid and builds the description of every
// cell, in canonical order, plus the attachments they share. Nothing
// reads the grid after this.
func (g Grid) enumerate() ([]cellSpec, *attachments, error) {
	g = g.fill()
	if err := g.checkSize(); err != nil {
		return nil, nil, err
	}
	// Engine names and machine shapes arrive from flags and job specs;
	// past this point they reach code that panics on a bad one.
	if err := rma.CheckEngine(g.Engine); err != nil {
		return nil, nil, fmt.Errorf("sweep: engine: %w", err)
	}
	if g.ProcsPerNode < 0 {
		return nil, nil, fmt.Errorf("sweep: ppn: negative ranks per node %d", g.ProcsPerNode)
	}
	if g.RemotePct < 0 {
		return nil, nil, fmt.Errorf("sweep: remote_pct: negative percent %d", g.RemotePct)
	}
	if err := g.checkRepeats(); err != nil {
		return nil, nil, err
	}
	for i, fp := range g.Faults {
		if fp == nil {
			continue
		}
		if err := fp.Validate(); err != nil {
			return nil, nil, fmt.Errorf("sweep: fault axis entry %d: %w", i, err)
		}
	}
	descs, err := g.checkEntries()
	if err != nil {
		return nil, nil, err
	}
	shared := cellSpec{
		ppn: g.ProcsPerNode, iters: g.Iters, seed: g.Seed, fw: g.FW,
		zipfs: g.ZipfS, think: g.ThinkNs, thinkj: g.ThinkJitterNs,
		faultMetrics: slices.ContainsFunc(g.Faults, func(fp *fault.Profile) bool { return fp != nil }),
		remotePct:    g.RemotePct,
	}
	specs := make([]cellSpec, 0, len(g.Schemes)*len(g.Workloads)*len(g.Profiles)*len(g.Ps))
	for si, schemeName := range g.Schemes {
		tuns := combos(axesFor(&descs[si], g.Tunables))
		tunKeys := make([]string, len(tuns))
		for i, tun := range tuns {
			tunKeys[i] = tun.Canonical()
		}
		faults := faultsFor(&descs[si], g.Faults)
		faultKeys := make([]string, len(faults))
		for i, fp := range faults {
			faultKeys[i] = fp.Canonical()
		}
		for _, wname := range g.Workloads {
			if schemeName == workload.SchemeFoMPIA && !workload.HasAtomicFamily(wname) {
				continue // foMPI-A runs only an atomic operation family
			}
			for _, pname := range g.Profiles {
				for _, p := range g.Ps {
					cs := shared
					cs.Scheme, cs.Workload, cs.Profile, cs.P = schemeName, wname, pname, p
					cs.locks = workload.LockSet(wname, g.Locks, p)
					for ti, tun := range tuns {
						cs.tun, cs.Tunables = tun, tunKeys[ti]
						for fi, fp := range faults {
							cs.fault, cs.Faults = fp, faultKeys[fi]
							specs = append(specs, cs)
						}
					}
				}
			}
		}
	}
	return specs, &attachments{engine: g.Engine, trace: g.Trace, obs: g.Obs}, nil
}

// inputPrefix versions the content address (see cellSpec.appendInput).
const inputPrefix = "cell/v2 "

// Names reports whether input is a content address of a cell with this
// key: every address starts with the key it was built from, so a stored
// result whose key its address does not name belongs to another cell.
func (k Key) Names(input string) bool {
	rest, ok := strings.CutPrefix(input, inputPrefix)
	if !ok {
		return false
	}
	rest, ok = strings.CutPrefix(rest, k.String())
	return ok && strings.HasPrefix(rest, " ppn=")
}

// StaleInput reports whether input is a content address written under
// another version of the encoding: "cell/v<n> " with n not the current
// one. Nothing will ever ask for such an address again, so whatever is
// stored under it can be dropped.
func StaleInput(input string) bool {
	rest, ok := strings.CutPrefix(input, "cell/v")
	if !ok || strings.HasPrefix(input, inputPrefix) {
		return false
	}
	n := 0
	for n < len(rest) && rest[n] >= '0' && rest[n] <= '9' {
		n++
	}
	return n > 0 && n < len(rest) && rest[n] == ' '
}

// SiblingOf splits a content address into the address of its sibling
// group — the same cell with its tunables cleared, what Run groups its
// cells by — and the scheme and tunables the
// address names. ok is false for anything that is not an address of
// the current version.
func SiblingOf(input string) (group, schemeName string, tun scheme.Tunables, ok bool) {
	rest, ok := strings.CutPrefix(input, inputPrefix)
	end := strings.Index(rest, " ppn=")
	if !ok || end < 0 {
		return "", "", nil, false
	}
	// Key.appendTo: scheme/workload/profile/P=<p>[/<tunables>][/faults=<f>];
	// neither the tunables nor a fault profile contain a '/'. parts are
	// substrings of input, so the group is input with the tunables'
	// segment cut out: input itself when there is none.
	var parts [6]string
	n := 0
	for key := rest[:end]; ; n++ {
		if n == len(parts) {
			return "", "", nil, false
		}
		seg, more, found := strings.Cut(key, "/")
		parts[n] = seg
		if !found {
			n++
			break
		}
		key = more
	}
	if n < 4 || !strings.HasPrefix(parts[3], "P=") || !isDecimal(parts[3][2:]) {
		return "", "", nil, false
	}
	more := parts[4:n]
	group = input
	if len(more) > 0 && !strings.HasPrefix(more[0], "faults=") {
		if tun, ok = parseTunables(more[0]); !ok {
			return "", "", nil, false
		}
		// The tunables' segment, its '/' included, starts after the
		// four segments before it and their slashes.
		at := len(inputPrefix) + len(parts[0]) + len(parts[1]) + len(parts[2]) + len(parts[3]) + 3
		group = input[:at] + input[at+1+len(more[0]):]
		more = more[1:]
	}
	if len(more) > 1 || len(more) == 1 && !strings.HasPrefix(more[0], "faults=") {
		return "", "", nil, false
	}
	return group, parts[0], tun, true
}

// isDecimal reports whether s is an int as strconv.Itoa writes it.
func isDecimal(s string) bool {
	_, err := strconv.Atoi(s)
	return err == nil && canonicalInt(s)
}

// canonicalInt reports whether s, which parses as an integer, is
// spelled as strconv.FormatInt spells it: no sign but a minus, and no
// leading zero (so no "-0").
func canonicalInt(s string) bool {
	return s[0] != '+' && (strings.TrimPrefix(s, "-")[0] != '0' || s == "0")
}

// parseTunables reads the canonical encoding Tunables.Canonical writes,
// and only that: keys in strictly increasing order, each value as
// strconv.FormatInt writes it.
func parseTunables(s string) (scheme.Tunables, bool) {
	t := scheme.Tunables{}
	prev := ""
	for more := true; more; {
		var kv string
		kv, s, more = strings.Cut(s, ",")
		k, v, ok := strings.Cut(kv, "=")
		n, err := strconv.ParseInt(v, 10, 64)
		if !ok || err != nil || !canonicalInt(v) || len(t) > 0 && k <= prev {
			return nil, false
		}
		t[k], prev = n, k
	}
	return t, true
}

// appendInput appends the cell's content address (Cell.Input): the
// versioned prefix, the key, then every other field of the spec in a
// fixed order and spelling (integers in decimal, floats in the shortest
// form that round-trips); the network scale only when it is not the
// calibrated 100 %, so addresses written before it existed still
// stand. This is the only place an address is written. floats, when
// not nil, keeps the floats' spelling from one call to the next (a
// grid's are the same in every cell).
// Any change to what a cell computes from these inputs must bump the
// prefix, which invalidates every persisted cache entry (DESIGN.md,
// "The cache key is the cell's input").
func (cs *cellSpec) appendInput(b []byte, floats *floatText) []byte {
	if floats == nil {
		floats = new(floatText)
	}
	b = append(b, inputPrefix...)
	b = cs.Key.appendTo(b)
	b = append(b, " ppn="...)
	b = strconv.AppendInt(b, int64(cs.ppn), 10)
	b = append(b, " iters="...)
	b = strconv.AppendInt(b, int64(cs.iters), 10)
	b = append(b, " seed="...)
	b = strconv.AppendInt(b, cs.seed, 10)
	b = append(b, " fw="...)
	b = floats.fw.append(b, cs.fw)
	b = append(b, " locks="...)
	b = strconv.AppendInt(b, int64(cs.locks), 10)
	b = append(b, " zipfs="...)
	b = floats.zipfs.append(b, cs.zipfs)
	b = append(b, " think="...)
	b = strconv.AppendInt(b, cs.think, 10)
	b = append(b, " thinkj="...)
	b = strconv.AppendInt(b, cs.thinkj, 10)
	b = append(b, " fm="...)
	b = strconv.AppendBool(b, cs.faultMetrics)
	if cs.remotePct != 100 {
		b = append(b, " remote="...)
		b = strconv.AppendInt(b, cs.remotePct, 10)
	}
	return b
}

// floatText is the address spelling of the floats appendInput last
// wrote: Cells formats a grid's fw and zipfs once, not once per cell.
type floatText struct{ fw, zipfs spelled }

// spelled is a float's address spelling, buf[:n], and the float's
// bits. No float64 takes more than 24 bytes.
type spelled struct {
	bits uint64
	n    int
	buf  [32]byte
}

// append appends f in the shortest form that round-trips, formatting
// it only if it is not the float s last spelled. The bits, not ==,
// tell: 0 and -0 are spelled apart.
func (s *spelled) append(b []byte, f float64) []byte {
	if bits := math.Float64bits(f); s.n == 0 || bits != s.bits {
		s.bits, s.n = bits, len(strconv.AppendFloat(s.buf[:0], f, 'g', -1, 64))
	}
	return append(b, s.buf[:s.n]...)
}

// spec builds the cell's workload.Spec from the description and the
// grid's attachments.
func (cs *cellSpec) spec(att *attachments) (workload.Spec, error) {
	wl, err := workload.ByName(cs.Workload)
	if err != nil {
		return workload.Spec{}, err
	}
	prof, err := workload.ProfileByName(cs.Profile, workload.ProfileOpts{
		Locks: cs.locks, FW: cs.fw, ZipfS: cs.zipfs, Span: cs.iters,
		ThinkNs: cs.think, ThinkJitterNs: cs.thinkj,
	})
	if err != nil {
		return workload.Spec{}, err
	}
	spec := workload.Spec{
		Scheme:       cs.Scheme,
		P:            cs.P,
		ProcsPerNode: cs.ppn,
		Seed:         cs.seed,
		Iters:        cs.iters,
		Profile:      prof,
		Workload:     wl,
		Tunables:     cs.tun.Clone(),
		Faults:       cs.fault.Clone(),
		FaultMetrics: cs.faultMetrics,
		RemotePct:    cs.remotePct,
		Engine:       att.engine,
		Obs:          att.obs,
	}
	if att.trace != 0 {
		spec.Trace = trace.New(att.trace)
	}
	return spec, nil
}

// Table renders merged results as the workbench grid table; because the
// results arrive in canonical order, its rendering is byte-identical
// for any worker count.
func Table(title string, results []CellResult) *stats.Table {
	t := &stats.Table{
		Title: title,
		Columns: []string{"Scheme", "Workload", "Profile", "P", "Tunables", "Faults", "Locks",
			"Mops", "MeanLat[us]", "P95Lat[us]", "Makespan[ms]", "Reads", "Writes", "Jain", "Extra"},
	}
	for _, r := range results {
		rep := r.Report
		// Gate on either trace-derived signal, mirroring the Report
		// fingerprint's trace section: a cell can produce a fairness
		// index without a handoff-locality histogram (no handoffs
		// crossed the analyzer), and its Jain column must still render.
		jain := "-"
		if rep.Fairness != 0 || rep.HandoffLocality != nil {
			jain = stats.FmtF(rep.Fairness)
		}
		t.AddRow(rep.Scheme, rep.Workload, rep.Profile, fmt.Sprint(rep.P), orDash(r.Key.Tunables), orDash(r.Key.Faults), fmt.Sprint(r.Locks),
			stats.FmtF(rep.ThroughputMops), stats.FmtF(rep.Latency.Mean), stats.FmtF(rep.Latency.P95),
			stats.FmtF(rep.MakespanMs), fmt.Sprint(rep.Reads), fmt.Sprint(rep.Writes), jain, extraString(rep))
	}
	return t
}

// orDash renders an optional string cell.
func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// extraString flattens workload-specific extras into one cell, every
// key in sorted order so rendering stays deterministic (map iteration
// order must never leak in) and new workloads' extras show up without
// touching an allowlist.
func extraString(rep workload.Report) string {
	if len(rep.Extra) == 0 {
		return "-"
	}
	keys := make([]string, 0, len(rep.Extra))
	for k := range rep.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%g", k, rep.Extra[k])
	}
	return strings.Join(parts, " ")
}
