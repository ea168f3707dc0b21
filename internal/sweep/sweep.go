// Package sweep is the host-parallel sweep engine: it enumerates
// scheme × workload × profile × P parameter grids as independent
// workload.Spec cells, executes them on a bounded worker pool, and
// merges the results in canonical cell order.
//
// Every cell is a byte-deterministic simulation (see DESIGN.md,
// "Determinism") with no shared mutable state, so the grid is
// embarrassingly parallel across host cores: distributing cells over
// workers changes wall-clock time but never the merged output. A
// same-grid serial-vs-parallel equality test guards that property.
//
// Sweep runs persist as JSON (see persist.go) under results/. A run
// file is a pure function of its grid, so two runs agree exactly when
// their files are cmp-equal; what a grid's cells are is pinned per cell
// by TestGoldenFingerprints.
package sweep

import (
	"errors"
	"fmt"
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
	// Empty marks the cell uncacheable (host-dependent MemStats output,
	// or a trace sink that cannot be serialized).
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
// or HandoffLocality. Code that derives a changed cell builds a new
// value (ApplyDegradation does). Such a result also carries its
// run-file fragment (see fragment.go) in an unexported field, which a
// freshly computed one does not, so tests compare cells by their
// encoding or Fingerprint, not with reflect.DeepEqual.
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
	// simulating the cell (see Run). Never persisted, and not kept by a
	// cache: it says how this Run got the result, not what the result is.
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
	// up front — hits land in the merged output without executing, so a
	// warm re-run recomputes only the dirty cells — and stores freshly
	// computed results back. Because cells are deterministic functions
	// of their Input, the merged output is byte-identical whether a cell
	// was served or computed (test-enforced).
	Cache CellCache
	// Cancel, when non-nil, aborts the sweep when closed: workers stop
	// claiming new cells, in-flight cells run to completion (and still
	// reach the Cache), and Run returns ErrCanceled.
	Cancel <-chan struct{}
}

// CellCache memoizes cell results by content address (Cell.Input).
// Implementations must be safe for concurrent use; internal/cache's
// ResultStore is the canonical one. Get may miss spuriously (eviction,
// corruption) — the cell is then recomputed — but a hit must return a
// result produced by a run of the same Input. What Get returns and what
// Put receives may be shared between the cache and any number of
// callers, so both sides treat it as read-only (see CellResult); a
// cache that keeps a Put value takes its own copy (SealCell).
//
// Sibling is derivation across runs: it returns a stored result of the
// sibling group group (SiblingOf) whose stored witness (CellWitness of
// what Put received) admits t, and that witness. Run asks it for a cell
// that missed and that no sibling in the run covers; it is neither a
// hit nor a miss. A cache that keeps no witnesses always says false.
type CellCache interface {
	Get(input string) (CellResult, bool)
	Put(input string, r CellResult)
	Sibling(group string, t scheme.Tunables) (CellResult, workload.Witness, bool)
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
	// the error otherwise.
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
// Siblings — cells that differ in their tunables only — may share one
// simulation. A finished run's witness (workload.Witness) says which
// tunables would have made every threshold comparison of the run come
// out the same; a claimed cell that a finished sibling's witness admits
// takes that sibling's report with its own Tunables and fingerprint
// (CellResult.Derived) instead of running. Every sibling group's first
// cell is claimed before any group's second, so the siblings of a group
// usually find a finished run; a cell never waits for one still
// running. With a Cache attached every cell that could derive also
// records its witness for the Cache to store, and a claimed cell no
// sibling of this run covers asks the Cache for a stored one
// (CellCache.Sibling). Only Grid.Cells output on the default engine
// derives: the reference engine, Check, and cells without an address
// (MemStats, Trace) always simulate.
func Run(cells []Cell, opts Options) ([]CellResult, error) {
	if opts.Progress != nil {
		keys := make([]string, len(cells))
		for i, c := range cells {
			keys[i] = c.Key.String()
		}
		opts.Progress.Start(keys)
	}
	results := make([]CellResult, len(cells))
	// Cache pre-pass: resolve hits up front, so only dirty cells reach
	// the worker pool and progress knows immediately which cells are
	// instantaneous (the ETA extrapolates from computed cells only).
	pending := make([]int, 0, len(cells))
	for i, c := range cells {
		if opts.Cache != nil && !opts.Check && c.Input != "" {
			if r, ok := opts.Cache.Get(c.Input); ok && r.Key == c.Key {
				results[i] = r
				if opts.Progress != nil {
					opts.Progress.CellCached(i, r.Fingerprint)
				}
				continue
			}
		}
		pending = append(pending, i)
	}
	if len(pending) == 0 {
		return results, nil
	}
	order, sibs := claimOrder(cells, pending, opts.Check)
	sibs.cache = opts.Cache
	errs := make([]error, len(cells))
	ForEach(len(order), opts.Workers, func(oi int) error {
		i := order[oi]
		errs[i] = runCell(cells[i], i, opts, results, sibs)
		return nil // errs keeps each failure at its cell's index
	})
	// The lowest-index failure, whatever order the cells were claimed in.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// siblings is what Run knows about sibling groups: cells whose
// descriptions agree in everything but the tunables.
type siblings struct {
	// group is each cell's sibling group, -1 for a cell that may not
	// derive; addr and size are per group: its address (SiblingOf) and
	// its pending cells.
	group []int
	addr  []string
	size  []int
	// cache, when set, stores every derivable cell's witness and is
	// asked for a sibling when this run has none.
	cache CellCache
	mu    sync.Mutex
	runs  [][]source // per group: the finished simulations
}

// source is a finished simulation a sibling may be derived from: its
// result index and witness.
type source struct {
	i int
	w workload.Witness
}

// witnessed reports whether cell i's run should produce its witness:
// a sibling of this run may need it, or the cache stores it.
func (s *siblings) witnessed(i int) bool {
	g := s.group[i]
	return g >= 0 && (s.cache != nil || s.size[g] > 1)
}

// from returns a finished sibling of cell i whose witness admits tun.
func (s *siblings) from(i int, tun scheme.Tunables) (source, bool) {
	g := s.group[i]
	if g < 0 || s.size[g] < 2 {
		return source{}, false
	}
	s.mu.Lock()
	runs := s.runs[g]
	s.mu.Unlock()
	for _, r := range runs {
		if r.w.Admits(tun) {
			return r, true
		}
	}
	return source{}, false
}

// finished records cell i's simulation, once results[i] is final.
func (s *siblings) finished(i int, w workload.Witness) {
	if g := s.group[i]; g >= 0 && s.size[g] > 1 && w.Scheme != "" {
		s.mu.Lock()
		s.runs[g] = append(s.runs[g], source{i, w})
		s.mu.Unlock()
	}
}

// claimOrder groups the pending cells into siblings and returns the
// order Run claims them in: every group's first cell in canonical order,
// then every group's second, and so on. Without two pending cells in one
// group the order is pending itself.
func claimOrder(cells []Cell, pending []int, check bool) ([]int, *siblings) {
	s := &siblings{group: make([]int, len(cells))}
	for i := range s.group {
		s.group[i] = -1
	}
	round := make([]int, len(pending)) // earlier pending siblings
	ids := map[string]int{}
	var buf []byte
	for pi, i := range pending {
		// A cell derives only where it could be served from a cache, and
		// never on the reference engine: the oracle runs every cell.
		c := cells[i]
		if c.Input == "" || c.att.engine == rma.EngineRef || check {
			continue
		}
		sib := *c.cs
		sib.Tunables, sib.tun = "", nil
		buf = sib.appendInput(buf[:0])
		g, ok := ids[string(buf)]
		if !ok {
			g = len(s.size)
			addr := string(buf)
			ids[addr] = g
			s.addr = append(s.addr, addr)
			s.size = append(s.size, 0)
		}
		s.group[i], round[pi] = g, s.size[g]
		s.size[g]++
	}
	s.runs = make([][]source, len(s.size))
	order := slices.Clone(pending)
	if !slices.ContainsFunc(s.size, func(n int) bool { return n > 1 }) {
		return order, s
	}
	byRound := make([]int, len(pending))
	for pi := range byRound {
		byRound[pi] = pi
	}
	slices.SortStableFunc(byRound, func(a, b int) int { return round[a] - round[b] })
	for k, pi := range byRound {
		order[k] = pending[pi]
	}
	return order, s
}

// runCell resolves cell i into results[i]: from a finished sibling of
// this run when one's witness admits the cell, from one the cache
// stored otherwise, by simulating it when neither does.
func runCell(c Cell, i int, opts Options, results []CellResult, sibs *siblings) error {
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
	if opts.Progress != nil {
		opts.Progress.CellRunning(i)
	}
	if src, ok := sibs.from(i, c.cs.tun); ok {
		derive(c, i, results[src.i], src.w, opts, results)
		return nil
	}
	if g := sibs.group[i]; g >= 0 && sibs.cache != nil {
		if r, w, ok := sibs.cache.Sibling(sibs.addr[g], c.cs.tun); ok {
			derive(c, i, r, w, opts, results)
			return nil
		}
	}
	rep, locks, sink, w, err := runOnce(c, sibs.witnessed(i))
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
	sibs.finished(i, w)
	if opts.Progress != nil {
		opts.Progress.CellDone(i, fp, nil)
	}
	return nil
}

// derive makes results[i] cell c's result from src, the result of a
// sibling whose witness w admits c: src's report with c's key, tunables
// and fingerprint. It is the one place a derived cell is built, whether
// its sibling ran in this Run or came from the cache.
func derive(c Cell, i int, src CellResult, w workload.Witness, opts Options, results []CellResult) {
	r := src.clone()
	r.Key, r.Report.Tunables, r.Trace, r.Derived = c.Key, c.Key.Tunables, nil, true
	r.Fingerprint = r.Report.Fingerprint()
	results[i] = r
	store(opts, c, results, i, w)
	if opts.Progress != nil {
		opts.Progress.CellDone(i, r.Fingerprint, nil)
	}
}

// store puts results[i] into the cache with the witness of the run that
// produced it, if there is a cache and the cell has an address.
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
type Grid struct {
	// Schemes, Workloads and Profiles name the axes (workload.Schemes,
	// workload.WorkloadNames, workload.ProfileNames).
	Schemes   []string
	Workloads []string
	Profiles  []string
	// Ps is the process-count axis (e.g. 16→512 to reproduce the
	// paper's scaling figures in one invocation). Default {64}.
	Ps []int

	// ProcsPerNode is the machine shape (default 16).
	ProcsPerNode int
	// Iters is the measured cycles per process (default 50); it also
	// sets the sweep profile's span.
	Iters int
	// Seed seeds every cell (default 1 unless SeedSet). Note the machine
	// layer treats seed 0 as 1 too, so an explicit zero seed runs the
	// same simulation as the default — SeedSet only keeps the grid from
	// rewriting the field.
	Seed int64
	// SeedSet marks Seed as explicitly chosen: fill leaves a zero Seed
	// alone instead of defaulting it to 1.
	SeedSet bool
	// FW is the writer fraction handed to the profiles.
	FW float64
	// Locks is the lock-set size for multi-lock profiles (default 8;
	// clamped to P for the sharded DHT workload).
	Locks int
	// ZipfS is the Zipf skew exponent (default 1.2 unless ZipfSSet).
	ZipfS float64
	// ZipfSSet marks ZipfS as explicitly chosen: fill leaves a zero
	// exponent alone, making S=0 (a uniform draw — every lock equally
	// hot) expressible from the workbench (-zipfs 0).
	ZipfSSet bool
	// ThinkNs / ThinkJitterNs set post-release think time.
	ThinkNs       int64
	ThinkJitterNs int64
	// RemotePct scales the calibrated inter-node latencies to this
	// percent (workload.Spec.RemotePct; default 100).
	RemotePct int64
	// Tunables adds the paper's lock parameter space as grid axes: the
	// cross-product of every axis' values becomes extra cells, innermost
	// in the canonical order, with the combination folded into each
	// cell's Key and report fingerprint. An axis applies only to the
	// schemes whose registry descriptor accepts its key (e.g. a TR axis
	// sweeps RMA-RW but leaves foMPI-Spin with a single untuned cell),
	// so mixed-scheme grids stay enumerable. An empty list reproduces
	// the pre-tunables grid byte-identically.
	Tunables []TunableAxis
	// Faults adds a fault-injection axis: each profile becomes an extra
	// cell, innermost in the canonical order (inside the tunables
	// cross-product), with the profile's canonical encoding folded into
	// the cell Key and report fingerprint. A non-empty axis always
	// enumerates the fault-free cell first — the degradation baseline —
	// and switches every cell (including fault-free ones) to
	// FaultMetrics mode so tail-latency percentiles are comparable;
	// ApplyDegradation then derives per-cell inflation metrics. Profiles
	// that request acquire timeouts apply only to schemes whose registry
	// descriptor advertises CapTimeout (mirroring the tunables-axis
	// projection; an MCS-queue node cannot abandon its slot). An empty
	// axis reproduces the pre-fault grid byte-identically.
	Faults []*fault.Profile
	// Engine selects the scheduler implementation for every cell ("" or
	// "fast" = token-owned fast path, "ref" = reference engine; Cells
	// rejects any other name); the workbench -engine flag exposes it for
	// ad-hoc differential sweeps.
	Engine string
	// MemStats enables host memory reporting per cell (see
	// workload.Spec.MemStats): heap/sys bytes per rank land in
	// Report.Extra. Host-dependent — forfeits byte-identical run files.
	MemStats bool
	// Trace, when nonzero, attaches a fresh trace sink with this class
	// mask to every cell (cells run in parallel, so sinks are per-cell),
	// filling the per-cell Report.Fairness / Report.HandoffLocality
	// metrics and returning the raw sinks via CellResult.Trace.
	Trace trace.Class
	// Obs, when non-nil, attaches the live observability instruments to
	// every cell (see workload.Spec.Obs): phase spans and per-rank
	// iteration counters. One registry is shared across all cells (every
	// instrument is concurrency-safe and merge-by-sum), so /metrics shows
	// sweep-wide totals mid-run. Observation only: with Obs on or off
	// every report and fingerprint is byte-identical (test-enforced).
	Obs *obs.Registry
}

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
	Key    string
	Values []int64
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

// checkRepeats rejects a value repeated on any axis of the grid, with
// a RepeatedValueError naming the axis and the value.
func (g Grid) checkRepeats() error {
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
// (first axis outermost). No axes — or axes with no values — yield the
// single empty combination. Axis keys must be distinct; a repeated key
// yields a DuplicateAxisError rather than a silent first-wins skip.
func combos(axes []TunableAxis) ([]scheme.Tunables, error) {
	out := []scheme.Tunables{nil}
	seen := map[string]bool{}
	for _, ax := range axes {
		if seen[ax.Key] {
			return nil, DuplicateAxisError{Key: ax.Key}
		}
		seen[ax.Key] = true
		if len(ax.Values) == 0 {
			continue
		}
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
	return out, nil
}

// axesFor projects the grid's tunable axes onto one scheme: only axes
// whose key the scheme's descriptor accepts take part in its
// cross-product, so a mixed-scheme grid never enumerates meaningless
// (and duplicate-keyed) cells. Unknown schemes keep every axis; the
// run surfaces the registry's typed error.
func axesFor(schemeName string, axes []TunableAxis) []TunableAxis {
	if len(axes) == 0 {
		return nil
	}
	d, err := scheme.Describe(schemeName)
	if err != nil {
		return axes
	}
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
// never enumerates cells the workload layer would typed-reject.
// Unknown schemes keep every profile; the run surfaces the registry's
// (or capability) typed error. An empty axis yields the single
// fault-free combination with metrics off.
func faultsFor(schemeName string, profiles []*fault.Profile) []*fault.Profile {
	if len(profiles) == 0 {
		return []*fault.Profile{nil}
	}
	out := []*fault.Profile{nil}
	d, err := scheme.Describe(schemeName)
	for _, fp := range profiles {
		if fp == nil {
			continue // the baseline cell is always enumerated exactly once
		}
		if fp.Timeout > 0 && err == nil && !d.Caps.Has(scheme.CapTimeout) {
			continue
		}
		out = append(out, fp)
	}
	return out
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
// differential suite's claim) and the in-process instruments. MemStats
// and Trace do change what a cell reports, which is why cells carrying
// them have no address at all (Cells).
type attachments struct {
	engine   string
	memStats bool
	trace    trace.Class
	obs      *obs.Registry
}

// Cells enumerates the grid in canonical order: scheme outermost, then
// workload, then profile, then P, then the tunables cross-product
// (first axis outermost), then the fault axis (fault-free baseline
// first). Reports and run files follow this order. A
// repeated tunables axis key yields a DuplicateAxisError and a value
// repeated on one axis a RepeatedValueError — both checked on the full
// axis lists, before per-scheme projection, so the same grid fails the
// same way regardless of which schemes it names. An unknown Engine
// name, a negative P, ProcsPerNode or RemotePct, and axes that multiply
// past maxCells (a TooManyCellsError) are errors too.
func (g Grid) Cells() ([]Cell, error) {
	specs, att, err := g.enumerate()
	if err != nil {
		return nil, err
	}
	// Host-dependent output (MemStats) and a trace sink cannot be served
	// from a cache: such cells get no address.
	cacheable := !att.memStats && att.trace == 0
	cells := make([]Cell, len(specs))
	var buf []byte
	var ends []int
	if cacheable {
		buf = make([]byte, 0, 128*len(specs))
		ends = make([]int, len(specs))
	}
	for i := range specs {
		cs := &specs[i]
		cells[i] = Cell{Key: cs.Key, cs: cs, att: att}
		if cacheable {
			buf = cs.appendInput(buf)
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
	// Engine names and rank counts arrive from flags and job specs; past
	// this point they reach code that panics on a bad one.
	if err := rma.CheckEngine(g.Engine); err != nil {
		return nil, nil, fmt.Errorf("sweep: engine: %w", err)
	}
	for _, p := range g.Ps {
		if p < 0 {
			return nil, nil, fmt.Errorf("sweep: ps: negative rank count %d", p)
		}
	}
	if g.ProcsPerNode < 0 {
		return nil, nil, fmt.Errorf("sweep: ppn: negative ranks per node %d", g.ProcsPerNode)
	}
	if g.RemotePct < 0 {
		return nil, nil, fmt.Errorf("sweep: remote_pct: negative percent %d", g.RemotePct)
	}
	if _, err := combos(g.Tunables); err != nil {
		return nil, nil, err
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
	shared := cellSpec{
		ppn: g.ProcsPerNode, iters: g.Iters, seed: g.Seed, fw: g.FW,
		zipfs: g.ZipfS, think: g.ThinkNs, thinkj: g.ThinkJitterNs,
		faultMetrics: len(g.Faults) > 0, remotePct: g.RemotePct,
	}
	specs := make([]cellSpec, 0, len(g.Schemes)*len(g.Workloads)*len(g.Profiles)*len(g.Ps))
	for _, schemeName := range g.Schemes {
		tuns, err := combos(axesFor(schemeName, g.Tunables))
		if err != nil {
			return nil, nil, err
		}
		tunKeys := make([]string, len(tuns))
		for i, tun := range tuns {
			tunKeys[i] = tun.Canonical()
		}
		faults := faultsFor(schemeName, g.Faults)
		faultKeys := make([]string, len(faults))
		for i, fp := range faults {
			faultKeys[i] = fp.Canonical()
		}
		for _, wname := range g.Workloads {
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
	return specs, &attachments{engine: g.Engine, memStats: g.MemStats, trace: g.Trace, obs: g.Obs}, nil
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
// group — the same cell with its tunables cleared, exactly what Run
// groups the cells it claims by — and the scheme and tunables the
// address names. ok is false for anything that is not an address of
// the current version.
func SiblingOf(input string) (group, schemeName string, tun scheme.Tunables, ok bool) {
	rest, ok := strings.CutPrefix(input, inputPrefix)
	end := strings.Index(rest, " ppn=")
	if !ok || end < 0 {
		return "", "", nil, false
	}
	// Key.appendTo: scheme/workload/profile/P=<p>[/<tunables>][/faults=<f>];
	// neither the tunables nor a fault profile contain a '/'.
	parts := strings.Split(rest[:end], "/")
	if len(parts) < 4 || !strings.HasPrefix(parts[3], "P=") || !isDecimal(parts[3][2:]) {
		return "", "", nil, false
	}
	more := parts[4:]
	if len(more) > 0 && !strings.HasPrefix(more[0], "faults=") {
		if tun, ok = parseTunables(more[0]); !ok {
			return "", "", nil, false
		}
		more = more[1:]
	}
	if len(more) > 1 || len(more) == 1 && !strings.HasPrefix(more[0], "faults=") {
		return "", "", nil, false
	}
	g := append([]byte(inputPrefix), strings.Join(append(parts[:4:4], more...), "/")...)
	return string(append(g, rest[end:]...)), parts[0], tun, true
}

func isDecimal(s string) bool {
	n, err := strconv.Atoi(s)
	return err == nil && strconv.Itoa(n) == s
}

// parseTunables reads the canonical encoding Tunables.Canonical writes,
// and only that.
func parseTunables(s string) (scheme.Tunables, bool) {
	t := scheme.Tunables{}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(kv, "=")
		n, err := strconv.ParseInt(v, 10, 64)
		if !ok || err != nil {
			return nil, false
		}
		t[k] = n
	}
	return t, t.Canonical() == s
}

// appendInput appends the cell's content address (Cell.Input): the
// versioned prefix, the key, then every other field of the spec in a
// fixed order and spelling (integers in decimal, floats in the shortest
// form that round-trips); the network scale only when it is not the
// calibrated 100 %, so addresses written before it existed still
// stand. This is the only place an address is written.
// Any change to what a cell computes from these inputs must bump the
// prefix, which invalidates every persisted cache entry (DESIGN.md,
// "The cache key is the cell's input").
func (cs *cellSpec) appendInput(b []byte) []byte {
	b = append(b, inputPrefix...)
	b = cs.Key.appendTo(b)
	b = append(b, " ppn="...)
	b = strconv.AppendInt(b, int64(cs.ppn), 10)
	b = append(b, " iters="...)
	b = strconv.AppendInt(b, int64(cs.iters), 10)
	b = append(b, " seed="...)
	b = strconv.AppendInt(b, cs.seed, 10)
	b = append(b, " fw="...)
	b = strconv.AppendFloat(b, cs.fw, 'g', -1, 64)
	b = append(b, " locks="...)
	b = strconv.AppendInt(b, int64(cs.locks), 10)
	b = append(b, " zipfs="...)
	b = strconv.AppendFloat(b, cs.zipfs, 'g', -1, 64)
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

// spec builds the cell's workload.Spec from the description and the
// grid's attachments.
func (cs *cellSpec) spec(att *attachments) (workload.Spec, error) {
	wl, err := workload.ByName(cs.Workload)
	if err != nil {
		return workload.Spec{}, err
	}
	// zipfs is the exponent to use as it stands: a zero was asked for.
	prof, err := workload.ProfileByName(cs.Profile, workload.ProfileOpts{
		Locks: cs.locks, FW: cs.fw, ZipfS: cs.zipfs, ZipfSSet: true, Span: cs.iters,
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
		MemStats:     att.memStats,
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
