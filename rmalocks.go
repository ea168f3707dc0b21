// Package rmalocks is a Go reproduction of "High-Performance Distributed
// RMA Locks" (Schmid, Besta, Hoefler — ACM HPDC'16): topology-aware
// distributed MCS and Reader-Writer locks built on Remote Memory Access
// (RMA) operations, together with the substrate they need — a
// deterministic discrete-event simulation of a multi-node machine with an
// RDMA-style network.
//
// # Quick start
//
//	machine := rmalocks.NewMachine(rmalocks.MachineSpec{Nodes: 4, ProcsPerNode: 16})
//	lock, err := rmalocks.NewLock(machine, "RMA-RW",
//		rmalocks.Tune("TR", 500), rmalocks.Tune("TL1", 16), rmalocks.Tune("TL2", 32))
//	if err != nil { ... }
//	err = machine.Run(func(p *rmalocks.Proc) {
//		lock.AcquireRead(p)
//		// ... read shared state ...
//		lock.ReleaseRead(p)
//	})
//
// NewLock dispatches through the capability-based scheme registry
// (internal/scheme): Schemes lists every registered lock scheme,
// Describe returns a scheme's capabilities and its typed tunables —
// the paper's T_DC, T_R, T_L,i parameter space (Figure 1) — with
// documented defaults and validity ranges, and construction validates
// tunables instead of silently defaulting.
//
// Each simulated process is a coroutine, created when the scheduler
// first dispatches it; one process runs at a time and virtual time is
// deterministic, so results are exactly reproducible. See the examples/
// directory for complete programs and DESIGN.md for how the simulation
// maps to the paper's Cray XC30 testbed.
package rmalocks

import (
	"fmt"

	"rmalocks/internal/cache"
	"rmalocks/internal/fault"
	"rmalocks/internal/jobq"
	"rmalocks/internal/rma"
	"rmalocks/internal/scheme"
	"rmalocks/internal/sweep"
	"rmalocks/internal/topology"
	"rmalocks/internal/workload"
)

// Proc is the per-process handle passed to the body of Machine.Run; it
// exposes the paper's RMA operations (Put, Get, Accumulate, FAO, CAS,
// Flush) plus virtual-time helpers (Compute, Barrier, Now).
type Proc = rma.Proc

// Machine is a simulated distributed machine.
type Machine = rma.Machine

// MachineSpec describes a machine to simulate. The zero value of optional
// fields selects the paper's defaults.
type MachineSpec struct {
	// Nodes is the number of compute nodes (level-2 elements). Default 1.
	Nodes int
	// ProcsPerNode is the number of processes per node. Default 16 (the
	// paper's one-process-per-hardware-thread configuration).
	ProcsPerNode int
	// Seed seeds the per-process random streams (default 1).
	Seed int64
	// TimeLimit aborts a run after this much virtual time (ns); zero
	// means no limit.
	TimeLimit int64
}

// NewMachine builds a simulated machine from spec using the calibrated
// default latency model. It panics on an invalid spec (negative
// fields); NewMachineErr is the validating form.
func NewMachine(spec MachineSpec) *Machine {
	m, err := NewMachineErr(spec)
	if err != nil {
		panic(err.Error())
	}
	return m
}

// NewMachineErr builds a simulated machine from spec, returning a
// descriptive error instead of panicking when the spec is invalid:
// non-positive Nodes or ProcsPerNode, or more ranks than the
// scheduler's int32 rank ids hold.
func NewMachineErr(spec MachineSpec) (*Machine, error) {
	if spec.Nodes == 0 {
		spec.Nodes = 1
	}
	if spec.ProcsPerNode == 0 {
		spec.ProcsPerNode = 16
	}
	topo, err := topology.New([]int{1, spec.Nodes}, spec.ProcsPerNode)
	if err != nil {
		return nil, fmt.Errorf("rmalocks: invalid MachineSpec: %w", err)
	}
	return rma.NewMachineConfig(topo, rma.Config{Seed: spec.Seed, TimeLimit: spec.TimeLimit}), nil
}

// NewMachineForProcs builds a two-level machine hosting exactly p
// processes at the paper's 16 processes per node.
func NewMachineForProcs(p int) *Machine {
	return rma.NewMachine(topology.ForProcs(p, 16))
}

// Scheme registry (internal/scheme, see DESIGN.md "Scheme registry &
// tunables"): lock schemes, their capabilities and their typed tunables
// — the paper's T_DC / T_R / T_L,i parameter space (Figure 1) — are
// enumerable data. NewLock validates tunables against each scheme's
// declared specs and returns typed errors instead of silently
// defaulting or panicking.
type (
	// Lock is the unified capability-checked lock handle: every scheme
	// presents the RWMutex interface (mutex-only schemes acquire
	// exclusively on reads), plus Name/Caps/Underlying introspection.
	Lock = scheme.Lock
	// SchemeDescriptor declares one registered scheme: name, aliases,
	// capabilities and tunable specs.
	SchemeDescriptor = scheme.Descriptor
	// Tunables maps tunable keys ("TR", "TL2", ...) to values.
	Tunables = scheme.Tunables
)

// CapRW marks schemes with genuine reader-writer semantics.
const CapRW = scheme.CapRW

// TuneOption sets tunables for NewLock.
type TuneOption func(Tunables)

// Tune sets a single tunable, e.g. Tune("TR", 500) or Tune("TL2", 16).
func Tune(key string, value int64) TuneOption {
	return func(t Tunables) { t[key] = value }
}

// NewLock allocates one lock of the named scheme on m through the
// registry, validating the tunables against the scheme's declared
// specs (typed errors for unknown schemes, unknown tunables and
// out-of-range values). Lookup is case-insensitive ("rma-rw" works).
// Call before m.Run.
//
//	lock, err := rmalocks.NewLock(m, "RMA-RW",
//		rmalocks.Tune("TR", 500), rmalocks.Tune("TL2", 32))
func NewLock(m *Machine, name string, opts ...TuneOption) (Lock, error) {
	t := Tunables{}
	for _, opt := range opts {
		opt(t)
	}
	return scheme.New(m, name, t)
}

// Schemes lists every registered lock scheme's canonical name in
// presentation order (the paper's mutex baselines first, then the RW
// locks).
func Schemes() []string { return scheme.Names() }

// Describe returns the named scheme's descriptor: capabilities plus
// its tunables with documented defaults and validity ranges.
func Describe(name string) (SchemeDescriptor, error) { return scheme.Describe(name) }

// Workload subsystem (see DESIGN.md, "The workload subsystem"): a
// pluggable benchmark layer that runs any lock scheme against any
// critical-section workload under any contention profile, with
// deterministic, seed-reproducible results.
type (
	// WorkloadSpec configures one harness run (scheme × workload ×
	// profile on a machine).
	WorkloadSpec = workload.Spec
	// WorkloadReport is the unified throughput/latency outcome.
	WorkloadReport = workload.Report
	// UniformProfile picks locks uniformly with a fixed writer fraction.
	UniformProfile = workload.Uniform
	// EmptyWorkload is the empty critical section (lock cost only).
	EmptyWorkload = workload.Empty
)

// RunWorkload executes one workload benchmark and returns its report.
// Results are a deterministic function of (spec, spec.Seed) — including
// under fault injection (spec.Faults).
func RunWorkload(spec WorkloadSpec) (WorkloadReport, error) {
	return workload.Run(spec)
}

// Fault injection (internal/fault, see DESIGN.md "Fault injection &
// graceful degradation"): a seeded deterministic perturbation layer —
// RTT jitter, link congestion windows, straggler ranks, stall
// intervals — plus bounded-timeout acquires with capped exponential
// backoff for schemes that can abandon an acquire. The fault schedule
// is a pure function of (machine seed, profile seed, rank, per-rank
// event index), so faulted runs stay byte-identical across all engines.
type FaultProfile = fault.Profile

// ParseFaults parses the workbench fault grammar, e.g.
// "jitter=0.2,stragglers=4x1%,stall=50us@0.01,timeout=200us"; unknown
// keys and malformed values yield typed errors (fault.UnknownKeyError,
// fault.ValueError).
func ParseFaults(spec string) (*FaultProfile, error) { return fault.Parse(spec) }

// Sweep engine (internal/sweep, see DESIGN.md "The sweep engine"):
// scheme × workload × profile × P grids executed host-parallel on a
// bounded worker pool, merged in canonical cell order (byte-identical
// for any worker count) and persisted as JSON run files.
type (
	// SweepGrid enumerates a parameter grid into independent cells.
	SweepGrid = sweep.Grid
	// SweepCell is one independent simulation of a sweep.
	SweepCell = sweep.Cell
	// SweepTunableAxis is one sweepable tunable dimension of the grid
	// (the paper's lock parameter space as a cross-product axis).
	SweepTunableAxis = sweep.TunableAxis
	// SweepOptions bounds the worker pool and enables -check mode.
	SweepOptions = sweep.Options
	// SweepCellResult is the merged outcome of one cell.
	SweepCellResult = sweep.CellResult
	// SweepRunFile is the persisted JSON run format (results/): a pure
	// function of the grid, so two runs agree when their files are
	// cmp-equal.
	SweepRunFile = sweep.RunFile
)

// RunSweep executes every cell on a bounded worker pool and merges the
// results in canonical cell order: output is byte-identical regardless
// of the worker count. A grid with a fault axis (SweepGrid.Faults)
// comes back with its degradation metrics: each faulted cell joined to
// its fault-free sibling, with tail-latency inflation (p99_infl,
// p999_infl) and, for traced grids, the Jain fairness delta.
func RunSweep(cells []SweepCell, opts SweepOptions) ([]SweepCellResult, error) {
	return sweep.Run(cells, opts)
}

// SweepTable renders merged sweep results as the workbench's aligned
// grid table (canonical cell order, byte-identical for any worker
// count).
func SweepTable(title string, results []SweepCellResult) string {
	return sweep.Table(title, results).String()
}

// SaveSweep persists a sweep run as a JSON run file; LoadSweep reads
// one back.
func SaveSweep(path, label string, results []SweepCellResult) error {
	return sweep.Save(path, sweep.RunFile{Label: label, Cells: results})
}

// LoadSweep reads a run file persisted by SaveSweep.
func LoadSweep(path string) (SweepRunFile, error) { return sweep.Load(path) }

// Sweep service & result cache (cmd/sweepd, internal/cache,
// internal/jobq; see DESIGN.md "Sweep service & result cache"): grids
// submitted as JSON over HTTP become jobs on a bounded pool, and cells
// resolve against a content-addressed result cache keyed by a
// canonical encoding of everything that affects a cell's result —
// resubmitting a grid with one changed axis recomputes only the
// dirtied cells, and results stay byte-identical to a cold local run
// regardless of cache state, worker count, or job placement.
type (
	// ResultCache is the content-addressed cell-result store: an
	// in-memory LRU under a byte budget backed by a one-file-per-entry
	// on-disk layout (atomic write-then-rename, corruption-tolerant
	// load).
	ResultCache = cache.Store
	// ResultCacheReport summarizes a cache directory load: entries
	// found, entries admitted to memory, corrupt files skipped.
	ResultCacheReport = cache.LoadReport
	// SweepCellCache is the cache hook of the sweep engine: RunSweep
	// consults it per cell when SweepOptions.Cache is set.
	SweepCellCache = sweep.CellCache

	// JobManager schedules submitted grids as jobs: bounded concurrent
	// jobs starting in submission order, per-job progress and
	// cancellation, cache-aware cell scheduling.
	JobManager = jobq.Manager
	// JobConfig wires a JobManager: worker-pool width, concurrent-job
	// bound, cell cache, and metric registry.
	JobConfig = jobq.Config
)

// OpenResultCache opens (or creates) a persistent result cache rooted
// at dir with the given in-memory byte budget (<= 0 selects 64 MiB;
// entries beyond the budget stay on disk and are reloaded on demand).
// Corrupt entries are skipped and reported, never fatal.
func OpenResultCache(dir string, budgetBytes int64) (*ResultCache, ResultCacheReport, error) {
	return cache.Open(dir, budgetBytes)
}

// NewSweepCellCache returns a ResultCache as the sweep engine's cache
// hook (SweepOptions.Cache / JobConfig.Cache), which it implements.
func NewSweepCellCache(c *ResultCache) SweepCellCache { return c }

// NewJobManager builds an idle job manager; pair it with jobq.NewAPI
// to serve the sweepd HTTP job API, or use cmd/sweepd for the
// assembled daemon.
func NewJobManager(cfg JobConfig) *JobManager { return jobq.NewManager(cfg) }

// EncodeSweepGrid encodes a grid as the sweepd wire format (POST
// /jobs). Grids carrying process-local state (trace sinks, MemStats)
// are rejected with an error naming the field.
func EncodeSweepGrid(g SweepGrid) ([]byte, error) { return sweep.EncodeGrid(g) }

// DecodeSweepGrid decodes a wire-format grid, rejecting unknown
// fields; the decoded grid enumerates exactly the submitter's cells.
func DecodeSweepGrid(data []byte) (SweepGrid, error) { return sweep.DecodeGrid(data) }
