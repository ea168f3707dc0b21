package workload

import (
	"fmt"
	"math"
	"sort"

	"rmalocks/internal/rma"
)

// Intent describes one harness iteration as decided by a Profile: which
// lock of the set the process contends on, whether it enters exclusively
// (write) or shared (read), and how long it thinks after release.
type Intent struct {
	// Lock indexes the harness's lock set, in [0, Profile.Locks()).
	Lock int
	// Write selects exclusive entry; false enters shared (read) mode.
	// Plain mutex schemes treat both modes as exclusive.
	Write bool
	// Think is virtual nanoseconds of local computation after release
	// (the paper's WARB wait-after-release, burst idle phases, …).
	Think int64
}

// Profile is a contention generator: per iteration it decides the Intent
// of a process. Implementations must draw randomness only from p.Rand()
// so a run is a deterministic function of the machine seed; `it` is the
// iteration index within the current phase (warm-up or measured).
type Profile interface {
	// Name is a short stable identifier ("uniform", "zipf", …).
	Name() string
	// Locks returns the size of the lock set this profile addresses; the
	// harness allocates that many lock instances.
	Locks() int
	// Next decides iteration it of process p.
	Next(p *rma.Proc, it int) Intent
}

// drawThink returns base plus a uniform draw in [0, jitter).
func drawThink(p *rma.Proc, base, jitter int64) int64 {
	if jitter > 0 {
		return base + p.Rand().Int63n(jitter)
	}
	return base
}

// lockCount normalizes a NumLocks field.
func lockCount(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// pickUniform selects a lock uniformly, consuming randomness only when
// there is a real choice.
func pickUniform(p *rma.Proc, n int) int {
	if n <= 1 {
		return 0
	}
	return p.Rand().Intn(n)
}

// pickWrite decides read-vs-write for writer fraction fw, consuming
// randomness only when the outcome is not forced.
func pickWrite(p *rma.Proc, fw float64) bool {
	if fw <= 0 {
		return false
	}
	if fw >= 1 {
		return true
	}
	return p.Rand().Float64() < fw
}

// Uniform is the baseline contention generator: every iteration picks a
// lock uniformly from the set, writes with probability FW, and thinks
// ThinkNs plus a uniform jitter after release. The zero value is the
// paper's ECSB driver on a single mutex (all-write, no think time).
type Uniform struct {
	// NumLocks is the lock-set size (default 1).
	NumLocks int
	// FW is the writer fraction in [0, 1]; FW >= 1 makes every entry
	// exclusive (mutex workloads).
	FW float64
	// ThinkNs is the base post-release think time (virtual ns).
	ThinkNs int64
	// ThinkJitterNs adds a uniform draw in [0, ThinkJitterNs).
	ThinkJitterNs int64
}

func (u Uniform) Name() string { return "uniform" }
func (u Uniform) Locks() int   { return lockCount(u.NumLocks) }

func (u Uniform) Next(p *rma.Proc, it int) Intent {
	return Intent{
		Lock:  pickUniform(p, u.Locks()),
		Write: pickWrite(p, u.FW),
		Think: drawThink(p, u.ThinkNs, u.ThinkJitterNs),
	}
}

// Zipf skews lock selection: lock k of the set is chosen with probability
// proportional to 1/(k+1)^S, modelling the hot-key/hot-volume access
// patterns of skewed key-value and graph workloads. Construct with
// NewZipf; the zero value is not usable.
type Zipf struct {
	// FW is the writer fraction, as in Uniform.
	FW float64
	// ThinkNs / ThinkJitterNs as in Uniform.
	ThinkNs       int64
	ThinkJitterNs int64

	s   float64
	cdf []float64 // cdf[k] = P(lock <= k); cdf[len-1] == 1
}

// NewZipf builds a Zipf profile over numLocks locks with skew exponent s
// and writer fraction fw. A negative s selects the default 1.2; s == 0
// is a legitimate setting — the skew degenerates to a uniform draw
// (every lock equally hot).
func NewZipf(numLocks int, s, fw float64) *Zipf {
	n := lockCount(numLocks)
	if s < 0 {
		s = 1.2
	}
	cdf := make([]float64, n)
	var total float64
	for k := 0; k < n; k++ {
		total += 1 / math.Pow(float64(k+1), s)
		cdf[k] = total
	}
	for k := range cdf {
		cdf[k] /= total
	}
	cdf[n-1] = 1 // guard against rounding
	return &Zipf{s: s, FW: fw, cdf: cdf}
}

func (z *Zipf) Name() string { return "zipf" }
func (z *Zipf) Locks() int   { return len(z.cdf) }

// S returns the skew exponent.
func (z *Zipf) S() float64 { return z.s }

func (z *Zipf) Next(p *rma.Proc, it int) Intent {
	lock := 0
	if len(z.cdf) > 1 {
		u := p.Rand().Float64()
		lock = sort.SearchFloat64s(z.cdf, u)
		if lock >= len(z.cdf) {
			lock = len(z.cdf) - 1
		}
	}
	return Intent{
		Lock:  lock,
		Write: pickWrite(p, z.FW),
		Think: drawThink(p, z.ThinkNs, z.ThinkJitterNs),
	}
}

// Bursty alternates on-phases of back-to-back acquisitions with
// off-phases of long think time, modelling bursty critical-section
// arrival. With Desync each rank shifts its phase so bursts only
// partially overlap (rolling contention); without it all ranks burst
// together (maximum contention spikes).
type Bursty struct {
	// NumLocks is the lock-set size (default 1).
	NumLocks int
	// FW is the writer fraction, as in Uniform.
	FW float64
	// BurstLen is the number of back-to-back iterations per on-phase
	// (default 8).
	BurstLen int
	// IdleLen is the number of iterations per off-phase (default 8).
	IdleLen int
	// IdleThinkNs is the think time charged per off-phase iteration
	// (default 20 µs).
	IdleThinkNs int64
	// IdleJitterNs adds a uniform draw in [0, IdleJitterNs) to each
	// off-phase think time.
	IdleJitterNs int64
	// Desync staggers the phase offset by rank.
	Desync bool
}

func (b Bursty) Name() string { return "bursty" }
func (b Bursty) Locks() int   { return lockCount(b.NumLocks) }

func (b Bursty) Next(p *rma.Proc, it int) Intent {
	burst, idle := b.BurstLen, b.IdleLen
	if burst <= 0 {
		burst = 8
	}
	if idle <= 0 {
		idle = 8
	}
	think := b.IdleThinkNs
	if think <= 0 {
		think = 20_000
	}
	cycle := burst + idle
	pos := it % cycle
	if b.Desync {
		pos = (it + p.Rank()*(cycle/4+1)) % cycle
	}
	in := Intent{
		Lock:  pickUniform(p, b.Locks()),
		Write: pickWrite(p, b.FW),
	}
	if pos >= burst {
		in.Think = drawThink(p, think, b.IdleJitterNs)
	}
	return in
}

// RWSweep sweeps the writer fraction linearly from FWStart to FWEnd over
// Span iterations, modelling a workload whose read/write mix drifts over
// time (e.g. a store turning read-mostly as caches warm). Iterations
// beyond Span stay at FWEnd.
type RWSweep struct {
	// NumLocks is the lock-set size (default 1).
	NumLocks int
	// FWStart and FWEnd bound the sweep (both in [0, 1]).
	FWStart, FWEnd float64
	// Span is the number of iterations the sweep covers (default 100).
	Span int
	// ThinkNs / ThinkJitterNs as in Uniform.
	ThinkNs       int64
	ThinkJitterNs int64
}

func (s RWSweep) Name() string { return "sweep" }
func (s RWSweep) Locks() int   { return lockCount(s.NumLocks) }

// FWAt returns the writer fraction in effect at iteration it.
func (s RWSweep) FWAt(it int) float64 {
	span := s.Span
	if span <= 0 {
		span = 100
	}
	frac := float64(it) / float64(span)
	if frac > 1 {
		frac = 1
	}
	if frac < 0 {
		frac = 0
	}
	return s.FWStart + float64((s.FWEnd-s.FWStart)*frac) // float64 rounds: never fused (make portable)
}

func (s RWSweep) Next(p *rma.Proc, it int) Intent {
	return Intent{
		Lock:  pickUniform(p, s.Locks()),
		Write: pickWrite(p, s.FWAt(it)),
		Think: drawThink(p, s.ThinkNs, s.ThinkJitterNs),
	}
}

// ProfileNames lists the named contention generators for CLI dispatch.
var ProfileNames = []string{"uniform", "zipf", "bursty", "sweep"}

// ProfileOpts parameterizes ProfileByName.
type ProfileOpts struct {
	// Locks is the lock-set size (default 1).
	Locks int
	// FW is the writer fraction (sweep uses it as the end point).
	FW float64
	// ZipfS is the Zipf skew exponent, used as given: zero is a uniform
	// draw (sweep.Grid gives a zero exponent the 1.2 default).
	ZipfS float64
	// Span is the sweep length in iterations (default 100).
	Span int
	// ThinkNs / ThinkJitterNs set post-release think time.
	ThinkNs       int64
	ThinkJitterNs int64
}

// ProfileByName builds one of the named contention generators.
func ProfileByName(name string, o ProfileOpts) (Profile, error) {
	switch name {
	case "uniform":
		return Uniform{NumLocks: o.Locks, FW: o.FW, ThinkNs: o.ThinkNs, ThinkJitterNs: o.ThinkJitterNs}, nil
	case "zipf":
		z := NewZipf(o.Locks, o.ZipfS, o.FW)
		z.ThinkNs, z.ThinkJitterNs = o.ThinkNs, o.ThinkJitterNs
		return z, nil
	case "bursty":
		// ThinkNs maps onto the off-phase think time (0 keeps the bursty
		// default); dropping either option silently would make the same
		// opts mean different things per profile.
		return Bursty{NumLocks: o.Locks, FW: o.FW, Desync: true,
			IdleThinkNs: o.ThinkNs, IdleJitterNs: o.ThinkJitterNs}, nil
	case "sweep":
		end := o.FW
		if end <= 0 {
			end = 1
		}
		return RWSweep{NumLocks: o.Locks, FWStart: 0, FWEnd: end, Span: o.Span,
			ThinkNs: o.ThinkNs, ThinkJitterNs: o.ThinkJitterNs}, nil
	default:
		return nil, fmt.Errorf("workload: unknown profile %q (have %v)", name, ProfileNames)
	}
}
