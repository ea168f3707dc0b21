package fault

// Hash-stream salts, one per fault class. Two perturbations of the same
// charge event draw from independent streams, so enabling one never
// shifts another's schedule.
const (
	saltStall     uint64 = 0xA11CE
	saltJitter    uint64 = 0xB0B
	saltStraggler uint64 = 0x57A6
)

// Injector is a Profile compiled against one machine: the resolved hash
// seed and the per-rank straggler set. It is immutable after
// construction; the per-rank event index that drives the hash stream
// lives with the caller.
type Injector struct {
	prof      Profile
	seed      uint64
	straggler []bool
}

// NewInjector compiles prof for a machine with the given seed and rank
// count. Returns nil when prof is nil or perturbs nothing, so callers
// can gate injection on one nil check.
func NewInjector(prof *Profile, machineSeed int64, ranks int) *Injector {
	if !prof.Perturbs() {
		return nil
	}
	in := &Injector{
		prof: *prof,
		seed: mix(uint64(machineSeed) ^ mix(uint64(prof.Seed))),
	}
	if in.prof.CongestPeriod == 0 {
		in.prof.CongestPeriod = DefaultCongestPeriod
	}
	if in.prof.StragglerFactor > 1 {
		in.straggler = make([]bool, ranks)
		for r := range in.straggler {
			in.straggler[r] = unit(mix(in.seed^mix(uint64(r)^saltStraggler))) < in.prof.StragglerFrac
		}
	}
	return in
}

// Straggler reports whether rank is in the straggler set.
func (in *Injector) Straggler(rank int) bool {
	return in.straggler != nil && in.straggler[rank]
}

// Perturb applies the profile to one charge event: idx is the origin
// rank's running charge-event index, clock its effective clock, dist
// the topology distance and rtt/occ the base latency terms. It returns
// the perturbed rtt and occ plus a stall that defers the op's issue.
// Pure function of its arguments and the injector — no state — so the
// schedule is identical wherever in the engine matrix it is evaluated.
func (in *Injector) Perturb(rank int, idx uint64, clock int64, dist, target int, rtt, occ int64) (rtt2, occ2, stall int64) {
	p := &in.prof
	if p.Stall > 0 {
		if unit(in.hash(rank, idx, saltStall)) < p.StallProb {
			stall = p.Stall
		}
	}
	if p.CongestFactor > 1 && dist >= 2 {
		// Deterministic square wave over virtual time: the window state
		// depends on when the op actually issues (post-stall), like real
		// congestion would.
		phase := (clock + stall) % p.CongestPeriod
		if float64(phase) < p.CongestDuty*float64(p.CongestPeriod) {
			rtt = int64(float64(rtt) * p.CongestFactor)
		}
	}
	if p.Jitter > 0 {
		rtt += int64(float64(rtt) * p.Jitter * unit(in.hash(rank, idx, saltJitter)))
	}
	if in.straggler != nil && in.straggler[target] {
		occ = int64(float64(occ) * p.StragglerFactor)
	}
	return rtt, occ, stall
}

// hash derives the stream value for (rank, event index, fault class).
func (in *Injector) hash(rank int, idx, salt uint64) uint64 {
	return mix(in.seed ^ mix(uint64(rank)^mix(idx^salt)))
}

// mix is the splitmix64 finalizer: a bijective avalanche over uint64.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// unit maps a hash to [0, 1) with 53-bit precision.
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }
