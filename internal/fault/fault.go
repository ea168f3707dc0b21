// Package fault is the deterministic perturbation layer of the machine
// model: seeded RTT jitter, congestion windows on the network link
// class, per-rank straggler multipliers on occupancy, and stall
// intervals that model a descheduled holder. Every perturbation is a
// pure function of (seed, rank, per-rank charge-event index, virtual
// clock), so a faulted run is exactly as deterministic as a fault-free
// one: identical configs stay byte-identical across the fast and
// reference engines (differential-tested).
//
// All perturbations are additive-only — jitter and congestion scale the
// round trip up, stragglers scale occupancy up, stalls defer the op — so
// the fault-free latency table stays a lower bound under any profile.
//
// A Profile also carries the bounded-acquire knobs (Timeout, Retries,
// AbortOnExhaust) consumed by the workload harness; they do not perturb
// the machine, they change how workloads acquire locks.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Defaults applied by Parse when a key is given without the optional
// sub-value.
const (
	// DefaultCongestPeriod is the congestion window period (1ms).
	DefaultCongestPeriod int64 = 1_000_000
	// DefaultRetries bounds the harness retry loop when timeout= is set
	// without retries=.
	DefaultRetries = 8
)

// Profile is one fault configuration. The zero value is fault-free.
// Durations are virtual nanoseconds.
type Profile struct {
	// Seed perturbs the fault hash stream independently of the machine
	// seed (0 = derive everything from the machine seed alone).
	Seed int64 `json:"seed,omitempty"`

	// Jitter adds up to Jitter×RTT of per-op round-trip jitter
	// (e.g. 0.2 = up to +20% per hop). Must be in [0, 16].
	Jitter float64 `json:"jitter,omitempty"`

	// CongestFactor multiplies the RTT of network links (distance >= 2)
	// by this factor during congestion windows. Must be >= 1 (1 = off).
	CongestFactor float64 `json:"congest_factor,omitempty"`
	// CongestDuty is the fraction of each period the window is
	// congested, in (0, 1].
	CongestDuty float64 `json:"congest_duty,omitempty"`
	// CongestPeriod is the square-wave period in virtual ns
	// (DefaultCongestPeriod when zero).
	CongestPeriod int64 `json:"congest_period,omitempty"`

	// StragglerFactor multiplies the occupancy of ops targeting a
	// straggler rank. Must be >= 1 (1 = off).
	StragglerFactor float64 `json:"straggler_factor,omitempty"`
	// StragglerFrac is the fraction of ranks that are stragglers,
	// in (0, 1]. Membership is a pure function of (seed, rank).
	StragglerFrac float64 `json:"straggler_frac,omitempty"`

	// Stall defers an op by this many virtual ns (the rank is
	// descheduled mid-protocol, e.g. a stalled lock holder).
	Stall int64 `json:"stall,omitempty"`
	// StallProb is the per-op probability of a stall, in (0, 1].
	StallProb float64 `json:"stall_prob,omitempty"`

	// Timeout bounds each lock acquire attempt (virtual ns). Requires a
	// scheme with the CapTimeout capability; others are typed-rejected.
	Timeout int64 `json:"timeout,omitempty"`
	// Retries is the number of backed-off re-attempts after the first
	// timed-out acquire before the rank gives up on the cycle.
	Retries int `json:"retries,omitempty"`
	// AbortOnExhaust aborts the whole run with ErrRetriesExhausted when
	// a rank runs out of retries, instead of abandoning the cycle.
	AbortOnExhaust bool `json:"abort_on_exhaust,omitempty"`
}

// UnknownKeyError reports an unrecognized key in a fault spec string.
type UnknownKeyError struct {
	Key  string
	Have []string // valid keys, sorted
}

func (e *UnknownKeyError) Error() string {
	return fmt.Sprintf("fault: unknown key %q (have %s)", e.Key, strings.Join(e.Have, ", "))
}

// ValueError reports a malformed or out-of-range value in a fault spec.
type ValueError struct {
	Key    string
	Value  string
	Reason string
}

func (e *ValueError) Error() string {
	return fmt.Sprintf("fault: bad value %s=%q: %s", e.Key, e.Value, e.Reason)
}

// keys lists the accepted spec keys, sorted (the Canonical emission
// order and the UnknownKeyError help text).
var keys = []string{
	"congest", "jitter", "onexhaust", "retries", "seed", "stall",
	"stragglers", "timeout",
}

// Parse builds a Profile from a comma-separated spec:
//
//	jitter=0.2                up to +20% RTT jitter per op
//	congest=3x0.25[@1ms]      ×3 RTT on network links, 25% duty windows
//	stragglers=4x1%           1% of ranks get ×4 occupancy
//	stall=50us@0.01           1% of ops deferred by 50µs
//	timeout=200us             bounded lock acquires (CapTimeout schemes)
//	retries=8                 backed-off re-attempts after a timeout
//	onexhaust=abandon|abort   exhausted retries: skip the cycle or abort
//	seed=42                   extra fault-stream seed
//
// Durations accept ns/us/ms/s suffixes (bare numbers are ns); fractions
// accept percent ("1%") or decimal ("0.01"). A factor of 1, and retries=
// without timeout=, change nothing and parse as absent, which is how
// Canonical renders them. Unknown keys return a typed *UnknownKeyError,
// bad values a typed *ValueError.
func Parse(spec string) (*Profile, error) {
	p := &Profile{}
	retriesSet := false
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		if !ok || val == "" {
			return nil, &ValueError{Key: key, Value: val, Reason: "want key=value"}
		}
		switch key {
		case "jitter":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 || f > 16 {
				return nil, &ValueError{Key: key, Value: val, Reason: "want a factor in [0, 16]"}
			}
			p.Jitter = f
		case "congest":
			factor, rest, ok := cutFloat(val, "x")
			if !ok || factor < 1 {
				return nil, &ValueError{Key: key, Value: val, Reason: "want FACTORxDUTY[@PERIOD] with factor >= 1"}
			}
			dutyStr, periodStr, hasPeriod := strings.Cut(rest, "@")
			duty, err := parseFrac(dutyStr)
			if err != nil || duty <= 0 || duty > 1 {
				return nil, &ValueError{Key: key, Value: val, Reason: "want duty in (0, 1]"}
			}
			period := DefaultCongestPeriod
			if hasPeriod {
				period, err = parseDur(periodStr)
				if err != nil || period <= 0 {
					return nil, &ValueError{Key: key, Value: val, Reason: "want period > 0"}
				}
			}
			if factor == 1 {
				factor, duty, period = 0, 0, 0
			}
			p.CongestFactor, p.CongestDuty, p.CongestPeriod = factor, duty, period
		case "stragglers":
			factor, fracStr, ok := cutFloat(val, "x")
			if !ok || factor < 1 {
				return nil, &ValueError{Key: key, Value: val, Reason: "want FACTORxFRAC with factor >= 1"}
			}
			frac, err := parseFrac(fracStr)
			if err != nil || frac <= 0 || frac > 1 {
				return nil, &ValueError{Key: key, Value: val, Reason: "want fraction in (0, 1]"}
			}
			if factor == 1 {
				factor, frac = 0, 0
			}
			p.StragglerFactor, p.StragglerFrac = factor, frac
		case "stall":
			durStr, probStr, hasProb := strings.Cut(val, "@")
			d, err := parseDur(durStr)
			if err != nil || d <= 0 {
				return nil, &ValueError{Key: key, Value: val, Reason: "want DUR[@PROB] with dur > 0"}
			}
			prob := 1.0
			if hasProb {
				prob, err = parseFrac(probStr)
				if err != nil || prob <= 0 || prob > 1 {
					return nil, &ValueError{Key: key, Value: val, Reason: "want probability in (0, 1]"}
				}
			}
			p.Stall, p.StallProb = d, prob
		case "timeout":
			d, err := parseDur(val)
			if err != nil || d <= 0 {
				return nil, &ValueError{Key: key, Value: val, Reason: "want a duration > 0"}
			}
			p.Timeout = d
		case "retries":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return nil, &ValueError{Key: key, Value: val, Reason: "want an integer >= 0"}
			}
			p.Retries = n
			retriesSet = true
		case "onexhaust":
			switch val {
			case "abandon":
				p.AbortOnExhaust = false
			case "abort":
				p.AbortOnExhaust = true
			default:
				return nil, &ValueError{Key: key, Value: val, Reason: `want "abandon" or "abort"`}
			}
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, &ValueError{Key: key, Value: val, Reason: "want an integer"}
			}
			p.Seed = n
		default:
			return nil, &UnknownKeyError{Key: key, Have: keys}
		}
	}
	switch {
	case p.Timeout == 0:
		p.Retries = 0
	case !retriesSet:
		p.Retries = DefaultRetries
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Validate checks the profile's invariants: every multiplier >= 1,
// every additive term >= 0, every probability in range. These bounds
// are what make every perturbation additive-only.
func (p *Profile) Validate() error {
	check := func(ok bool, key, reason string) error {
		if ok {
			return nil
		}
		return &ValueError{Key: key, Value: p.Canonical(), Reason: reason}
	}
	if err := check(p.Jitter >= 0 && p.Jitter <= 16, "jitter", "factor out of [0, 16]"); err != nil {
		return err
	}
	if p.CongestFactor != 0 || p.CongestDuty != 0 {
		if err := check(p.CongestFactor >= 1, "congest", "factor < 1"); err != nil {
			return err
		}
		if err := check(p.CongestDuty > 0 && p.CongestDuty <= 1, "congest", "duty out of (0, 1]"); err != nil {
			return err
		}
	}
	if p.StragglerFactor != 0 || p.StragglerFrac != 0 {
		if err := check(p.StragglerFactor >= 1, "stragglers", "factor < 1"); err != nil {
			return err
		}
		if err := check(p.StragglerFrac > 0 && p.StragglerFrac <= 1, "stragglers", "fraction out of (0, 1]"); err != nil {
			return err
		}
	}
	if p.Stall != 0 || p.StallProb != 0 {
		if err := check(p.Stall > 0, "stall", "duration <= 0"); err != nil {
			return err
		}
		if err := check(p.StallProb > 0 && p.StallProb <= 1, "stall", "probability out of (0, 1]"); err != nil {
			return err
		}
	}
	if err := check(p.Timeout >= 0, "timeout", "duration < 0"); err != nil {
		return err
	}
	return check(p.Retries >= 0, "retries", "count < 0")
}

// Canonical renders the profile as a sorted key=value spec that Parse
// round-trips exactly; it is the form used in sweep keys, report
// fingerprints and baselines. A zero profile renders as "".
func (p *Profile) Canonical() string {
	if p == nil {
		return ""
	}
	var parts []string
	if p.CongestFactor > 1 {
		s := fmt.Sprintf("congest=%sx%s", ftoa(p.CongestFactor), ftoa(p.CongestDuty))
		if period := p.CongestPeriod; period != 0 && period != DefaultCongestPeriod {
			s += fmt.Sprintf("@%d", period)
		}
		parts = append(parts, s)
	}
	if p.Jitter > 0 {
		parts = append(parts, "jitter="+ftoa(p.Jitter))
	}
	if p.AbortOnExhaust {
		parts = append(parts, "onexhaust=abort")
	}
	if p.Timeout > 0 && p.Retries != DefaultRetries {
		parts = append(parts, fmt.Sprintf("retries=%d", p.Retries))
	}
	if p.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	}
	if p.Stall > 0 {
		parts = append(parts, fmt.Sprintf("stall=%d@%s", p.Stall, ftoa(p.StallProb)))
	}
	if p.StragglerFactor > 1 {
		parts = append(parts, fmt.Sprintf("stragglers=%sx%s", ftoa(p.StragglerFactor), ftoa(p.StragglerFrac)))
	}
	if p.Timeout > 0 {
		parts = append(parts, fmt.Sprintf("timeout=%d", p.Timeout))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func (p *Profile) String() string { return p.Canonical() }

// Clone returns a copy (profiles are plain values; Clone exists so
// callers holding a *Profile can snapshot it safely).
func (p *Profile) Clone() *Profile {
	if p == nil {
		return nil
	}
	c := *p
	return &c
}

// Perturbs reports whether the profile perturbs machine timing at all
// (the Timeout/Retries knobs alone do not — they only bound acquires).
func (p *Profile) Perturbs() bool {
	return p != nil && (p.Jitter > 0 || p.CongestFactor > 1 ||
		p.StragglerFactor > 1 || p.Stall > 0)
}

// MaxRetries returns the retry bound for bounded acquires.
func (p *Profile) MaxRetries() int { return p.Retries }

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// cutFloat splits "12.5xREST" at sep and parses the prefix.
func cutFloat(s, sep string) (float64, string, bool) {
	head, rest, ok := strings.Cut(s, sep)
	if !ok {
		return 0, "", false
	}
	f, err := strconv.ParseFloat(head, 64)
	if err != nil {
		return 0, "", false
	}
	return f, rest, true
}

// parseFrac parses "0.01" or "1%" into a fraction.
func parseFrac(s string) (float64, error) {
	if pct, ok := strings.CutSuffix(s, "%"); ok {
		f, err := strconv.ParseFloat(pct, 64)
		return f / 100, err
	}
	return strconv.ParseFloat(s, 64)
}

// parseDur parses a virtual duration: bare numbers are ns; ns/us/ms/s
// suffixes are accepted ("50us", "1.5ms").
func parseDur(s string) (int64, error) {
	mult := int64(1)
	for _, u := range []struct {
		suffix string
		mult   int64
	}{{"ns", 1}, {"us", 1_000}, {"µs", 1_000}, {"ms", 1_000_000}, {"s", 1_000_000_000}} {
		if v, ok := strings.CutSuffix(s, u.suffix); ok {
			s, mult = v, u.mult
			break
		}
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	return int64(f * float64(mult)), nil
}
