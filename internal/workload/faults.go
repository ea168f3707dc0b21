package workload

import (
	"fmt"

	"rmalocks/internal/fault"
	"rmalocks/internal/locks"
	"rmalocks/internal/rma"
	"rmalocks/internal/scheme"
	"rmalocks/internal/spinwait"
)

// Retry backoff bounds (virtual ns) between timed-out acquire attempts:
// wider than the locks' own spin backoff, since a timeout means the
// holder is stalled or the lock is convoyed.
const (
	retryBackoffMin = 1000
	retryBackoffMax = 64000
)

// timedSet resolves the bounded-acquire view of every lock in the set
// when the spec's fault profile asks for acquire timeouts. Schemes (or
// custom Make locks) without bounded-acquire support are typed-rejected
// with a *scheme.CapabilityError — an MCS-queue node cannot be
// abandoned, so pretending to time out would corrupt the queue. Returns
// nil when the spec does not request timeouts or runs no lock.
func timedSet(spec Spec, set []locks.RWMutex) ([]locks.TryRWMutex, error) {
	if set == nil || spec.Faults == nil || spec.Faults.Timeout <= 0 {
		return nil, nil
	}
	timed := make([]locks.TryRWMutex, len(set))
	for i, l := range set {
		if sl, ok := l.(scheme.Lock); ok {
			t, ok := scheme.AsTimed(sl)
			if !ok {
				return nil, &scheme.CapabilityError{Scheme: sl.Name(), Need: scheme.CapTimeout}
			}
			timed[i] = t
			continue
		}
		switch impl := l.(type) {
		case locks.TryRWMutex:
			timed[i] = impl
		case locks.WriterOnly:
			tm, ok := impl.Mu.(locks.TryMutex)
			if !ok {
				return nil, &scheme.CapabilityError{Scheme: specScheme(spec), Need: scheme.CapTimeout}
			}
			timed[i] = locks.TryWriterOnly{Mu: tm}
		default:
			return nil, &scheme.CapabilityError{Scheme: specScheme(spec), Need: scheme.CapTimeout}
		}
	}
	return timed, nil
}

// faultCounters collects the bounded-acquire outcome counts, one slot
// per rank: each simulated process writes only its own slot, so the
// parallel engine's concurrent writers stay race-free and the totals
// are engine-invariant.
type faultCounters struct {
	timeouts  []int64 // timed-out acquire attempts
	retries   []int64 // re-attempts after a timeout
	abandoned []int64 // cycles given up after exhausting retries
	depth     []int64 // deepest retry count of any single acquire
}

func newFaultCounters(procs int) *faultCounters {
	return &faultCounters{
		timeouts:  make([]int64, procs),
		retries:   make([]int64, procs),
		abandoned: make([]int64, procs),
		depth:     make([]int64, procs),
	}
}

// apply folds the per-rank counts into the report's Extra map:
// totals, the deepest retry chain, and the timeout rate over all
// acquire attempts (successes plus timeouts).
func (fc *faultCounters) apply(rep *Report) {
	var timeouts, retries, abandoned, depth int64
	for r := range fc.timeouts {
		timeouts += fc.timeouts[r]
		retries += fc.retries[r]
		abandoned += fc.abandoned[r]
		if fc.depth[r] > depth {
			depth = fc.depth[r]
		}
	}
	rep.Extra["timeouts"] = float64(timeouts)
	rep.Extra["retries"] = float64(retries)
	rep.Extra["abandoned"] = float64(abandoned)
	rep.Extra["retry_depth"] = float64(depth)
	// Every cycle ends in exactly one successful acquire unless it was
	// abandoned; adding timeouts gives the total try-attempt count.
	attempts := rep.Ops + rep.WarmupOps - abandoned + timeouts
	if attempts > 0 {
		rep.Extra["timeout_rate"] = float64(timeouts) / float64(attempts)
	} else {
		rep.Extra["timeout_rate"] = 0
	}
}

// acquireTimed is the bounded acquire path: each attempt is bounded by
// the profile's Timeout, failed attempts back off with capped
// exponential virtual pauses and retry up to MaxRetries times. Returns
// false when the cycle is abandoned; with onexhaust=abort the run
// aborts instead with ErrRetriesExhausted.
func acquireTimed(p *rma.Proc, lk locks.TryRWMutex, write bool, prof *fault.Profile, fc *faultCounters) bool {
	r := p.Rank()
	b := spinwait.New(retryBackoffMin, retryBackoffMax)
	for attempt := 0; ; attempt++ {
		var ok bool
		if write {
			ok = lk.TryAcquireWriteFor(p, prof.Timeout)
		} else {
			ok = lk.TryAcquireReadFor(p, prof.Timeout)
		}
		if ok {
			if int64(attempt) > fc.depth[r] {
				fc.depth[r] = int64(attempt)
			}
			return true
		}
		fc.timeouts[r]++
		if attempt >= prof.MaxRetries() {
			if prof.AbortOnExhaust {
				p.Abort(fmt.Errorf("%w (rank %d after %d attempts)", ErrRetriesExhausted, r, attempt+1))
			}
			fc.abandoned[r]++
			if int64(attempt) > fc.depth[r] {
				fc.depth[r] = int64(attempt)
			}
			return false
		}
		fc.retries[r]++
		b.Pause(p)
	}
}
