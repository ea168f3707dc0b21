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
// when the fault profile asks for acquire timeouts. A scheme without
// bounded-acquire support is typed-rejected with a
// *scheme.CapabilityError — an MCS-queue node cannot be abandoned, so
// pretending to time out would corrupt the queue. Returns nil when the
// profile does not request timeouts or the run has no lock.
func timedSet(prof *fault.Profile, set []scheme.Lock) ([]locks.TryRWMutex, error) {
	if set == nil || prof == nil || prof.Timeout <= 0 {
		return nil, nil
	}
	timed := make([]locks.TryRWMutex, len(set))
	for i, l := range set {
		t, ok := scheme.AsTimed(l)
		if !ok {
			return nil, &scheme.CapabilityError{Scheme: l.Name(), Need: scheme.CapTimeout}
		}
		timed[i] = t
	}
	return timed, nil
}

// faultCounters collects the bounded-acquire outcome counts over all
// ranks. The ranks of a cell run one at a time, so plain integers are
// safe; sums and a max come out the same in any order of updates, so
// the totals are engine-invariant.
type faultCounters struct {
	timeouts  int64 // timed-out acquire attempts
	retries   int64 // re-attempts after a timeout
	abandoned int64 // cycles given up after exhausting retries
	depth     int64 // deepest retry count of any single acquire
}

// apply records the counts in the report's Extra map: totals, the
// deepest retry chain, and the timeout rate over all acquire attempts
// (successes plus timeouts).
func (fc *faultCounters) apply(rep *Report) {
	rep.Extra["timeouts"] = float64(fc.timeouts)
	rep.Extra["retries"] = float64(fc.retries)
	rep.Extra["abandoned"] = float64(fc.abandoned)
	rep.Extra["retry_depth"] = float64(fc.depth)
	// Every cycle ends in exactly one successful acquire unless it was
	// abandoned; adding timeouts gives the total try-attempt count.
	attempts := rep.Ops + rep.WarmupOps - fc.abandoned + fc.timeouts
	if attempts > 0 {
		rep.Extra["timeout_rate"] = float64(fc.timeouts) / float64(attempts)
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
			fc.depth = max(fc.depth, int64(attempt))
			return true
		}
		fc.timeouts++
		if attempt >= prof.MaxRetries() {
			if prof.AbortOnExhaust {
				p.Abort(fmt.Errorf("%w (rank %d after %d attempts)", ErrRetriesExhausted, r, attempt+1))
			}
			fc.abandoned++
			fc.depth = max(fc.depth, int64(attempt))
			return false
		}
		fc.retries++
		b.Pause(p)
	}
}
