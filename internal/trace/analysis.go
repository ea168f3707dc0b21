package trace

import (
	"sort"

	"rmalocks/internal/stats"
)

// Acquisitions counts EvAcquired events per rank over ranks 0..n-1.
func Acquisitions(events []Event, n int) []int64 {
	counts := make([]int64, n)
	for _, e := range events {
		if e.Kind == EvAcquired && int(e.Rank) < n {
			counts[e.Rank]++
		}
	}
	return counts
}

// Jain returns the Jain fairness index (Σx)² / (n·Σx²) over the given
// per-rank counts: 1.0 means perfectly even, 1/n means one rank got
// everything. Returns 0 for an empty or all-zero sample.
func Jain(counts []int64) float64 {
	if len(counts) == 0 {
		return 0
	}
	var sum, sq float64
	for _, c := range counts {
		x := float64(c)
		sum += x
		sq += float64(x * x) // float64 rounds: never a fused multiply-add (make portable)
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(counts)) * sq)
}

// LocalityHist builds the handoff-locality histogram: for every pair of
// consecutive EvAcquired events of the same lock (in the given order,
// which must be canonical), it measures dist(previous holder, next
// holder) and counts it in the returned slice, indexed 0..maxDist.
// Distance 0 is a re-acquire by the same rank; on the paper's two-level
// machines distance 1 is an intra-node handoff and distance 2 crosses
// nodes. This is the measurable form of the paper's locality claim:
// RMA-MCS's T_L thresholds should shift mass toward low distances
// relative to the FIFO D-MCS queue.
func LocalityHist(events []Event, dist func(a, b int) int, maxDist int) []int64 {
	hist := make([]int64, maxDist+1)
	last := map[int64]int32{} // lock id -> previous holder rank
	for _, e := range events {
		if e.Kind != EvAcquired {
			continue
		}
		if prev, ok := last[e.Arg0]; ok {
			d := dist(int(prev), int(e.Rank))
			if d >= 0 && d <= maxDist {
				hist[d]++
			}
		}
		last[e.Arg0] = e.Rank
	}
	return hist
}

// FractionAtMost returns the fraction of histogram mass at distances
// <= cutoff (e.g. cutoff 1 on a two-level machine = the intra-element
// handoff fraction). Returns 0 for an empty histogram.
func FractionAtMost(hist []int64, cutoff int) float64 {
	var near, total int64
	for d, c := range hist {
		total += c
		if d <= cutoff {
			near += c
		}
	}
	if total == 0 {
		return 0
	}
	return float64(near) / float64(total)
}

// DepthPoint is one step of the wait-queue depth series: Depth waiters
// are pending lock acquisitions from Clock onward.
type DepthPoint struct {
	Clock int64
	Depth int
}

// DepthSeries derives the aggregate wait-queue depth over time from
// EvAcqStart (+1) and EvAcquired or EvAcqTimeout (-1) events, which
// must be in canonical order: a timed-out attempt was a waiter until it
// gave up. Consecutive steps at the same clock collapse into the last
// value.
func DepthSeries(events []Event) []DepthPoint {
	var out []DepthPoint
	depth := 0
	for _, e := range events {
		var d int
		switch e.Kind {
		case EvAcqStart:
			d = 1
		case EvAcquired, EvAcqTimeout:
			d = -1
		default:
			continue
		}
		depth += d
		if n := len(out); n > 0 && out[n-1].Clock == e.Clock {
			out[n-1].Depth = depth
			continue
		}
		out = append(out, DepthPoint{Clock: e.Clock, Depth: depth})
	}
	return out
}

// MaxDepth returns the maximum depth of a series (0 when empty).
func MaxDepth(series []DepthPoint) int {
	max := 0
	for _, p := range series {
		if p.Depth > max {
			max = p.Depth
		}
	}
	return max
}

// WaitTimes pairs each EvAcquired with the rank's pending EvAcqStart of
// the same lock and returns the per-rank acquire waits in µs, indexed
// by rank over 0..n-1. Unmatched events are skipped (e.g. a stream
// filtered to the measured phase may open with an Acquired whose start
// fell before the cut), and so is an attempt that timed out.
func WaitTimes(events []Event, n int) [][]float64 {
	waits := make([][]float64, n)
	eachWait(events, func(e Event, w float64) {
		if int(e.Rank) < n {
			waits[e.Rank] = append(waits[e.Rank], w)
		}
	})
	return waits
}

// eachWait calls f with every EvAcquired that resolves a pending
// EvAcqStart of its rank and lock, and with that acquire's wait in µs.
func eachWait(events []Event, f func(acquired Event, wait float64)) {
	type key struct {
		rank int32
		lock int64
	}
	pending := map[key]int64{}
	for _, e := range events {
		k := key{e.Rank, e.Arg0}
		switch e.Kind {
		case EvAcqStart:
			pending[k] = e.Clock
		case EvAcqTimeout:
			delete(pending, k)
		case EvAcquired:
			if start, ok := pending[k]; ok {
				delete(pending, k)
				f(e, float64(e.Clock-start)/1e3)
			}
		}
	}
}

// RankLatency summarizes one rank's acquire-wait distribution.
type RankLatency struct {
	Rank int
	Wait stats.Summary // µs
}

// LockLatency summarizes the acquire waits on one lock; Wait.SampleTotal
// is the cumulative wait the lock cost.
type LockLatency struct {
	Lock int64
	Wait stats.Summary // µs
}

// Analysis is the one-stop summary of a merged event stream.
type Analysis struct {
	// Ranks is the machine size the analysis ran over.
	Ranks int
	// Events is the number of analyzed events.
	Events int
	// Acquired[r] counts rank r's lock acquisitions.
	Acquired []int64
	// Fairness is the Jain index over Acquired.
	Fairness float64
	// Locality is the handoff-distance histogram (index = distance).
	Locality []int64
	// IntraFrac is the fraction of handoffs at distance <= maxDist-1
	// (intra-element on a two-level machine).
	IntraFrac float64
	// MaxWaitDepth is the peak number of simultaneous waiters.
	MaxWaitDepth int
	// Wait summarizes acquire waits over all ranks (µs); PerRank splits
	// it by rank (tail-latency inspection) and PerLock by lock id (where
	// the contention went), each in ascending order.
	Wait    stats.Summary
	PerRank []RankLatency
	PerLock []LockLatency
	// Ops counts RMA operations by code (index = OpPut..OpFlush).
	Ops []int64
}

// Summarize computes the full Analysis of a canonical event stream over
// a machine of n ranks with the given topology distance function and
// maximum distance.
func Summarize(events []Event, n int, dist func(a, b int) int, maxDist int) Analysis {
	a := Analysis{
		Ranks:    n,
		Events:   len(events),
		Acquired: Acquisitions(events, n),
		Locality: LocalityHist(events, dist, maxDist),
		Ops:      make([]int64, len(OpNames)),
	}
	a.Fairness = Jain(a.Acquired)
	cutoff := maxDist - 1
	if cutoff < 0 {
		cutoff = 0
	}
	a.IntraFrac = FractionAtMost(a.Locality, cutoff)
	a.MaxWaitDepth = MaxDepth(DepthSeries(events))
	var all []float64
	for r, ws := range WaitTimes(events, n) {
		if len(ws) == 0 {
			continue
		}
		all = append(all, ws...)
		a.PerRank = append(a.PerRank, RankLatency{Rank: r, Wait: stats.Summarize(ws)})
	}
	a.Wait = stats.Summarize(all)
	perLock := map[int64][]float64{}
	eachWait(events, func(e Event, w float64) { perLock[e.Arg0] = append(perLock[e.Arg0], w) })
	for id, ws := range perLock {
		a.PerLock = append(a.PerLock, LockLatency{Lock: id, Wait: stats.Summarize(ws)})
	}
	sort.Slice(a.PerLock, func(i, j int) bool { return a.PerLock[i].Lock < a.PerLock[j].Lock })
	for _, e := range events {
		if e.Kind == EvOp && e.Arg0 >= 0 && int(e.Arg0) < len(a.Ops) {
			a.Ops[e.Arg0]++
		}
	}
	return a
}
