package trace

import (
	"math"
	"strings"
	"testing"
)

func TestJain(t *testing.T) {
	cases := []struct {
		counts []int64
		want   float64
	}{
		{nil, 0},
		{[]int64{0, 0}, 0},
		{[]int64{5, 5, 5, 5}, 1},
		{[]int64{10, 0, 0, 0}, 0.25}, // one rank hogs: 1/n
		{[]int64{4, 2}, (6.0 * 6.0) / (2.0 * 20.0)},
	}
	for _, c := range cases {
		if got := Jain(c.counts); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Jain(%v) = %v, want %v", c.counts, got, c.want)
		}
	}
}

// lockEvents builds a canonical acquired-only stream handing lock 0
// across the given ranks in order.
func lockEvents(ranks ...int32) []Event {
	var ev []Event
	for i, r := range ranks {
		ev = append(ev, Event{Clock: int64(10 * (i + 1)), Rank: r, Seq: uint32(i), Kind: EvAcquired, Arg1: 1})
	}
	return ev
}

func TestLocalityHist(t *testing.T) {
	// Distance: same rank 0, same parity 1, else 2 (a toy two-level map).
	dist := func(a, b int) int {
		switch {
		case a == b:
			return 0
		case a%2 == b%2:
			return 1
		default:
			return 2
		}
	}
	ev := lockEvents(0, 0, 2, 1, 3)
	hist := LocalityHist(ev, dist, 2)
	// handoffs: 0→0 (d0), 0→2 (d1), 2→1 (d2), 1→3 (d1)
	want := []int64{1, 2, 1}
	for d := range want {
		if hist[d] != want[d] {
			t.Fatalf("hist = %v, want %v", hist, want)
		}
	}
	if f := FractionAtMost(hist, 1); math.Abs(f-0.75) > 1e-12 {
		t.Fatalf("FractionAtMost(1) = %v, want 0.75", f)
	}
	// Two locks interleaved must chain independently.
	ev2 := []Event{
		{Clock: 1, Rank: 0, Kind: EvAcquired, Arg0: 0},
		{Clock: 2, Rank: 1, Kind: EvAcquired, Arg0: 1},
		{Clock: 3, Rank: 0, Seq: 1, Kind: EvAcquired, Arg0: 0},
	}
	hist2 := LocalityHist(ev2, dist, 2)
	if hist2[0] != 1 || hist2[1] != 0 || hist2[2] != 0 {
		t.Fatalf("per-lock chaining broken: %v", hist2)
	}
}

func TestDepthSeriesAndWaits(t *testing.T) {
	ev := []Event{
		{Clock: 10, Rank: 0, Seq: 0, Kind: EvAcqStart, Arg0: 0},
		{Clock: 12, Rank: 1, Seq: 0, Kind: EvAcqStart, Arg0: 0},
		{Clock: 20, Rank: 0, Seq: 1, Kind: EvAcquired, Arg0: 0},
		{Clock: 40, Rank: 1, Seq: 1, Kind: EvAcquired, Arg0: 0},
	}
	series := DepthSeries(ev)
	if MaxDepth(series) != 2 {
		t.Fatalf("max depth = %d, want 2 (series %v)", MaxDepth(series), series)
	}
	if last := series[len(series)-1]; last.Depth != 0 {
		t.Fatalf("final depth = %d, want 0", last.Depth)
	}
	waits := WaitTimes(ev, 2)
	if len(waits[0]) != 1 || waits[0][0] != 0.01 { // 10ns = 0.01µs
		t.Fatalf("rank 0 waits = %v", waits[0])
	}
	if len(waits[1]) != 1 || waits[1][0] != 0.028 {
		t.Fatalf("rank 1 waits = %v", waits[1])
	}

	// A timed-out attempt waits until it gives up and then leaves the
	// queue: it counts toward the depth while pending, never after, and
	// yields no wait sample.
	timeout := []Event{
		{Clock: 10, Rank: 0, Seq: 0, Kind: EvAcqStart, Arg0: 0},
		{Clock: 12, Rank: 1, Seq: 0, Kind: EvAcqStart, Arg0: 0},
		{Clock: 15, Rank: 2, Seq: 0, Kind: EvAcqStart, Arg0: 0},
		{Clock: 20, Rank: 0, Seq: 1, Kind: EvAcquired, Arg0: 0},
		{Clock: 30, Rank: 1, Seq: 1, Kind: EvAcqTimeout, Arg0: 0},
		{Clock: 40, Rank: 2, Seq: 1, Kind: EvAcquired, Arg0: 0},
		{Clock: 50, Rank: 1, Seq: 2, Kind: EvAcqStart, Arg0: 0},
		{Clock: 70, Rank: 1, Seq: 3, Kind: EvAcquired, Arg0: 0},
	}
	series = DepthSeries(timeout)
	if MaxDepth(series) != 3 {
		t.Fatalf("max depth with a timeout = %d, want 3 (series %v)", MaxDepth(series), series)
	}
	if last := series[len(series)-1]; last.Depth != 0 {
		t.Fatalf("final depth with a timeout = %d, want 0 (series %v)", last.Depth, series)
	}
	waits = WaitTimes(timeout, 3)
	if len(waits[1]) != 1 || waits[1][0] != 0.02 { // the retry's 20ns, not the timed-out 18ns
		t.Fatalf("rank 1 waits = %v, want only the retry's", waits[1])
	}
	if len(waits[2]) != 1 || waits[2][0] != 0.025 {
		t.Fatalf("rank 2 waits = %v", waits[2])
	}
}

func TestSummarize(t *testing.T) {
	ev := []Event{
		{Clock: 1, Rank: 0, Seq: 0, Kind: EvOp, Arg0: OpPut, Arg1: 1},
		{Clock: 2, Rank: 0, Seq: 1, Kind: EvAcqStart, Arg0: 0, Arg1: 1},
		{Clock: 5, Rank: 0, Seq: 2, Kind: EvAcquired, Arg0: 0, Arg1: 1},
		{Clock: 9, Rank: 0, Seq: 3, Kind: EvRelease, Arg0: 0, Arg1: 1},
		{Clock: 10, Rank: 1, Seq: 0, Kind: EvAcqStart, Arg0: 0, Arg1: 1},
		{Clock: 15, Rank: 1, Seq: 1, Kind: EvAcquired, Arg0: 0, Arg1: 1},
	}
	dist := func(a, b int) int {
		if a == b {
			return 0
		}
		return 2
	}
	a := Summarize(ev, 2, dist, 2)
	if a.Events != 6 || a.Ranks != 2 {
		t.Fatalf("Events/Ranks = %d/%d", a.Events, a.Ranks)
	}
	if a.Acquired[0] != 1 || a.Acquired[1] != 1 {
		t.Fatalf("Acquired = %v", a.Acquired)
	}
	if a.Fairness != 1 {
		t.Fatalf("Fairness = %v, want 1", a.Fairness)
	}
	if a.Locality[2] != 1 {
		t.Fatalf("Locality = %v", a.Locality)
	}
	if a.Ops[OpPut] != 1 {
		t.Fatalf("Ops = %v", a.Ops)
	}
	if a.Wait.N != 2 {
		t.Fatalf("Wait.N = %d", a.Wait.N)
	}
	if len(a.PerLock) != 1 || a.PerLock[0].Lock != 0 || a.PerLock[0].Wait.N != 2 || a.PerLock[0].Wait.SampleTotal != 0.008 {
		t.Fatalf("PerLock = %+v, want lock 0 with 2 waits totalling 0.008µs", a.PerLock)
	}
}

func TestValidateCatchesProtocolViolations(t *testing.T) {
	ok := []Event{
		{Clock: 1, Rank: 0, Seq: 0, Kind: EvAcqStart, Arg0: 0, Arg1: 1},
		{Clock: 2, Rank: 0, Seq: 1, Kind: EvAcquired, Arg0: 0, Arg1: 1},
		{Clock: 3, Rank: 1, Seq: 0, Kind: EvAcqStart, Arg0: 0, Arg1: 1},
		{Clock: 4, Rank: 0, Seq: 2, Kind: EvRelease, Arg0: 0, Arg1: 1},
		{Clock: 5, Rank: 1, Seq: 1, Kind: EvAcquired, Arg0: 0, Arg1: 1},
		{Clock: 6, Rank: 1, Seq: 2, Kind: EvRelease, Arg0: 0, Arg1: 1},
	}
	if err := Validate(ok); err != nil {
		t.Fatalf("valid stream rejected: %v", err)
	}

	overlap := []Event{
		{Clock: 1, Rank: 0, Seq: 0, Kind: EvAcqStart, Arg0: 0, Arg1: 1},
		{Clock: 2, Rank: 0, Seq: 1, Kind: EvAcquired, Arg0: 0, Arg1: 1},
		{Clock: 3, Rank: 1, Seq: 0, Kind: EvAcqStart, Arg0: 0, Arg1: 1},
		{Clock: 4, Rank: 1, Seq: 1, Kind: EvAcquired, Arg0: 0, Arg1: 1}, // still held by 0
	}
	if err := Validate(overlap); err == nil || !strings.Contains(err.Error(), "overlaps") {
		t.Fatalf("overlapping write holds not caught: %v", err)
	}

	readersShare := []Event{
		{Clock: 1, Rank: 0, Seq: 0, Kind: EvAcqStart, Arg0: 0, Arg1: 0},
		{Clock: 2, Rank: 0, Seq: 1, Kind: EvAcquired, Arg0: 0, Arg1: 0},
		{Clock: 3, Rank: 1, Seq: 0, Kind: EvAcqStart, Arg0: 0, Arg1: 0},
		{Clock: 4, Rank: 1, Seq: 1, Kind: EvAcquired, Arg0: 0, Arg1: 0},
		{Clock: 5, Rank: 0, Seq: 2, Kind: EvRelease, Arg0: 0, Arg1: 0},
		{Clock: 6, Rank: 1, Seq: 2, Kind: EvRelease, Arg0: 0, Arg1: 0},
	}
	if err := Validate(readersShare); err != nil {
		t.Fatalf("concurrent readers must be legal: %v", err)
	}

	unordered := []Event{
		{Clock: 5, Rank: 0, Seq: 0, Kind: EvOp},
		{Clock: 4, Rank: 1, Seq: 0, Kind: EvOp},
	}
	if err := Validate(unordered); err == nil || !strings.Contains(err.Error(), "canonical order") {
		t.Fatalf("order violation not caught: %v", err)
	}

	orphanAcquire := []Event{
		{Clock: 2, Rank: 0, Seq: 0, Kind: EvAcquired, Arg0: 0, Arg1: 1},
	}
	if err := Validate(orphanAcquire); err == nil || !strings.Contains(err.Error(), "pending acq-start") {
		t.Fatalf("orphan acquire not caught: %v", err)
	}

	wakeNoBlock := []Event{
		{Clock: 2, Rank: 0, Seq: 0, Kind: EvWake, Arg0: 1},
	}
	if err := Validate(wakeNoBlock); err == nil || !strings.Contains(err.Error(), "no unresolved block") {
		t.Fatalf("wake without block not caught: %v", err)
	}
}
