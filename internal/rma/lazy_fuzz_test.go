package rma

// Lazy publication against its eager oracle on arbitrary programs: the fuzz
// bytes become a small SPMD program over the whole operation set, which
// runs on both engines with NoCoalesce off and on. Whatever a rank can
// observe — the values its operations returned, the final windows, every
// end clock, the op counts, the semantic event stream — must not depend on
// when it told the scheduler its clock.

import (
	"fmt"
	"slices"
	"testing"

	"rmalocks/internal/fault"
	"rmalocks/internal/topology"
	"rmalocks/internal/trace"
)

// lazyWords is the window width of a fuzzed program. A program also has
// one hosted word on each of ranks [0, lazyHosts), which an instruction
// names as word lazyWords.
const (
	lazyWords = 4
	lazyHosts = 2
)

// lazyFaults are the fault profiles a program's header selects from (nil:
// fault-free). Periods and stalls are of the order of one operation, so a
// short program meets them.
var lazyFaults = []*fault.Profile{
	nil,
	{Jitter: 0.3},
	{Stall: 2000, StallProb: 0.25, StragglerFactor: 3, StragglerFrac: 0.25},
	{CongestFactor: 3, CongestDuty: 0.5, CongestPeriod: 4000, Jitter: 0.1},
}

// lazyOutcome is everything a run lets anyone observe.
type lazyOutcome struct {
	err      string
	mem      []int64 // final window contents, the hosted words last
	seen     []int64 // per rank: hash of every value an operation returned
	ends     []int64 // per rank: Now() where the program ended, -1 if it did not
	maxClock int64
	stats    string
	events   []trace.Event // the semantic capture
}

// The instruction kinds of a fuzzed program, in the order of the op byte.
const (
	lazyPut = iota
	lazyGet
	lazyAcc
	lazyFAO
	lazyCAS
	lazyFlush
	lazyCompute
	lazySpin
	lazyBarrier
	lazyPoll
	lazyKinds
)

// lazyStep runs one three-byte instruction on p: op picks the operation and
// which ranks take part (everybody in a Barrier, so barriers pair up), a
// the target's distance from the rank and the window word — the hosted one
// on a hosting rank, the target's distance taken modulo lazyHosts — b the
// operand. Operands stay below 16 so that CAS compares and SpinUntil
// thresholds hit.
func lazyStep(p *Proc, base, host int, op, a, b byte, seen *int64) {
	r, procs := p.Rank(), p.Machine().Procs()
	kind, who := op%lazyKinds, int(op/lazyKinds)
	if mod := who%4 + 1; kind != lazyBarrier && r%mod != (who/4)%mod {
		return
	}
	target, off := (r+int(a&15))%procs, base+int(a>>4)%(lazyWords+1)
	if off == base+lazyWords {
		target, off = (r+int(a&15))%lazyHosts, host
	}
	v, mode := int64(b&15), Op(b>>4&1)
	see := func(x int64) { *seen = *seen*1000003 + x + 1 }
	switch kind {
	case lazyPut:
		p.Put(v, target, off)
	case lazyGet:
		see(p.Get(target, off))
	case lazyAcc:
		p.Accumulate(v, target, off, mode)
	case lazyFAO:
		see(p.FAO(v, target, off, mode))
	case lazyCAS:
		see(p.CAS(v, int64(b>>4), target, off))
	case lazyFlush:
		p.Flush(target)
	case lazyCompute:
		p.Compute(int64(b) * 37)
	case lazySpin:
		see(p.SpinUntil(target, off, func(x int64) bool { return x >= int64(b&7) }))
	case lazyBarrier:
		p.Barrier()
	case lazyPoll:
		// A retry loop as the locks write them: b's top bit picks a CAS
		// that has to win or a Get that has to see a threshold, then Flush
		// and a doubling back-off capped at 800 ns. After eight tries it
		// gives up, so a program nobody answers still ends.
		tries, backoff := 0, int64(50)
		p.Poll(RetryFunc(func() bool {
			var got int64
			var ok bool
			if b>>7 != 0 {
				got = p.CAS(v, int64(b>>4&7), target, off)
				ok = got == int64(b>>4&7)
			} else {
				got = p.Get(target, off)
				ok = got >= int64(b>>4&7)
			}
			p.Flush(target)
			if tries++; ok || tries == 8 {
				see(got)
				return true
			}
			p.Compute(backoff)
			backoff = min(2*backoff, 800)
			return false
		}))
	}
}

// runLazyProgram decodes prog — a header of machine shape, fault profile
// and time limit, then instructions — and runs it.
func runLazyProgram(prog []byte, engine string, eager bool) lazyOutcome {
	var shape, faults, limit byte
	if len(prog) >= 3 {
		shape, faults, limit, prog = prog[0], prog[1], prog[2], prog[3:]
	}
	cfg := Config{Seed: 7, Engine: engine, NoCoalesce: eager,
		Faults: lazyFaults[int(faults)%len(lazyFaults)],
		Trace:  trace.New(trace.ClassSemantic)}
	if limit != 0 {
		cfg.TimeLimit = 2000 + 200*int64(limit)
	}
	m := NewMachineConfig(topology.TwoLevel(2, 1+int(shape)%4), cfg)
	defer m.Release()
	base := m.Alloc(lazyWords)
	host := m.AllocHosted(lazyHosts, 1)
	out := lazyOutcome{seen: make([]int64, m.Procs()), ends: make([]int64, m.Procs())}
	for r := range out.ends {
		out.ends[r] = -1
	}
	err := m.Run(func(p *Proc) {
		r := p.Rank()
		for i := 0; i+3 <= len(prog); i += 3 {
			lazyStep(p, base, host, prog[i], prog[i+1], prog[i+2], &out.seen[r])
		}
		out.ends[r] = p.Now()
	})
	if err != nil {
		out.err = err.Error()
	}
	for r := 0; r < m.Procs(); r++ {
		for w := 0; w < lazyWords; w++ {
			out.mem = append(out.mem, m.At(r, base+w))
		}
	}
	for r := 0; r < lazyHosts; r++ {
		out.mem = append(out.mem, m.At(r, host))
	}
	out.maxClock, out.stats, out.events = m.MaxClock(), fmt.Sprint(m.Stats()), cfg.Trace.Events()
	return out
}

// checkLazyMatchesEager runs prog on all four engine × mode combinations
// and compares them with the default one. A run that dies — time limit,
// a SpinUntil nobody satisfies — is compared on how it died and on the
// windows: the operations applied up to the failure are the same, but the
// ranks are torn down wherever they stand, and a lazy rank stands further
// on in its program (an operation has returned to it, local Flush and
// Compute work is counted and traced) than an eager one parked inside the
// operation's charge.
func checkLazyMatchesEager(t *testing.T, prog []byte) {
	t.Helper()
	want := runLazyProgram(prog, EngineFast, false)
	if want.err == "" {
		if err := trace.Validate(want.events); err != nil {
			t.Fatalf("lazy stream: %v", err)
		}
	}
	for _, engine := range []string{EngineFast, EngineRef} {
		for _, eager := range []bool{false, true} {
			if engine == EngineFast && !eager {
				continue
			}
			got := runLazyProgram(prog, engine, eager)
			name := fmt.Sprintf("engine=%s eager=%v", engine, eager)
			if got.err != want.err {
				t.Fatalf("%s: error %q, lazy fast run %q", name, got.err, want.err)
			}
			if !slices.Equal(got.mem, want.mem) {
				t.Fatalf("%s: final windows %v, lazy fast run %v", name, got.mem, want.mem)
			}
			if want.err != "" {
				continue
			}
			if !slices.Equal(got.seen, want.seen) {
				t.Fatalf("%s: ranks observed %v, lazy fast run %v", name, got.seen, want.seen)
			}
			if !slices.Equal(got.ends, want.ends) || got.maxClock != want.maxClock {
				t.Fatalf("%s: end clocks %v max %d, lazy fast run %v max %d", name, got.ends, got.maxClock, want.ends, want.maxClock)
			}
			if got.stats != want.stats {
				t.Fatalf("%s: stats %s, lazy fast run %s", name, got.stats, want.stats)
			}
			if !slices.Equal(got.events, want.events) {
				t.Fatalf("%s: semantic event stream differs from the lazy fast run's (%d vs %d events)", name, len(got.events), len(want.events))
			}
		}
	}
}

// lazyPrograms seed the fuzzer, so they run in every plain go test beside
// the corpus under testdata/fuzz. Instruction
// bytes: op = kind + lazyKinds*who (kinds in the constants' order), a =
// distance | word<<4 (word 4: the hosted word), b = operand.
var lazyPrograms = [][]byte{
	nil,
	// P=8: a counter everybody bumps, flushes and back-off between tries,
	// a barrier, then everybody reads it back.
	{3, 0, 0, 3, 0, 1, 5, 0, 0, 6, 0, 9, 4, 0, 0x12, 5, 0, 0, 8, 0, 0, 1, 0, 0},
	// P=4 under jitter: ring of Puts with SpinUntil waits (the wake path),
	// odd ranks computing in between.
	{1, 1, 0, 0, 1, 3, 6 + lazyKinds*1, 0, 40, 7, 0, 3, 2, 0x11, 0x15, 5, 1, 0, 8, 0, 0, 7, 0x10, 1},
	// P=6, stalls and stragglers, a 10µs limit that a Compute crosses.
	{2, 2, 40, 3, 2, 2, 6, 0, 255, 6, 0, 255, 0, 1, 1, 6, 0, 255, 6, 0, 255, 6, 0, 255},
	// P=2 under congestion: a SpinUntil nobody satisfies (deadlock).
	{0, 3, 0, 0, 1, 1, 7, 0x20, 7, 8, 0, 0},
	// P=4: odd ranks poll (Get, Flush) a word their even neighbour keeps
	// rewriting between computes: what a Get returns is a matter of when.
	{1, 0, 0, 10, 0, 1, 51, 3, 0, 55, 3, 0, 16, 0, 3, 10, 0, 2, 51, 3, 0, 55, 3, 0, 51, 3, 0,
		16, 0, 20, 10, 0, 3, 51, 3, 0, 55, 3, 0, 51, 3, 0, 55, 3, 0, 51, 3, 0},
	// P=8: rank-filtered CAS retries with flushes, two barriers.
	{7, 0, 0, 4 + lazyKinds*1, 0x03, 0x01, 5, 3, 0, 4 + lazyKinds*6, 0x03, 0x12, 8, 0, 0, 2 + lazyKinds*2, 0x13, 0x05, 6 + lazyKinds*3, 0, 200, 8, 0, 0, 1, 0x13, 0},
	// P=8: every odd rank's word 0 is a spinlock it shares with its left
	// neighbour — both poll a CAS 0→1, compute, put 0 back, twice — then
	// the odd ranks poll a Get of a counter that neighbour bumps between
	// computes.
	{7, 0, 0, lazyPoll + lazyKinds*1, 0x01, 0x81, lazyPoll + lazyKinds*5, 0x00, 0x81, lazyCompute, 0, 9,
		lazyPut + lazyKinds*1, 0x01, 0, lazyPut + lazyKinds*5, 0x00, 0,
		lazyPoll + lazyKinds*1, 0x01, 0x81, lazyPoll + lazyKinds*5, 0x00, 0x81, lazyCompute, 0, 5,
		lazyPut + lazyKinds*1, 0x01, 0, lazyPut + lazyKinds*5, 0x00, 0, lazyBarrier, 0, 0,
		lazyAcc + lazyKinds*1, 0x10, 1, lazyCompute + lazyKinds*1, 0, 30, lazyAcc + lazyKinds*1, 0x10, 1,
		lazyCompute + lazyKinds*1, 0, 30, lazyAcc + lazyKinds*1, 0x10, 1, lazyPoll + lazyKinds*5, 0x17, 0x30},
	// P=6 under stalls and stragglers with a 14µs limit: polls nobody
	// answers, so the limit falls into a try's operation or its back-off.
	{2, 2, 60, lazyPut, 0, 1, lazyPoll, 0x11, 0x70, lazyPoll, 0x22, 0x85, lazyPoll, 0x11, 0x70},
	// P=4 under jitter: polls between SpinUntil waits, so tries wake
	// blocked ranks and run while their own rank's host is blocked.
	{1, 1, 0, lazyPoll + lazyKinds*1, 0x11, 0x93, lazySpin + lazyKinds*5, 0x10, 3, lazyPut, 0x11, 3, lazyPoll, 0x01, 0xb3, lazySpin, 0x10, 3, lazyBarrier, 0, 0},
	// P=4 under jitter on the hosted words: odd ranks wait in SpinUntil
	// until rank 1's is bumped twice by the even ranks, which compute
	// first, then everybody reads both and CASes its own host's.
	{1, 1, 0, lazyCompute + lazyKinds*1, 0, 200, lazyFAO, 0x41, 1, lazySpin + lazyKinds*5, 0x40, 2,
		lazyBarrier, 0, 0, lazyGet, 0x40, 0, lazyGet, 0x41, 0, lazyCAS, 0x40, 0x25},
}

func FuzzLazyMatchesEager(f *testing.F) {
	for _, prog := range lazyPrograms {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 3+3*64 {
			prog = prog[:3+3*64] // keeps one execution short
		}
		checkLazyMatchesEager(t, prog)
	})
}
