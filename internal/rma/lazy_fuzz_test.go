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

// lazyWords is the window width of a fuzzed program.
const lazyWords = 4

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
	mem      []int64 // final window contents
	seen     []int64 // per rank: hash of every value an operation returned
	ends     []int64 // per rank: Now() where the program ended, -1 if it did not
	maxClock int64
	stats    string
	events   []trace.Event // the semantic capture
}

// lazyStep runs one three-byte instruction on p: op picks the operation and
// which ranks take part (everybody in a Barrier, so barriers pair up), a
// the target's distance from the rank and the window word, b the operand.
// Operands stay below 16 so that CAS compares and SpinUntil thresholds hit.
func lazyStep(p *Proc, base int, op, a, b byte, seen *int64) {
	const (
		put = iota
		get
		acc
		fao
		cas
		flush
		compute
		spin
		barrier
		kinds
	)
	r, procs := p.Rank(), p.Machine().Procs()
	kind, who := op%kinds, int(op/kinds)
	if mod := who%4 + 1; kind != barrier && r%mod != (who/4)%mod {
		return
	}
	target, off := (r+int(a&15))%procs, base+int(a>>4)%lazyWords
	v, mode := int64(b&15), Op(b>>4&1)
	see := func(x int64) { *seen = *seen*1000003 + x + 1 }
	switch kind {
	case put:
		p.Put(v, target, off)
	case get:
		see(p.Get(target, off))
	case acc:
		p.Accumulate(v, target, off, mode)
	case fao:
		see(p.FAO(v, target, off, mode))
	case cas:
		see(p.CAS(v, int64(b>>4), target, off))
	case flush:
		p.Flush(target)
	case compute:
		p.Compute(int64(b) * 37)
	case spin:
		see(p.SpinUntil(target, off, func(x int64) bool { return x >= int64(b&7) }))
	case barrier:
		p.Barrier()
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
	out := lazyOutcome{seen: make([]int64, m.Procs()), ends: make([]int64, m.Procs())}
	for r := range out.ends {
		out.ends[r] = -1
	}
	err := m.Run(func(p *Proc) {
		r := p.Rank()
		for i := 0; i+3 <= len(prog); i += 3 {
			lazyStep(p, base, prog[i], prog[i+1], prog[i+2], &out.seen[r])
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
// bytes: op = kind + 9*who (kinds in lazyStep's order), a = distance |
// word<<4, b = operand.
var lazyPrograms = [][]byte{
	nil,
	// P=8: a counter everybody bumps, flushes and back-off between tries,
	// a barrier, then everybody reads it back.
	{3, 0, 0, 3, 0, 1, 5, 0, 0, 6, 0, 9, 4, 0, 0x12, 5, 0, 0, 8, 0, 0, 1, 0, 0},
	// P=4 under jitter: ring of Puts with SpinUntil waits (the wake path),
	// odd ranks computing in between.
	{1, 1, 0, 0, 1, 3, 6 + 9*1, 0, 40, 7, 0, 3, 2, 0x11, 0x15, 5, 1, 0, 8, 0, 0, 7, 0x10, 1},
	// P=6, stalls and stragglers, a 10µs limit that a Compute crosses.
	{2, 2, 40, 3, 2, 2, 6, 0, 255, 6, 0, 255, 0, 1, 1, 6, 0, 255, 6, 0, 255, 6, 0, 255},
	// P=2 under congestion: a SpinUntil nobody satisfies (deadlock).
	{0, 3, 0, 0, 1, 1, 7, 0x20, 7, 8, 0, 0},
	// P=4: odd ranks poll (Get, Flush) a word their even neighbour keeps
	// rewriting between computes: what a Get returns is a matter of when.
	{1, 0, 0, 9, 0, 1, 46, 3, 0, 50, 3, 0, 15, 0, 3, 9, 0, 2, 46, 3, 0, 50, 3, 0, 46, 3, 0,
		15, 0, 20, 9, 0, 3, 46, 3, 0, 50, 3, 0, 46, 3, 0, 50, 3, 0, 46, 3, 0},
	// P=8: rank-filtered CAS retries with flushes, two barriers.
	{7, 0, 0, 4 + 9*1, 0x03, 0x01, 5, 3, 0, 4 + 9*6, 0x03, 0x12, 8, 0, 0, 2 + 9*2, 0x13, 0x05, 6 + 9*3, 0, 200, 8, 0, 0, 1, 0x13, 0},
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
