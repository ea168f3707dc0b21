package rma

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// runScript draws from r as script directs — two bytes a draw, the kind
// and its argument — and returns the values drawn.
func runScript(r *rand.Rand, script []byte) []uint64 {
	var out []uint64
	for i := 0; i+1 < len(script); i += 2 {
		arg := script[i+1]
		switch script[i] % 5 {
		case 0:
			out = append(out, uint64(r.Int63n(int64(arg)<<24|1)))
		case 1:
			out = append(out, uint64(r.Intn(int(arg)+1)))
		case 2:
			out = append(out, math.Float64bits(r.Float64()))
		case 3:
			out = append(out, r.Uint64())
		case 4:
			z := rand.NewZipf(r, 1+float64(arg%8+1)/8, 1, uint64(arg)+1)
			out = append(out, z.Uint64())
		}
	}
	return out
}

// checkReplay holds one procRand to math/rand's own stream for seed
// through every way a scratch can reuse it.
func checkReplay(t *testing.T, seed int64, script []byte) {
	t.Helper()
	ref := func(seed int64, script []byte) []uint64 {
		return runScript(rand.New(rand.NewSource(seed)), script)
	}
	g := new(procRand)
	check := func(name string, seed int64, script []byte) {
		t.Helper()
		if got, want := runScript(g.open(seed), script), ref(seed, script); !slices.Equal(got, want) {
			t.Fatalf("%s (seed %d, %d draws): stream differs from math/rand's", name, seed, len(want))
		}
	}
	check("first run", seed, script)
	check("replay", seed, script)
	twice := append(append([]byte(nil), script...), script...)
	check("replay drawing past the log", seed, twice)
	check("replay of the longer log", seed, twice)
	check("shorter replay", seed, script)

	past := make([]byte, 2*(randLogCap+16))
	for i := range past {
		past[i] = 3 // Uint64: one word a draw
	}
	past = append(past, script...)
	check("run past the cap", seed, past)
	if !g.over || len(g.log) != randLogCap {
		t.Fatalf("after %d draws: over=%v, %d words logged", randLogCap+16, g.over, len(g.log))
	}
	check("run after one past the cap", seed, past)
	check("short run after one past the cap", seed, script)
	check("seed change", seed+1, script)
	check("seed change back", seed, twice)

	g.open(seed).Seed(seed ^ 0x5DEECE66D)
	if got, want := runScript(&g.rnd, script), ref(seed^0x5DEECE66D, script); !slices.Equal(got, want) {
		t.Fatal("stream after Rand.Seed differs from math/rand's")
	}
	check("run after Rand.Seed", seed, script)
}

var replayScripts = [][]byte{
	nil,
	{0, 1},
	{3, 0, 3, 0, 3, 0},
	{0, 255, 1, 6, 2, 0, 3, 0, 4, 200},
	{4, 0, 4, 7, 4, 255, 2, 0, 1, 0, 0, 0},
	{1, 99, 1, 199, 0, 3, 0, 128, 2, 2, 2, 2, 3, 3, 4, 16, 4, 17},
}

func TestRandReplay(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, 5*1000003 + 7, math.MaxInt64, math.MinInt64} {
		for _, script := range replayScripts {
			checkReplay(t, seed, script)
		}
	}
}

func FuzzRandReplay(f *testing.F) {
	for i, script := range replayScripts {
		f.Add(int64(i)*1000003+int64(len(script)), script)
	}
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) > 4096 {
			script = script[:4096] // keeps one execution short
		}
		checkReplay(t, seed, script)
	})
}
