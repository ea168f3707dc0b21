package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// TestZipfCDFBits pins the bits of every Zipf CDF entry for n = 1…64 locks
// and the skews the evaluation uses. NewZipf sums 1/math.Pow(k+1, s), and
// a platform that fuses multiply-adds inside the standard library's
// math.Pow (arm64, ppc64le, riscv64) may round one entry differently:
// then a rank draws another lock and the cell's bytes move. make portable
// checks only rmalocks code for fused instructions; this hash fails on any
// platform whose CDF differs in any bit from the one the goldens come
// from.
func TestZipfCDFBits(t *testing.T) {
	const want = "bae2f2077faedc18"
	h := sha256.New()
	for _, s := range []float64{0, 1.2, 1.5} {
		for n := 1; n <= 64; n++ {
			for _, p := range NewZipf(n, s, 0).cdf {
				h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(p)))
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil))[:16]; got != want {
		t.Errorf("Zipf CDF bits hash to %s, want %s: the CDF moved, and every zipf cell with it", got, want)
	}
}
