package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary text to the reader of `go test -bench`
// output. parse must not panic, and every File it returns must marshal:
// a value JSON cannot hold is an error naming its line, never a
// trajectory file that cannot be written.
func FuzzParse(f *testing.F) {
	f.Add("goos: linux\npkg: rmalocks/internal/sim\ncpu: Intel(R) Xeon(R)\nBenchmarkAdvanceUncontended-2 \t 1000000\t 38.84 ns/op\t 0 B/op\t 0 allocs/op\t 3200 ops/run\nPASS\n")
	f.Add("BenchmarkB-2 100 12.5 ns/op NaN handoffs/acq\n")
	f.Add("BenchmarkB-2 100 +Inf ns/op\n")
	f.Add("BenchmarkB-2 100 1e400 ns/op\n")
	f.Add("BenchmarkB-2 100 12.5\n")
	f.Fuzz(func(t *testing.T, in string) {
		file, err := parse(strings.NewReader(in), 1, nil)
		if _, merr := json.MarshalIndent(file, "", "  "); merr != nil {
			t.Fatalf("parse returned a file that does not marshal (parse error %v): %v", err, merr)
		}
	})
}

// TestParseRejectsNonFinite: a NaN or Inf column fails the parse with
// the line in the error, like any other bad value.
func TestParseRejectsNonFinite(t *testing.T) {
	for _, v := range []string{"NaN", "Inf", "-Inf", "+Inf"} {
		line := "BenchmarkB-2 100 12.5 ns/op " + v + " handoffs/acq"
		_, err := parse(strings.NewReader(line+"\n"), 1, nil)
		if err == nil || !strings.Contains(err.Error(), line) {
			t.Errorf("%s: err = %v, want an error naming the line", v, err)
		}
	}
}
