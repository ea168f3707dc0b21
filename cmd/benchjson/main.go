// Command benchjson converts `go test -bench -benchmem` output into the
// repository's persisted benchmark-trajectory JSON (BENCH_<pr>.json).
// Future PRs gate on these files: the scheduler fast path, harness and
// sweep benchmarks all leave a machine-readable ns/op + allocs/op record
// per PR, so a regression is a diff away instead of an archaeology
// project. The format is documented in DESIGN.md ("Benchmark
// trajectory").
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | go run ./cmd/benchjson -auto
//	go run ./cmd/benchjson -auto -in results/bench.txt
//	go run ./cmd/benchjson -pr 3 -in results/bench.txt -out BENCH_3.json
//
// -auto numbers the output itself: it writes BENCH_<n>.json for n one
// past the highest existing trajectory index in -dir, so `make bench`
// grows the trajectory file set without anyone hardcoding the next
// number. When -pr is omitted it defaults to that same derived index
// (also without -auto, e.g. for CI's bench-smoke.json artifact).
//
// Lines that are not benchmark results (pkg: headers are tracked for
// attribution) are ignored, so the raw `tee` output of `make bench` can
// be fed in unchanged.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	// Name is the full benchmark name including sub-benchmark path and
	// GOMAXPROCS suffix, e.g. "BenchmarkAdvanceUncontended-8".
	Name string `json:"name"`
	// Package is the import path from the preceding "pkg:" header.
	Package string `json:"package"`
	// Iterations is the measured b.N.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the headline ns/op figure.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp / AllocsPerOp come from -benchmem (0 when absent).
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	// Metrics holds any extra b.ReportMetric columns (e.g. "ops/run").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// File is the BENCH_<pr>.json schema.
type File struct {
	Schema     string      `json:"schema"` // "rmalocks-bench-trajectory/v1"
	PR         int         `json:"pr"`
	Go         string      `json:"go,omitempty"`  // "go1.22.1" toolchain line, if present
	CPU        string      `json:"cpu,omitempty"` // "cpu:" header, if present
	Benchmarks []Benchmark `json:"benchmarks"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

func main() {
	var (
		pr   = flag.Int("pr", 0, "PR number recorded in the trajectory entry (default: the next trajectory index in -dir)")
		in   = flag.String("in", "", "input file (default stdin)")
		out  = flag.String("out", "", "output file (default stdout; exclusive with -auto)")
		auto = flag.Bool("auto", false, "write BENCH_<n>.json in -dir, n = one past the highest existing index")
		dir  = flag.String("dir", ".", "directory scanned for existing BENCH_<n>.json trajectories")
		pkgs = flag.String("packages", "", "comma-separated package-substring filter (default: keep all)")
	)
	flag.Parse()
	if *auto && *out != "" {
		fmt.Fprintln(os.Stderr, "benchjson: -auto and -out are mutually exclusive")
		os.Exit(2)
	}
	if *pr <= 0 {
		n, err := nextBenchIndex(*dir)
		if err != nil {
			fatal(err)
		}
		*pr = n
	}
	if *auto {
		*out = filepath.Join(*dir, fmt.Sprintf("BENCH_%d.json", *pr))
		if _, err := os.Stat(*out); err == nil {
			// An explicit -pr can point at an occupied slot; never
			// overwrite a persisted trajectory.
			fmt.Fprintf(os.Stderr, "benchjson: %s already exists (pass a different -pr)\n", *out)
			os.Exit(2)
		}
	}
	r := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	file, err := parse(r, *pr, splitFilter(*pkgs))
	if err != nil {
		fatal(err)
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks written to %s\n", len(file.Benchmarks), *out)
}

func parse(r io.Reader, pr int, filter []string) (File, error) {
	file := File{Schema: "rmalocks-bench-trajectory/v1", PR: pr, Benchmarks: []Benchmark{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg: "))
			continue
		case strings.HasPrefix(line, "goos:"), strings.HasPrefix(line, "goarch:"):
			continue
		case strings.HasPrefix(line, "cpu: "):
			file.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu: "))
			continue
		case strings.HasPrefix(line, "go: "):
			file.Go = strings.TrimSpace(strings.TrimPrefix(line, "go: "))
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if !keep(pkg, filter) {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{Name: m[1], Package: pkg, Iterations: iters}
		if err := parseCols(&b, m[3]); err != nil {
			return file, fmt.Errorf("benchjson: line %q: %w", line, err)
		}
		file.Benchmarks = append(file.Benchmarks, b)
	}
	return file, sc.Err()
}

// parseCols parses the measurement columns: alternating "<value> <unit>"
// pairs, e.g. "38.84 ns/op  0 B/op  0 allocs/op  3200 ops/run". A value
// must be a finite number: JSON has no NaN or Inf, so one would make
// the whole trajectory file unwritable.
func parseCols(b *Benchmark, rest string) error {
	fields := strings.Fields(rest)
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("bad value %q", fields[i])
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = int64(v)
		case "allocs/op":
			b.AllocsPerOp = int64(v)
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return nil
}

// benchName matches persisted trajectory files.
var benchName = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// nextBenchIndex returns one past the highest BENCH_<n>.json index in
// dir (1 when none exist), so the trajectory file set grows
// monotonically without hardcoded names.
func nextBenchIndex(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("benchjson: scan %s: %w", dir, err)
	}
	max := 0
	for _, e := range entries {
		m := benchName.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		if n, err := strconv.Atoi(m[1]); err == nil && n > max {
			max = n
		}
	}
	return max + 1, nil
}

func keep(pkg string, filter []string) bool {
	if len(filter) == 0 {
		return true
	}
	for _, f := range filter {
		if strings.Contains(pkg, f) {
			return true
		}
	}
	return false
}

func splitFilter(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
