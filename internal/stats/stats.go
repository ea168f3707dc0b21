// Package stats provides the small statistical toolkit used by the
// benchmark harness: summaries (mean/percentiles) and aligned text tables
// for figure output.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary describes a sample of float64 observations.
type Summary struct {
	N           int
	Mean        float64
	Min         float64
	Max         float64
	P50         float64
	P95         float64
	P99         float64
	StdDev      float64
	SampleTotal float64
}

// Summarize computes a Summary; it returns a zero Summary for an empty
// sample. The input is left untouched (it is copied before sorting).
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	return SummarizeInPlace(s)
}

// SummarizeInPlace is Summarize without the defensive copy: it sorts xs
// in place. Hot report paths that own their sample buffers (and recycle
// them) use it to avoid one allocation per summary.
func SummarizeInPlace(s []float64) Summary {
	if len(s) == 0 {
		return Summary{}
	}
	sort.Float64s(s)
	var sum, sq float64
	for _, x := range s {
		sum += x
		sq += float64(x * x) // float64 rounds: never a fused multiply-add (make portable)
	}
	n := float64(len(s))
	mean := sum / n
	variance := sq/n - float64(mean*mean)
	if variance < 0 {
		variance = 0
	}
	return Summary{
		N:           len(s),
		Mean:        mean,
		Min:         s[0],
		Max:         s[len(s)-1],
		P50:         Percentile(s, 50),
		P95:         Percentile(s, 95),
		P99:         Percentile(s, 99),
		StdDev:      math.Sqrt(variance),
		SampleTotal: sum,
	}
}

// Percentile returns the p-th percentile (0–100) of a sorted sample by
// linear interpolation between the two closest ranks (the numpy
// "linear" / R type-7 definition): rank = p/100·(N−1), and a fractional
// rank blends the two neighbouring order statistics. This is NOT the
// nearest-rank method — a 2-element sample has P50 halfway between the
// elements, not at either one. Report values depend on this definition;
// golden tests in stats_test.go pin it.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := float64(p / 100 * float64(len(sorted)-1))
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac) // rounded, as in SummarizeInPlace
}

// Table is a simple column-aligned result table, one per figure.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "## %s\n", t.Title)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (no title).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, ","))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// FmtF formats a float with 3 significant decimals, trimming noise.
func FmtF(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}
