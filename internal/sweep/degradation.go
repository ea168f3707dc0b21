package sweep

// Degradation metrics: a fault-axis sweep enumerates, for every grid
// coordinate, a fault-free baseline cell followed by its perturbed
// variants. ApplyDegradation joins each faulted cell back to its
// baseline and derives relative graceful-degradation metrics, so the
// persisted results/faults.json answers "how much worse" directly
// instead of leaving the division to the reader. Run applies it to the
// cells of every grid with a fault axis, so no caller does.

// Extra keys written by ApplyDegradation into faulted cells' reports.
const (
	// ExtraP99Infl / ExtraP999Infl are tail-latency inflation factors:
	// the faulted cell's p99 / p99.9 acquire latency divided by the
	// fault-free baseline's (1 = no degradation, 3 = 3× fatter tail).
	ExtraP99Infl  = "p99_infl"
	ExtraP999Infl = "p999_infl"
	// ExtraJainDelta is the fairness movement under faults (faulted
	// minus baseline Jain index, so negative = less fair); present only
	// when both cells were traced.
	ExtraJainDelta = "jain_delta"
)

// ApplyDegradation computes per-cell degradation metrics: for every
// faulted cell whose fault-free sibling (same Key minus Faults) is
// present, the tail-latency inflation factors — and, when both cells
// carry trace-derived fairness, the Jain delta — are added to the
// faulted report's Extra map and the cell fingerprint is recomputed.
// The slice is updated in place but the cells are not: a degraded cell
// is a new value (own Extra map, no fragment) that replaces the
// original in its slot, because the original may be a cached result
// that other jobs are reading at this moment. Cells without a baseline
// (or with a zero-latency baseline) are left untouched. Deterministic:
// the join is by Key, so the outcome is independent of worker count
// and result order.
func ApplyDegradation(results []CellResult) {
	type baseMetrics struct {
		p99, p999 float64
		fair      float64
		traced    bool
	}
	base := make(map[Key]baseMetrics)
	for _, r := range results {
		if r.Key.Faults != "" {
			continue
		}
		base[r.Key] = baseMetrics{
			p99:    r.Report.Extra["lat_p99"],
			p999:   r.Report.Extra["lat_p999"],
			fair:   r.Report.Fairness,
			traced: r.Report.Fairness != 0 || r.Report.HandoffLocality != nil,
		}
	}
	for i := range results {
		if results[i].Key.Faults == "" {
			continue
		}
		k := results[i].Key
		k.Faults = ""
		b, ok := base[k]
		if !ok {
			continue
		}
		traced := b.traced && (results[i].Report.Fairness != 0 || results[i].Report.HandoffLocality != nil)
		if b.p99 <= 0 && b.p999 <= 0 && !traced {
			continue
		}
		r := results[i].clone()
		if b.p99 > 0 {
			r.Report.Extra[ExtraP99Infl] = r.Report.Extra["lat_p99"] / b.p99
		}
		if b.p999 > 0 {
			r.Report.Extra[ExtraP999Infl] = r.Report.Extra["lat_p999"] / b.p999
		}
		if traced {
			r.Report.Extra[ExtraJainDelta] = r.Report.Fairness - b.fair
		}
		r.Fingerprint = r.Report.Fingerprint()
		results[i] = r
	}
}
