package rmamcs

import (
	"math"

	"rmalocks/internal/rma"
	"rmalocks/internal/scheme"
)

// SchemeName is the canonical registry name of this lock.
const SchemeName = "RMA-MCS"

func init() {
	scheme.MustRegister(scheme.Descriptor{
		Name:    SchemeName,
		Aliases: []string{"rmamcs"},
		Doc:     "topology-aware distributed MCS lock (§3.5): tree of distributed queues with locality thresholds",
		// No CapTimeout: the distributed-queue nodes cannot be unlinked
		// without successor cooperation (same constraint as D-MCS, at
		// every tree level).
		Caps:  scheme.CapMutex,
		Order: 30,
		Tunables: []scheme.TunableSpec{
			{Key: "TL", Doc: "locality threshold T_L,i of tree level i (level 1 is ignored: with no readers the root passes indefinitely, §3.5)",
				Default: DefaultTL, Min: 1, Max: math.MaxInt64, PerLevel: true},
		},
		New: func(m *rma.Machine, t scheme.Tunables) (scheme.Lock, error) {
			return scheme.WrapMutex(SchemeName, NewConfig(m, config(t, m.Topology().Levels()))), nil
		},
	})
}

// config maps registry tunables onto a Config, for the constructor and
// the witness alike.
func config(t scheme.Tunables, levels int) Config {
	return Config{TL: t.LevelSlice("TL", levels)}
}

// Witness returns, after a run, what the run shows about locks it was
// not built as: it admits registry tunables t when every T_L,i a lock
// built from t would use lies in the box the run left
// (locks.Threshold). T_L,1 is unlimited whatever t says (§3.5), so TL1
// never matters.
func (l *Lock) Witness() func(t scheme.Tunables) bool {
	boxes := l.tree.Boxes()
	n := len(boxes) - 1
	return func(t scheme.Tunables) bool {
		for i, v := range resolve(n, config(t, n)) {
			if i > 0 && !boxes[i].Contains(v) {
				return false
			}
		}
		return true
	}
}
