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
			l := NewConfig(m, Config{TL: t.LevelSlice("TL", m.Topology().Levels())})
			return scheme.WrapMutex(SchemeName, l), nil
		},
	})
}
