package rmamcs

import (
	"math"
	"strconv"

	"rmalocks/internal/locks"
	"rmalocks/internal/rma"
	"rmalocks/internal/scheme"
	"rmalocks/internal/topology"
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
		Resolve: resolved,
	})
}

// config maps registry tunables onto a Config, for the constructor and
// Resolve alike.
func config(t scheme.Tunables, levels int) Config {
	return Config{TL: t.LevelSlice("TL", levels)}
}

// resolved is the descriptor's Resolve: every T_L,i the constructor's
// resolve gives, T_L,1 unlimited whatever t says (§3.5). No counters:
// T_DC is 0.
func resolved(topo *topology.Topology, t scheme.Tunables) (scheme.Resolved, error) {
	n := topo.Levels()
	th := make(map[string]int64, n)
	for i, v := range resolve(n, config(t, n)) {
		if i > 0 {
			th["TL"+strconv.Itoa(i)] = v
		}
	}
	return scheme.Resolved{Thresholds: th}, nil
}

// Boxes returns, after a run, the box of every T_L,i as the run left it
// (locks.Threshold), under the keys Resolve uses.
func (l *Lock) Boxes() map[string]locks.Box {
	boxes := make(map[string]locks.Box, l.n)
	l.tree.Boxes(boxes)
	return boxes
}
