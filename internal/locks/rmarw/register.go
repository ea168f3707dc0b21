package rmarw

import (
	"rmalocks/internal/rma"
	"rmalocks/internal/scheme"
)

// SchemeName is the canonical registry name of this lock.
const SchemeName = "RMA-RW"

func init() {
	scheme.MustRegister(scheme.Descriptor{
		Name:    SchemeName,
		Aliases: []string{"rmarw"},
		Doc:     "topology-aware distributed Reader-Writer lock (§3): distributed counter + tree of distributed queues",
		// No CapTimeout: writers sit in distributed queues (see D-MCS)
		// and readers publish counter increments the writer path
		// observes, so neither mode can abandon cleanly.
		Caps:  scheme.CapMutex | scheme.CapRW,
		Order: 50,
		Tunables: []scheme.TunableSpec{
			{Key: "TDC", Doc: "distributed-counter threshold T_DC: one physical counter every TDC-th process (0 = one counter per compute node, the paper's default)",
				Default: 0, Min: 0, Max: 1 << 30},
			{Key: "TR", Doc: "reader threshold T_R: readers entering through one physical counter before yielding to writers",
				Default: 1000, Min: 1, Max: Bias/2 - 1},
			{Key: "TL", Doc: "locality threshold T_L,i of tree level i (T_W = Π T_L,i)",
				Default: DefaultTL, Min: 1, Max: 1 << 31, PerLevel: true},
		},
		New: func(m *rma.Machine, t scheme.Tunables) (scheme.Lock, error) {
			l, err := NewConfigErr(m, config(t, m.Topology().Levels()))
			if err != nil {
				return nil, err
			}
			return scheme.WrapRW(SchemeName, l), nil
		},
	})
}

// config maps registry tunables onto a Config, for the constructor and
// the witness alike.
func config(t scheme.Tunables, levels int) Config {
	return Config{
		TDC: int(t.Value("TDC", 0)),
		TR:  t.Value("TR", 0),
		TL:  t.LevelSlice("TL", levels),
	}
}

// Witness returns, after a run, what the run shows about locks it was
// not built as: it admits registry tunables t when a lock built from t
// would resolve to this lock's T_DC — the counters are structure, not
// a threshold — and to a T_R, T_W and T_L,i inside the boxes the run
// left (locks.Threshold). A t the constructor would reject is never
// admitted.
func (l *Lock) Witness() func(t scheme.Tunables) bool {
	tr, tw, tl := l.tr.Box(), l.tw.Box(), l.tree.Boxes()
	topo, tdc := l.topo, l.tdc
	return func(t scheme.Tunables) bool {
		ps, err := resolve(topo, config(t, topo.Levels()))
		if err != nil || ps.tdc != tdc || !tr.Contains(ps.tr) || !tw.Contains(ps.tw) {
			return false
		}
		for i := 1; i < len(tl); i++ {
			if !tl[i].Contains(ps.tl[i]) {
				return false
			}
		}
		return true
	}
}
