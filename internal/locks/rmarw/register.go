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
			l, err := NewConfigErr(m, Config{
				TDC: int(t.Value("TDC", 0)),
				TR:  t.Value("TR", 0),
				TL:  t.LevelSlice("TL", m.Topology().Levels()),
			})
			if err != nil {
				return nil, err
			}
			return scheme.WrapRW(SchemeName, l), nil
		},
	})
}
