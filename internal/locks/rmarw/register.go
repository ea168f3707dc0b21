package rmarw

import (
	"strconv"

	"rmalocks/internal/locks"
	"rmalocks/internal/rma"
	"rmalocks/internal/scheme"
	"rmalocks/internal/topology"
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
		Resolve: resolved,
	})
}

// config maps registry tunables onto a Config, for the constructor and
// Resolve alike.
func config(t scheme.Tunables, levels int) Config {
	return Config{
		TDC: int(t.Value("TDC", 0)),
		TR:  t.Value("TR", 0),
		TL:  t.LevelSlice("TL", levels),
	}
}

// resolved is the descriptor's Resolve: the constructor's own resolve,
// keyed as Boxes keys the boxes.
func resolved(topo *topology.Topology, t scheme.Tunables) (scheme.Resolved, error) {
	ps, err := resolve(topo, config(t, topo.Levels()))
	if err != nil {
		return scheme.Resolved{}, err
	}
	th := map[string]int64{"TR": ps.tr, "TW": ps.tw}
	for i := 1; i < len(ps.tl); i++ {
		th["TL"+strconv.Itoa(i)] = ps.tl[i]
	}
	return scheme.Resolved{TDC: ps.tdc, Thresholds: th}, nil
}

// Boxes returns, after a run, the box of every tracked threshold — T_R,
// T_W and each T_L,i — as the run left it (locks.Threshold), under the
// keys Resolve uses.
func (l *Lock) Boxes() map[string]locks.Box {
	boxes := map[string]locks.Box{"TR": l.tr.Box(), "TW": l.tw.Box()}
	l.tree.Boxes(boxes)
	return boxes
}
