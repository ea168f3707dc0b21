package rma

import "fmt"

// LatencyModel describes the timing of simulated RMA operations as a
// function of the topological distance between origin and target
// (0 = same rank, 1 = same node, 2 = one network hop, ...).
//
// Two operation classes are distinguished, reflecting RDMA hardware:
//
//   - data ops (Put/Get) can use shared-memory fast paths inside a node,
//     so their intra-node cost is far below the network cost;
//   - atomic ops (Accumulate/FAO/CAS) are executed by the NIC even for
//     local targets on Cray-style hardware, so they are expensive
//     everywhere and serialize per target.
//
// Occupancy is the per-operation service time at the target (memory
// controller or NIC); concurrent operations on the same target queue up
// behind it, which is what makes centralized hot spots collapse.
type LatencyModel struct {
	// DataRTT[d] is the round-trip latency (ns) of a Put/Get at distance d.
	DataRTT []int64
	// AtomicRTT[d] is the round-trip latency (ns) of an atomic at distance d.
	AtomicRTT []int64
	// DataOcc[d] is the target service time (ns) of a Put/Get at distance d.
	DataOcc []int64
	// AtomicOcc[d] is the target service time (ns) of an atomic at distance d.
	AtomicOcc []int64
}

// DefaultLatency returns the calibrated model used for the experiments:
// an Aries-like network with XPMEM-style intra-node data transfers and
// NIC-executed atomics. maxDist must be >= 1; distances beyond the table
// extrapolate by one extra network-ish hop per level.
func DefaultLatency(maxDist int) LatencyModel {
	if maxDist < 1 {
		panic(fmt.Sprintf("rma: maxDist must be >= 1, got %d", maxDist))
	}
	base := LatencyModel{
		//               self intra-node inter-node inter-rack
		DataRTT:   []int64{60, 150, 1300, 2000},
		AtomicRTT: []int64{400, 900, 1700, 2300},
		DataOcc:   []int64{25, 50, 100, 100},
		AtomicOcc: []int64{100, 150, 200, 200},
	}
	return base.extend(maxDist)
}

// UniformLatency returns a model where every operation costs rtt with
// occupancy occ regardless of distance; useful in unit tests where timing
// must not matter.
func UniformLatency(maxDist int, rtt, occ int64) LatencyModel {
	n := maxDist + 1
	m := LatencyModel{
		DataRTT:   make([]int64, n),
		AtomicRTT: make([]int64, n),
		DataOcc:   make([]int64, n),
		AtomicOcc: make([]int64, n),
	}
	for d := 0; d < n; d++ {
		m.DataRTT[d] = rtt
		m.AtomicRTT[d] = rtt
		m.DataOcc[d] = occ
		m.AtomicOcc[d] = occ
	}
	return m
}

// extend pads the tables out to maxDist+1 entries, repeating the growth of
// the last step for deeper hierarchies.
func (m LatencyModel) extend(maxDist int) LatencyModel {
	grow := func(t []int64) []int64 {
		out := make([]int64, maxDist+1)
		for d := 0; d <= maxDist; d++ {
			if d < len(t) {
				out[d] = t[d]
				continue
			}
			step := t[len(t)-1] - t[len(t)-2]
			if step < 0 {
				step = 0
			}
			out[d] = out[d-1] + step
		}
		return out
	}
	return LatencyModel{
		DataRTT:   grow(m.DataRTT),
		AtomicRTT: grow(m.AtomicRTT),
		DataOcc:   grow(m.DataOcc),
		AtomicOcc: grow(m.AtomicOcc),
	}
}

// RemoteLatency returns DefaultLatency(maxDist) with every entry at
// distance 2 and beyond (inter-node and deeper) scaled to pct percent,
// each at least 1 ns: the network-cost coordinate of a sweep, where 100
// is the calibrated model itself.
func RemoteLatency(maxDist int, pct int64) LatencyModel {
	m := DefaultLatency(maxDist)
	for _, t := range [][]int64{m.DataRTT, m.AtomicRTT, m.DataOcc, m.AtomicOcc} {
		for d := 2; d < len(t); d++ {
			t[d] = max(t[d]*pct/100, 1)
		}
	}
	return m
}

func (m LatencyModel) validate(maxDist int) error {
	for name, t := range map[string][]int64{
		"DataRTT": m.DataRTT, "AtomicRTT": m.AtomicRTT,
		"DataOcc": m.DataOcc, "AtomicOcc": m.AtomicOcc,
	} {
		if len(t) < maxDist+1 {
			return fmt.Errorf("rma: latency table %s has %d entries, need %d", name, len(t), maxDist+1)
		}
		for d, v := range t {
			if v < 0 {
				return fmt.Errorf("rma: latency table %s[%d] is negative", name, d)
			}
		}
		if t[0] == 0 && (name == "DataRTT" || name == "AtomicRTT") {
			return fmt.Errorf("rma: %s[0] must be positive (zero-cost ops livelock spin loops)", name)
		}
	}
	return nil
}
