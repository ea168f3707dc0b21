package sweep_test

import (
	"encoding/json"
	"errors"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"rmalocks/internal/fault"
	"rmalocks/internal/obs"
	"rmalocks/internal/sweep"
	"rmalocks/internal/workload"
)

// wireGrid exercises every wire-expressible axis.
func wireGrid(t *testing.T) sweep.Grid {
	t.Helper()
	fp, err := fault.Parse("jitter=0.2,stall=50000@0.01,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	return sweep.Grid{
		Schemes:       []string{workload.SchemeDMCS, workload.SchemeRMARW},
		Workloads:     []string{"empty"},
		Profiles:      []string{"uniform", "zipf"},
		Ps:            []int{8, 16},
		ProcsPerNode:  4,
		Iters:         50,
		Seed:          99,
		SeedSet:       true,
		FW:            0.3,
		Locks:         16,
		ZipfS:         1.1,
		ZipfSSet:      true,
		ThinkNs:       1500,
		ThinkJitterNs: 200,
		RemotePct:     250,
		Tunables:      []sweep.TunableAxis{{Key: "TR", Values: []int64{500, 1000}}},
		Faults:        []*fault.Profile{nil, fp},
		Engine:        "ref",
	}
}

// TestGridCodecRoundTrip: decode(encode(g)) enumerates the identical
// cell set — same keys, same content addresses — so a submitted grid
// computes exactly what the local grid would.
func TestGridCodecRoundTrip(t *testing.T) {
	g := wireGrid(t)
	data, err := sweep.EncodeGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := sweep.DecodeGrid(data)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	cells2, err := g2.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(cells2) {
		t.Fatalf("cell counts differ: %d vs %d", len(cells), len(cells2))
	}
	for i := range cells {
		if cells[i].Key != cells2[i].Key {
			t.Errorf("cell %d key: %s vs %s", i, cells[i].Key, cells2[i].Key)
		}
		if cells[i].Input != cells2[i].Input {
			t.Errorf("cell %d content address drifted across the wire:\n %s\n %s",
				i, cells[i].Input, cells2[i].Input)
		}
		if cells[i].Input == "" {
			t.Errorf("cell %d of a wire grid is uncacheable", i)
		}
	}
}

// TestGridCodecRejectsUnserializable: in-process attachments fail with
// a typed WireError naming the field.
func TestGridCodecRejectsUnserializable(t *testing.T) {
	for _, tc := range []struct {
		field  string
		mutate func(*sweep.Grid)
	}{
		{"Obs", func(g *sweep.Grid) { g.Obs = obs.NewRegistry() }},
		{"Trace", func(g *sweep.Grid) { g.Trace = 1 }},
	} {
		g := wireGrid(t)
		tc.mutate(&g)
		_, err := sweep.EncodeGrid(g)
		var we sweep.WireError
		if !errors.As(err, &we) || we.Field != tc.field {
			t.Errorf("%s grid: err = %v, want WireError{%s}", tc.field, err, tc.field)
		}
	}
}

// TestGridCodecStrictDecode: unknown fields, bad fault specs and
// anything after the grid are rejected eagerly.
func TestGridCodecStrictDecode(t *testing.T) {
	for _, body := range []string{
		`{"schemes":["RMA-RW"]} {"schemes":["x"]} garbage`,
		`{"schemes":["RMA-RW"]}{}`,
		`{"schemes":["RMA-RW"]}]`,
	} {
		if g, err := sweep.DecodeGrid([]byte(body)); err == nil {
			t.Errorf("%s: decoded to %+v, want an error for the data after the grid", body, g)
		}
	}
	if _, err := sweep.DecodeGrid([]byte("{\"schemes\":[\"RMA-RW\"]}\r\n\t ")); err != nil {
		t.Errorf("white space after the grid: %v", err)
	}
	if _, err := sweep.DecodeGrid([]byte(`{"schemes":["x"],"typo_field":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := sweep.DecodeGrid([]byte(`{"schemes":["x"],"faults":["no-such-fault=1"]}`)); err == nil {
		t.Error("invalid fault spec accepted")
	}
	// The pre-registry scheme parameters left the wire with cell/v2.
	for _, key := range []string{"tl", "tdc", "tr"} {
		_, err := sweep.DecodeGrid([]byte(`{"schemes":["x"],"` + key + `":[1]}`))
		if err == nil || !strings.Contains(err.Error(), `"`+key+`"`) {
			t.Errorf("wire key %q: err = %v, want a rejection naming it", key, err)
		}
	}
}

// TestGridCellBound: a small body can name a grid of millions of cells;
// it is refused before a cell is built.
func TestGridCellBound(t *testing.T) {
	var ps strings.Builder
	for p := 1; p <= 5000; p++ {
		if p > 1 {
			ps.WriteByte(',')
		}
		ps.WriteString(strconv.Itoa(p))
	}
	body := `{"schemes":["foMPI-Spin","D-MCS","RMA-MCS","foMPI-RW","RMA-RW"],"workloads":["empty","sharedop","counter","dht"],` +
		`"profiles":["uniform","zipf","bursty","sweep"],"ps":[` + ps.String() + `]}`
	g, err := sweep.DecodeGrid([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	var tooMany sweep.TooManyCellsError
	if _, err := g.Cells(); !errors.As(err, &tooMany) {
		t.Fatalf("%d-byte body naming 400000 cells: err %v, want a TooManyCellsError", len(body), err)
	}
	if allocs := testing.AllocsPerRun(3, func() { g.Cells() }); allocs > 4 {
		t.Errorf("refusing the grid took %v allocations: it enumerated", allocs)
	}
	// The bound is on the product, so it cannot wrap around.
	huge := sweep.Grid{Schemes: []string{"RMA-RW"}, Workloads: []string{"empty"}, Profiles: []string{"uniform"}}
	for i := 0; i < 64; i++ {
		huge.Tunables = append(huge.Tunables, sweep.TunableAxis{Key: "K" + strconv.Itoa(i), Values: []int64{1, 2, 3, 4}})
	}
	if _, err := huge.Cells(); !errors.As(err, &tooMany) {
		t.Errorf("4^64 cells: err %v, want a TooManyCellsError", err)
	}
}

// TestCellInputSemantics pins the content-address contract: stable for
// identical grids, distinct across any result-affecting axis, and empty
// (uncacheable) for host-dependent or unserializable cells.
func TestCellInputSemantics(t *testing.T) {
	base := mustCells(t, testGrid())
	same := mustCells(t, testGrid())
	for i := range base {
		if base[i].Input == "" {
			t.Fatalf("cell %s has no content address", base[i].Key)
		}
		if base[i].Input != same[i].Input {
			t.Fatalf("cell %s address unstable across enumerations", base[i].Key)
		}
	}

	seen := map[string]string{}
	for _, c := range base {
		if prev, dup := seen[c.Input]; dup {
			t.Fatalf("cells %s and %s share a content address", prev, c.Key)
		}
		seen[c.Input] = c.Key.String()
	}

	// A tunable axis changes addresses only for cells of schemes that
	// accept the key (axesFor projection) — the dirty-cell invalidation
	// sweepd relies on: the d-MCS half of the grid stays cache-clean
	// when only RMA-RW's TR moves.
	tuned := testGrid()
	tuned.Tunables = []sweep.TunableAxis{{Key: "TR", Values: []int64{12345}}}
	tcells := mustCells(t, tuned)
	if len(tcells) != len(base) {
		t.Fatalf("single-value axis changed the cell count: %d vs %d", len(tcells), len(base))
	}
	changed, unchanged := 0, 0
	for i, c := range tcells {
		if c.Input == base[i].Input {
			unchanged++
		} else {
			changed++
		}
	}
	if changed == 0 || unchanged == 0 {
		t.Fatalf("TR axis dirtied %d and kept %d cells; want a proper split", changed, unchanged)
	}

	// Unserializable outputs are uncacheable.
	tr := testGrid()
	tr.Trace = 1
	for _, c := range mustCells(t, tr) {
		if c.Input != "" {
			t.Fatal("Trace cell carries a content address")
		}
	}
}

// FuzzDecodeGrid feeds arbitrary bytes to the decoder of sweepd's POST
// /jobs body. It must not panic; the retired scheme-parameter keys are
// an error whatever else the body holds; a body that decodes must
// survive the wire again — re-encoded and decoded, the grid enumerates
// the same cells under the same addresses, or fails the same way; and
// nothing is silently dropped: when Cells accepts the grid, each of its
// schemes, workloads, profiles, Ps, tunable keys and fault profiles is
// a coordinate of some cell.
func FuzzDecodeGrid(f *testing.F) {
	// What benchmark/'s daemon workloads post: the 240-cell grid, plain
	// and with daemon-dirty's TR axis.
	const served = `{"schemes":["foMPI-Spin","D-MCS","RMA-MCS","foMPI-RW","RMA-RW"],"workloads":["empty","sharedop","counter","dht"],"profiles":["uniform","zipf","bursty","sweep"],"ps":[16,32,64],"ppn":16,"iters":50,"seed":1,"seed_set":true,"fw":0.1,"locks":8,"zipfs":1.2`
	f.Add([]byte(served + `}`))
	f.Add([]byte(served + `,"tunables":[{"key":"TR","values":[20000]}]}`))
	f.Add([]byte(`{"schemes":["RMA-RW"],"workloads":["empty"],"profiles":["uniform"],"tr":900}`))
	f.Add([]byte(`{"schemes":["RMA-RW"],"TL":[0,40,25],"tdc":16}`))
	f.Add([]byte(`{"schemes":["D-MCS","foMPI-RW"],"workloads":["dht"],"profiles":["zipf"],"ps":[4,8],"locks":16,"zipfs_set":true,"think_ns":100,"think_jitter_ns":30,"faults":["jitter=0.2,stall=50000@0.01,seed=7","stall=100000@0.05,timeout=200000"],"engine":"ref"}`))
	f.Add([]byte(`{"schemes":["x"],"tunables":[{"key":"TR","values":[1]},{"key":"TR","values":[2]}],"ps":[-1],"engine":"psim"}`))
	f.Add([]byte(`{"schemes":["x"],"faults":["no-such-fault=1"]}`))
	f.Add([]byte(`{"schemes":["foMPI-A","RMA-RW"],"workloads":["dhtvol"],"profiles":["uniform"],"ps":[8],"iters":12,"fw":0.05,"locks":1}`))
	f.Add([]byte(`{"schemes":["D-MCS"],"workloads":["empty"],"profiles":["uniform"],"ps":[32],"fw":1,"locks":1,"remote_pct":400}`))
	f.Add([]byte(`{"schemes":["RMA-RW"],"workloads":["empty"],"profiles":["uniform"]} {"schemes":["x"]} garbage`))
	// Entries that run nothing, each of which Cells rejects.
	const axes = `"workloads":["empty"],"profiles":["uniform"]`
	f.Add([]byte(`{"schemes":["RMA-MSC"],` + axes + `}`))
	f.Add([]byte(`{"schemes":[],` + axes + `}`))
	f.Add([]byte(`{"schemes":["D-MCS"],"workloads":["dth"],"profiles":["uniform"]}`))
	f.Add([]byte(`{"schemes":["D-MCS"],"workloads":["empty"],"profiles":[]}`))
	f.Add([]byte(`{"schemes":["RMA-RW"],` + axes + `,"ps":[0]}`))
	f.Add([]byte(`{"schemes":["RMA-RW"],` + axes + `,"tunables":[{"key":"TR","values":[]}]}`))
	f.Add([]byte(`{"schemes":["RMA-RW"],` + axes + `,"tunables":[{"key":"TX","values":[1,2]}]}`))
	f.Add([]byte(`{"schemes":["D-MCS"],` + axes + `,"tunables":[{"key":"TR","values":[1,2]}]}`))
	f.Add([]byte(`{"schemes":["D-MCS"],` + axes + `,"faults":["timeout=200000"]}`))
	f.Add([]byte(`{"schemes":["D-MCS"],` + axes + `,"faults":[""]}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, body []byte) {
		g, err := sweep.DecodeGrid(body)
		var keys map[string]json.RawMessage
		if json.Unmarshal(body, &keys) == nil {
			for k := range keys {
				// encoding/json matches field names case-insensitively.
				if k := strings.ToLower(k); (k == "tl" || k == "tdc" || k == "tr") && err == nil {
					t.Fatalf("body with retired key %q decoded", k)
				}
			}
		}
		if err != nil {
			return
		}
		wire, err := sweep.EncodeGrid(g)
		if err != nil {
			t.Fatalf("decoded grid does not encode: %v", err)
		}
		g2, err := sweep.DecodeGrid(wire)
		if err != nil {
			t.Fatalf("re-encoded grid %s does not decode: %v", wire, err)
		}
		// omitempty drops a negative zero and it comes back positive: the
		// same simulation, spelled differently in the address.
		if negZero(g.FW) || negZero(g.ZipfS) {
			return
		}
		n := len(g.Schemes) * len(g.Workloads) * len(g.Profiles) * max(len(g.Ps), 1) * (len(g.Faults) + 1)
		for _, ax := range g.Tunables {
			n *= max(len(ax.Values), 1)
		}
		if n > 1<<12 {
			return // enumerating it would measure the fuzzer's memory, not the codec
		}
		cells, err := g.Cells()
		cells2, err2 := g2.Cells()
		if (err == nil) != (err2 == nil) || (err != nil && err.Error() != err2.Error()) {
			t.Fatalf("enumeration: %v before the wire, %v after", err, err2)
		}
		if len(cells) != len(cells2) {
			t.Fatalf("%d cells before the wire, %d after", len(cells), len(cells2))
		}
		for i := range cells {
			if cells[i].Key != cells2[i].Key || cells[i].Input != cells2[i].Input {
				t.Fatalf("cell %d: %q before the wire, %q after", i, cells[i].Input, cells2[i].Input)
			}
		}
		if err != nil {
			return
		}
		named := func(axis, entry string, in func(sweep.Key) bool) {
			if !slices.ContainsFunc(cells, func(c sweep.Cell) bool { return in(c.Key) }) {
				t.Fatalf("%s entry %q names no cell of the %d", axis, entry, len(cells))
			}
		}
		for _, s := range g.Schemes {
			named("schemes", s, func(k sweep.Key) bool { return k.Scheme == s })
		}
		for _, w := range g.Workloads {
			named("workloads", w, func(k sweep.Key) bool { return k.Workload == w })
		}
		for _, p := range g.Profiles {
			named("profiles", p, func(k sweep.Key) bool { return k.Profile == p })
		}
		for _, p := range g.Ps {
			named("ps", strconv.Itoa(p), func(k sweep.Key) bool { return k.P == p })
		}
		for _, ax := range g.Tunables {
			named("tunables", ax.Key, func(k sweep.Key) bool { return strings.Contains(","+k.Tunables, ","+ax.Key+"=") })
		}
		for _, fp := range g.Faults {
			named("faults", fp.Canonical(), func(k sweep.Key) bool { return k.Faults == fp.Canonical() })
		}
	})
}

func negZero(x float64) bool { return x == 0 && math.Signbit(x) }
