package sweep_test

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"unicode/utf8"

	"rmalocks/internal/stats"
	"rmalocks/internal/sweep"
	"rmalocks/internal/workload"
)

// oracle is the encoding Encode has to reproduce byte for byte: the one
// every persisted baseline was written with.
func oracle(rf sweep.RunFile) ([]byte, error) {
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// sampleCell is a filled-in untraced cell; edit adjusts it per case.
func sampleCell(edit func(*sweep.CellResult)) sweep.CellResult {
	sum := stats.Summary{N: 96, Mean: 12.25, Min: 0.5, Max: 1e21, P50: 1e-7, P95: 33.333333333333336, P99: 40, StdDev: 2.5e-9, SampleTotal: 1176}
	r := sweep.CellResult{
		Key:   sweep.Key{Scheme: "RMA-RW", Workload: "dht", Profile: "zipf", P: 16},
		Locks: 4,
		Report: workload.Report{
			Scheme: "RMA-RW", Workload: "dht", Profile: "zipf", P: 16,
			Ops: 96, Reads: 80, Writes: 16, WarmupOps: 32,
			ThroughputMops: 1.4502923976608186, Latency: sum, ReadLatency: sum, WriteLatency: stats.Summary{},
			MakespanMs: 0.066, MaxClock: 88123, RemoteOps: 4711, DirectEntries: -0,
			Extra: map[string]float64{"stored": 17, "lat_p99": 40.5, "a<b": -0.0},
		},
		Fingerprint: `RMA-RW/dht/zipf P=16 ops=96 "quoted" <tag> & more`,
	}
	if edit != nil {
		edit(&r)
	}
	return r
}

func sealed(tb testing.TB, r sweep.CellResult) sweep.CellResult {
	tb.Helper()
	s, err := sweep.SealCell(r)
	if err != nil {
		tb.Fatal(err)
	}
	if sweep.CellFragment(s) == nil {
		tb.Fatal("SealCell attached no fragment")
	}
	return s
}

// decoded sends r through the cache's route: compact payload, DecodeCell.
func decoded(tb testing.TB, r sweep.CellResult) sweep.CellResult {
	tb.Helper()
	payload, err := json.Marshal(r)
	if err != nil {
		tb.Fatal(err)
	}
	d, err := sweep.DecodeCell(payload)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// TestEncodeMatchesMarshalIndent holds the spliced encoder to the
// reflective one over every shape a run file takes.
func TestEncodeMatchesMarshalIndent(t *testing.T) {
	plain := sampleCell(nil)
	traced := sampleCell(func(r *sweep.CellResult) {
		r.Report.Fairness = 0.9871
		r.Report.HandoffLocality = []int64{3, 40, 53}
	})
	tuned := sampleCell(func(r *sweep.CellResult) {
		r.Key.Tunables, r.Report.Tunables = "TL2=16,TR=500", "TL2=16,TR=500"
		r.Key.Faults, r.Report.Faults = "jitter=0.2,stall=50000@0.01", "jitter=0.2,stall=50000@0.01"
	})
	nilExtra := sampleCell(func(r *sweep.CellResult) { r.Report.Extra = nil })
	emptyExtra := sampleCell(func(r *sweep.CellResult) { r.Report.Extra = map[string]float64{} })
	emptyLocality := sampleCell(func(r *sweep.CellResult) { r.Report.HandoffLocality = []int64{} })

	cases := map[string]sweep.RunFile{
		"nil cells":         {Label: "empty run"},
		"zero cells":        {Label: "empty run", Cells: []sweep.CellResult{}},
		"zero value":        {},
		"one cell":          {Label: "one", Cells: []sweep.CellResult{plain}},
		"no label":          {Cells: []sweep.CellResult{plain}},
		"html label":        {Label: `a<b>c&d "e" \ / é ✓ ` + " \x00\x7f\xff", Cells: []sweep.CellResult{plain}},
		"two cells":         {Label: "two", Cells: []sweep.CellResult{plain, tuned}},
		"zero, no label":    {Cells: []sweep.CellResult{}},
		"nil extra":         {Label: "x", Cells: []sweep.CellResult{nilExtra}},
		"empty extra":       {Label: "x", Cells: []sweep.CellResult{emptyExtra}},
		"empty locality":    {Label: "x", Cells: []sweep.CellResult{emptyLocality}},
		"traced":            {Label: "x", Cells: []sweep.CellResult{traced}},
		"tunables + faults": {Label: "x", Cells: []sweep.CellResult{tuned, plain}},
		"all sealed":        {Label: "x", Cells: []sweep.CellResult{sealed(t, plain), sealed(t, tuned), sealed(t, nilExtra)}},
		"all decoded":       {Label: "x", Cells: []sweep.CellResult{decoded(t, plain), decoded(t, traced), decoded(t, emptyExtra)}},
		"mixed":             {Label: "x", Cells: []sweep.CellResult{plain, sealed(t, tuned), traced, decoded(t, nilExtra), emptyExtra}},
	}
	for name, rf := range cases {
		want, err := oracle(rf)
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		got, err := sweep.Encode(rf)
		if err != nil {
			t.Fatalf("%s: Encode: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: Encode differs from MarshalIndent\n got: %s\nwant: %s", name, got, want)
		}
		// What a finished sweepd job keeps and serves: the cells'
		// fragments, spliced, and the cells decoded back from them.
		var frags [][]byte
		var back []sweep.CellResult
		if rf.Cells != nil {
			frags, back = make([][]byte, len(rf.Cells)), make([]sweep.CellResult, len(rf.Cells))
		}
		for i, c := range rf.Cells {
			if frags[i], err = sweep.Fragment(c); err != nil {
				t.Fatalf("%s: Fragment: %v", name, err)
			}
			if back[i], err = sweep.DecodeFragment(frags[i]); err != nil {
				t.Fatalf("%s: DecodeFragment: %v", name, err)
			}
		}
		if got := sweep.AppendFragments([]byte("stale"), rf.Label, frags)[len("stale"):]; !bytes.Equal(got, want) {
			t.Errorf("%s: AppendFragments differs from MarshalIndent\n got: %s\nwant: %s", name, got, want)
		}
		if got, err := oracle(sweep.RunFile{Label: rf.Label, Cells: back}); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: cells decoded from their fragments marshal otherwise (%v)\n got: %s\nwant: %s", name, err, got, want)
		}
	}

	// A value JSON cannot carry fails both ways, never half-encoded.
	bad := sweep.RunFile{Label: "x", Cells: []sweep.CellResult{plain, sampleCell(func(r *sweep.CellResult) { r.Report.MakespanMs = math.NaN() })}}
	if _, err := oracle(bad); err == nil {
		t.Fatal("oracle encoded a NaN")
	}
	if _, err := sweep.Encode(bad); err == nil {
		t.Error("Encode encoded a NaN")
	}
	if _, err := sweep.Fragment(bad.Cells[1]); err == nil {
		t.Error("Fragment encoded a NaN")
	}
	if _, err := sweep.SealCell(bad.Cells[1]); err == nil {
		t.Error("SealCell attached a fragment to a cell that does not marshal")
	}
}

// TestDecodeCellCanonicalOnly: a payload is accepted only when it is the
// exact encoding of what it decodes to, because from then on its bytes
// are served without being looked at again.
func TestDecodeCellCanonicalOnly(t *testing.T) {
	cell := sampleCell(nil)
	good, err := json.Marshal(cell)
	if err != nil {
		t.Fatal(err)
	}
	d, err := sweep.DecodeCell(good)
	if err != nil {
		t.Fatalf("canonical payload rejected: %v", err)
	}
	if d.Fingerprint != cell.Fingerprint || d.Key != cell.Key {
		t.Fatal("decoded cell is not the encoded one")
	}
	if re, _ := json.Marshal(d); !bytes.Equal(re, good) {
		t.Fatal("decoded cell does not re-marshal to its payload")
	}
	for name, payload := range map[string][]byte{
		"leading space":  append([]byte(" "), good...),
		"trailing line":  append(append([]byte(nil), good...), '\n'),
		"unknown field":  bytes.Replace(good, []byte(`"locks":4`), []byte(`"locks":4,"zz":1`), 1),
		"respelled":      bytes.Replace(good, []byte(`"locks":4`), []byte(`"locks":4e0`), 1),
		"float spelling": bytes.Replace(good, []byte(`"MakespanMs":0.066`), []byte(`"MakespanMs":0.0660`), 1),
		"field case":     bytes.Replace(good, []byte(`"locks":4`), []byte(`"Locks":4`), 1),
		"duplicate":      bytes.Replace(good, []byte(`"locks":4`), []byte(`"locks":9,"locks":4`), 1),
		"unescaped html": bytes.Replace(good, []byte(`\u003ctag\u003e`), []byte(`<tag>`), 1),
		"truncated":      good[:len(good)/2],
		"empty":          nil,
		"null":           []byte("null"),
		"array":          []byte("[]"),
	} {
		if bytes.Equal(payload, good) {
			t.Fatalf("%s: test payload is the canonical one", name)
		}
		if _, err := sweep.DecodeCell(payload); err == nil {
			t.Errorf("%s: non-canonical payload accepted", name)
		}
	}
}

// TestSealedCellSharesNothingWritable: a cache keeps the sealed copy, so
// a caller editing the original afterwards must not reach it.
func TestSealedCellSharesNothingWritable(t *testing.T) {
	orig := sampleCell(func(r *sweep.CellResult) { r.Report.HandoffLocality = []int64{1, 2} })
	want, _ := json.Marshal(orig)
	s := sealed(t, orig)
	orig.Report.Extra["stored"] = -1
	orig.Report.Extra["new"] = 1
	orig.Report.HandoffLocality[0] = 99
	if got, _ := json.Marshal(s); !bytes.Equal(got, want) {
		t.Fatal("edits to the original cell reached its sealed copy")
	}
	if s.Trace != nil {
		t.Fatal("sealed copy kept a trace sink")
	}
	// Sealing a sealed cell encodes nothing: the fragment is shared.
	if again := sealed(t, s); &sweep.CellFragment(again)[0] != &sweep.CellFragment(s)[0] {
		t.Fatal("resealing re-encoded a cell that already carried its fragment")
	}
}

// TestKeyNamesInput ties a content address to the key it was built from.
func TestKeyNamesInput(t *testing.T) {
	g := testGrid()
	g.Tunables = []sweep.TunableAxis{{Key: "TR", Values: []int64{500, 900}}}
	cells := mustCells(t, g)
	for i, c := range cells {
		if !c.Key.Names(c.Input) {
			t.Fatalf("cell %s: key does not name its own input %q", c.Key, c.Input)
		}
		other := cells[(i+1)%len(cells)]
		if other.Key.Names(c.Input) {
			t.Fatalf("key %s names the input of %s", other.Key, c.Key)
		}
	}
	rest, ok := strings.CutPrefix(cells[0].Input, "cell/v2 ")
	if !ok {
		t.Fatalf("address %q does not start with the cell/v2 prefix", cells[0].Input)
	}
	if (sweep.Key{}).Names("") || cells[0].Key.Names("cell/v1 "+rest) {
		t.Fatal("a key named an empty or differently versioned input")
	}
	// Another version's address is stale; the current one, and strings
	// that are no cell address at all, are not.
	for input, want := range map[string]bool{
		"cell/v1 " + rest: true, "cell/v10 x": true,
		cells[0].Input: false, "": false, "cell/v2": false, "cell/v x": false, "cell/v1": false, "some input": false,
	} {
		if got := sweep.StaleInput(input); got != want {
			t.Errorf("StaleInput(%q) = %v, want %v", input, got, want)
		}
	}
}

// FuzzEncodeMatchesMarshalIndent drives labels, map keys and float bit
// patterns through both encoders: equal bytes, or an error from both
// (NaN and the infinities), over the cells of fuzzCells.
func FuzzEncodeMatchesMarshalIndent(f *testing.F) {
	addCellSeeds(f)
	f.Fuzz(func(t *testing.T, label, created, extraKey, tunables string, bitsA, bitsB uint64, n uint8, target, faults string) {
		cells := fuzzCells(t, label, created, extraKey, tunables, bitsA, bitsB, n, target, faults)
		if n >= 128 && cells == nil {
			cells = []sweep.CellResult{}
		}
		rf := sweep.RunFile{Label: label, Cells: cells}
		want, werr := oracle(rf)
		got, gerr := sweep.Encode(rf)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("MarshalIndent error %v, Encode error %v", werr, gerr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Encode differs from MarshalIndent\n got: %s\nwant: %s", got, want)
		}
	})
}

// FuzzAppendKeyText reads each cell of fuzzCells back from its
// fragment: the key text and fingerprint AppendKeyText returns are
// Key.String() and Fingerprint as json.Marshal, and so the progress
// stream, escapes them. A fragment cut short is refused, with the
// buffer left as it was.
func FuzzAppendKeyText(f *testing.F) {
	addCellSeeds(f)
	f.Fuzz(func(t *testing.T, label, created, extraKey, tunables string, bitsA, bitsB uint64, n uint8, target, faults string) {
		for _, c := range fuzzCells(t, label, created, extraKey, tunables, bitsA, bitsB, n, target, faults) {
			frag, err := sweep.Fragment(c)
			if err != nil {
				continue // a cell that does not marshal has no fragment
			}
			key, _ := json.Marshal(c.Key.String())
			fp, _ := json.Marshal(c.Fingerprint)
			got, gotFP, ok := sweep.AppendKeyText([]byte("x"), frag)
			if !ok || string(got) != "x"+string(key) || !bytes.Equal(gotFP, fp) {
				t.Fatalf("read back %s and %s (ok %v), want %s and %s from\n%s", got, gotFP, ok, key, fp, frag)
			}
			for _, cut := range []int{len(frag) / 3, len(frag) - 1} {
				if got, _, ok := sweep.AppendKeyText([]byte("x"), frag[:cut]); ok || string(got) != "x" {
					t.Fatalf("read %s (ok %v) from a fragment cut at %d of %d", got, ok, cut, len(frag))
				}
			}
		}
	})
}

// addCellSeeds seeds a fuzz target over fuzzCells' arguments.
func addCellSeeds(f *testing.F) {
	f.Add("label", "", "stored", "", math.Float64bits(1.5), math.Float64bits(-0.0), uint8(3), "TR=500", "")
	f.Add(`<>&"\`, "2026-10-01T00:00:00Z", "a b", "TR=500", math.Float64bits(1e21), math.Float64bits(5e-324), uint8(7), "", "jitter=0.2")
	f.Add("", "x", "\xff\x00", "é", math.Float64bits(math.NaN()), uint64(0), uint8(1), "<>&", "\xe2")
	f.Add("inf", "", "", "", uint64(0), math.Float64bits(math.Inf(-1)), uint8(0), "", "")
}

// fuzzCells builds n%8 pairs of cells from fuzzed labels, map keys,
// float bit patterns, tunables and faults. Cells alternate between
// bare, sealed and decoded, so spliced and on-the-spot fragments meet in
// one file. Beside each one sits a sibling derived by the splice
// (Retune) from a source of the same route with the fuzzed tunables and
// faults, retuned to the target tunables: its fingerprint must be its
// report's, and it must have a fragment when its source had one.
func fuzzCells(t *testing.T, label, created, extraKey, tunables string, bitsA, bitsB uint64, n uint8, target, faults string) []sweep.CellResult {
	a, b := math.Float64frombits(bitsA), math.Float64frombits(bitsB)
	cell := func(i int, edit func(*sweep.CellResult)) sweep.CellResult {
		c := sampleCell(func(r *sweep.CellResult) {
			r.Key.Tunables, r.Report.Tunables = tunables, tunables
			r.Key.Workload = label
			r.Fingerprint = extraKey + created
			r.Report.ThroughputMops = a
			r.Report.Latency.Mean = b
			r.Report.Extra[extraKey] = a
			if i%2 == 1 {
				r.Report.Extra = nil
				r.Report.Fairness = b
				r.Report.HandoffLocality = []int64{int64(bitsA), int64(i)}
			}
			if edit != nil {
				edit(r)
			}
		})
		switch i % 3 {
		case 1:
			if s, err := sweep.SealCell(c); err == nil {
				c = s
			}
		case 2:
			if payload, err := json.Marshal(c); err == nil {
				d, err := sweep.DecodeCell(payload)
				switch {
				case err == nil:
					c = d
				case utf8.ValidString(label) && utf8.ValidString(created) && utf8.ValidString(extraKey) && utf8.ValidString(tunables) && utf8.ValidString(faults):
					t.Fatalf("DecodeCell rejected json.Marshal's own output: %v\n%s", err, payload)
				}
				// Marshal writes an invalid byte as the escape \ufffd and
				// a decoded U+FFFD as itself, so such a payload is not
				// canonical: the cell stays bare, as a cache would
				// recompute it.
			}
		}
		return c
	}
	var cells []sweep.CellResult
	for i := 0; i < int(n%8); i++ {
		src := cell(i, func(r *sweep.CellResult) {
			r.Key.Faults, r.Report.Faults = faults, faults
			r.Fingerprint = r.Report.Fingerprint()
		})
		key := src.Key
		key.Tunables = target
		d, ok := sweep.Retune(src, key)
		if !ok {
			t.Fatalf("Retune refused a source whose fingerprint and fragment are its own")
		}
		if want := d.Report.Fingerprint(); d.Fingerprint != want {
			t.Fatalf("spliced fingerprint differs from the report's\n got: %s\nwant: %s", d.Fingerprint, want)
		}
		if d.Key != key || d.Report.Tunables != target || !d.Derived {
			t.Fatalf("derived cell %+v is not %s's", d.Key, key)
		}
		if (sweep.CellFragment(d) == nil) != (sweep.CellFragment(src) == nil) {
			t.Fatalf("source fragment %v, derived fragment %v", sweep.CellFragment(src) != nil, sweep.CellFragment(d) != nil)
		}
		cells = append(cells, cell(i, nil), d)
	}
	return cells
}
