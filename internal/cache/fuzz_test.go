package cache_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rmalocks/internal/cache"
	"rmalocks/internal/scheme"
	"rmalocks/internal/sweep"
	"rmalocks/internal/workload"
)

// FuzzEnvelope writes arbitrary bytes where an entry file belongs and
// asks for the entry, through both routes by which a file becomes
// resident: the lookup that finds it on disk, and Open's load followed
// by a lookup. Neither may panic, every lookup counts exactly one of a
// hit, a derivation or a miss, and whatever either serves must be a
// cell whose stored payload is exactly its own canonical encoding and
// whose fragment is exactly what MarshalIndent writes — a file can be
// refused, never served as bytes a local run would not produce. The
// same holds when the entry answers a lookup of a sibling address (the
// same cell with TR=20001), on either route: its witness is refused, or
// admits that TR and the entry is served as stored.
func FuzzEnvelope(f *testing.F) {
	cells, results := computed(f)
	input := cells[0].Input
	good, err := json.Marshal(results[0])
	if err != nil {
		f.Fatal(err)
	}
	other, err := json.Marshal(results[1])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(envelopeOf(1, input, good))
	f.Add(envelopeOf(1, input, other))
	f.Add(envelopeOf(2, input, good))
	f.Add(envelopeOf(1, input, bytes.Replace(good, []byte(`"locks":4`), []byte(`"locks":4 ,"zz":[]`), 1)))
	f.Add(envelopeOf(1, input, bytes.Replace(good, []byte(`"locks":4`), []byte(`"locks":5`), 1)))
	f.Add(envelopeOf(1, "cell/v2 elsewhere ppn=1", good))
	// Another version's address: load removes the file, lookup never
	// finds one; both are plain misses.
	f.Add(envelopeOf(1, strings.Replace(input, "cell/v2 ", "cell/v1 ", 1), good))
	f.Add(envelopeOf(1, input, []byte(`null`)))
	f.Add(envelopeOf(1, input, good)[:200])
	f.Add([]byte(nil))
	f.Add([]byte(`[]`))
	// An RMA-RW entry as a run with a cache writes it: with its witness.
	seed := f.TempDir()
	store, _, err := cache.Open(seed, 0)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := sweep.Run(cells, sweep.Options{Workers: 2, Cache: store}); err != nil {
		f.Fatal(err)
	}
	rw, err := os.ReadFile(filepath.Join(seed, address(rmaRW(f, testGrid())[0].Input)+".json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rw)

	f.Fuzz(func(t *testing.T, raw []byte) {
		// The file goes where its own input field says it belongs, so the
		// address check passes whenever the envelope is self-consistent.
		var hdr struct {
			Input   string          `json:"input"`
			Data    json.RawMessage `json:"data"`
			Witness string          `json:"witness"`
		}
		asked := input
		if json.Unmarshal(raw, &hdr) == nil && hdr.Input != "" {
			asked = hdr.Input
		}
		dir := t.TempDir()
		plant(t, dir, asked, raw)
		sib, sibOK := siblingTR(asked)
		for route, budget := range map[string]int64{"lookup": 1, "load": 0} {
			// Budget 1 loads nothing, so lookup reads the file; 0 decodes
			// it at load.
			store, rep, err := cache.Open(dir, budget)
			if err != nil {
				t.Fatal(err)
			}
			r, ok := store.Get(asked)
			st := store.Stats()
			if st.Hits+st.Derived+st.Misses != 1 || (st.Hits == 1) != ok || st.Corrupt > st.Misses {
				t.Fatalf("%s: served=%v with counters %+v", route, ok, st)
			}
			if ok {
				if route == "load" && (rep.Loaded != 1 || len(rep.Corrupt) != 0) {
					t.Fatalf("load served an entry its report (%+v) does not list as loaded", rep)
				}
				servedAsStored(t, route, r, asked, hdr.Data)
				if want, _ := json.MarshalIndent(sweep.RunFile{Cells: []sweep.CellResult{r}}, "", "  "); !bytes.Equal(encodeOne(t, r), append(want, '\n')) {
					t.Fatalf("%s served a fragment that MarshalIndent would not write", route)
				}
			}
			if !sibOK {
				continue
			}
			// The sibling lookup on a store of its own, so that the lookup
			// route still reads the file.
			if store, _, err = cache.Open(dir, budget); err != nil {
				t.Fatal(err)
			}
			r, ok = store.Get(sib)
			st = store.Stats()
			if st.Hits+st.Derived+st.Misses != 1 || (st.Hits+st.Derived == 1) != ok {
				t.Fatalf("%s: sibling served=%v with counters %+v", route, ok, st)
			}
			if !ok {
				continue
			}
			_, _, tun, _ := sweep.SiblingOf(sib)
			if w, err := workload.ParseWitness(hdr.Witness); sib != asked && (err != nil || !w.Judge().Admits(tun)) {
				t.Fatalf("%s: %s served for %s under witness %q", route, r.Key, sib, hdr.Witness)
			}
			servedAsStored(t, route+" (sibling)", r, asked, hdr.Data)
		}
	})
}

// siblingTR returns the address of input's sibling with TR=20001: its
// group's address with the tunables written after P, as appendInput
// writes them.
func siblingTR(input string) (string, bool) {
	group, _, tun, ok := sweep.SiblingOf(input)
	if !ok {
		return "", false
	}
	t := scheme.Tunables{"TR": 20001}
	for k, v := range tun {
		if k != "TR" {
			t[k] = v
		}
	}
	p := strings.Index(group, "/P=") + 1
	end := p + strings.IndexAny(group[p:], "/ ")
	return group[:end] + "/" + t.Canonical() + group[end:], true
}

// servedAsStored fails unless r is the planted entry as it is stored:
// its canonical encoding is the payload, and its key names the planted
// address.
func servedAsStored(t *testing.T, route string, r sweep.CellResult, planted string, payload []byte) {
	t.Helper()
	if canon, err := json.Marshal(r); err != nil || !bytes.Equal(canon, payload) {
		t.Fatalf("%s served a payload that is not its own canonical encoding:\nstored %s\n canon %s (%v)", route, payload, canon, err)
	}
	if !r.Key.Names(planted) {
		t.Fatalf("%s served cell %s under the address of another", route, r.Key)
	}
}

// FuzzIndex writes arbitrary bytes where Flush keeps the recency order.
// The index only orders the load: whatever it holds, Open must not
// panic, and with a budget that fits everything it loads and serves the
// same entries as a directory without an index.
func FuzzIndex(f *testing.F) {
	cells, results := computed(f)
	seed := f.TempDir()
	store, _, err := cache.Open(seed, 0)
	if err != nil {
		f.Fatal(err)
	}
	for i, c := range cells {
		store.Put(c.Input, results[i])
	}
	store.Get(cells[2].Input)
	if err := store.Flush(); err != nil {
		f.Fatal(err)
	}
	flushed, err := os.ReadFile(filepath.Join(seed, "index.json"))
	if err != nil {
		f.Fatal(err)
	}
	if err := os.Remove(filepath.Join(seed, "index.json")); err != nil {
		f.Fatal(err)
	}
	entries, err := os.ReadDir(seed)
	if err != nil {
		f.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		if files[e.Name()], err = os.ReadFile(filepath.Join(seed, e.Name())); err != nil {
			f.Fatal(err)
		}
	}
	_, plain, err := cache.Open(seed, 0)
	if err != nil {
		f.Fatal(err)
	}
	if plain.Loaded != len(cells) {
		f.Fatalf("without an index: %+v, want all %d entries loaded", plain, len(cells))
	}

	f.Add(flushed)
	f.Add([]byte(`["index","index",""]`))
	f.Add([]byte(`["` + address(cells[0].Input) + `","` + address(cells[0].Input) + `","no-such-entry"]`))
	f.Add(flushed[:len(flushed)/2])

	f.Fuzz(func(t *testing.T, index []byte) {
		dir := t.TempDir()
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, "index.json"), index, 0o644); err != nil {
			t.Fatal(err)
		}
		store, rep, err := cache.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Entries != plain.Entries || rep.Loaded != plain.Loaded || len(rep.Corrupt) != 0 || rep.Stale != 0 ||
			store.Stats().Resident != len(cells) {
			t.Fatalf("index %q: loaded %+v, without it %+v", index, rep, plain)
		}
		for i, c := range cells {
			r, ok := store.Get(c.Input)
			if !ok || r.Fingerprint != results[i].Fingerprint {
				t.Fatalf("index %q: cell %s served=%v", index, c.Key, ok)
			}
		}
		if st := store.Stats(); st.Hits != int64(len(cells)) || st.Resident != len(cells) {
			t.Fatalf("index %q: %+v, want every lookup a hit", index, st)
		}
	})
}
