package cache_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rmalocks/internal/cache"
	"rmalocks/internal/sweep"
)

// FuzzEnvelope writes arbitrary bytes where an entry file belongs and
// asks for the entry, through both routes by which a file becomes
// resident: the lookup that finds it on disk, and Open's load followed
// by a lookup. Neither may panic, and whatever either serves must be a
// cell whose stored payload is exactly its own canonical encoding and
// whose fragment is exactly what MarshalIndent writes — a file can be
// refused, never served as bytes a local run would not produce. The
// same holds for the entry served as a derivation source (Sibling) to
// a cell of its own sibling group: its witness is refused, or the
// entry is served as stored.
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

	f.Fuzz(func(t *testing.T, raw []byte) {
		// The file goes where its own input field says it belongs, so the
		// address check passes whenever the envelope is self-consistent.
		var hdr struct {
			Input string          `json:"input"`
			Data  json.RawMessage `json:"data"`
		}
		asked := input
		if json.Unmarshal(raw, &hdr) == nil && hdr.Input != "" {
			asked = hdr.Input
		}
		dir := t.TempDir()
		plant(t, dir, asked, raw)
		lazy, _, err := cache.Open(dir, 1) // nothing loaded: lookup reads the file
		if err != nil {
			t.Fatal(err)
		}
		eager, rep, err := cache.Open(dir, 0) // load decodes the file
		if err != nil {
			t.Fatal(err)
		}
		for route, store := range map[string]*cache.Store{"lookup": lazy, "load": eager} {
			r, ok := cache.NewResultStore(store).Get(asked)
			st := store.Stats()
			if st.Hits+st.Misses != 1 || (st.Hits == 1) != ok || st.Corrupt > st.Misses {
				t.Fatalf("%s: served=%v with counters %+v", route, ok, st)
			}
			if !ok {
				continue
			}
			if route == "load" && (rep.Loaded != 1 || len(rep.Corrupt) != 0) {
				t.Fatalf("load served an entry its report (%+v) does not list as loaded", rep)
			}
			canon, err := json.Marshal(r)
			if err != nil || !bytes.Equal(canon, hdr.Data) {
				t.Fatalf("%s served a payload that is not its own canonical encoding:\nstored %s\n canon %s (%v)", route, hdr.Data, canon, err)
			}
			if !r.Key.Names(asked) {
				t.Fatalf("%s served cell %s under the address of another", route, r.Key)
			}
			if want, _ := json.MarshalIndent(sweep.RunFile{Cells: []sweep.CellResult{r}}, "", "  "); !bytes.Equal(encodeOne(t, r), append(want, '\n')) {
				t.Fatalf("%s served a fragment that MarshalIndent would not write", route)
			}
		}
		group, _, tun, ok := sweep.SiblingOf(asked)
		if !ok {
			return
		}
		for route, store := range map[string]*cache.Store{"lookup": lazy, "load": eager} {
			r, w, ok := cache.NewResultStore(store).Sibling(group, tun)
			if !ok {
				continue
			}
			if !w.Admits(tun) || !r.Key.Names(asked) {
				t.Fatalf("%s: Sibling served %s with witness %q for its own tunables", route, r.Key, w.Canonical())
			}
			if canon, err := json.Marshal(r); err != nil || !bytes.Equal(canon, hdr.Data) {
				t.Fatalf("%s: Sibling served a payload that is not its own canonical encoding", route)
			}
		}
	})
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
	rs := cache.NewResultStore(store)
	for i, c := range cells {
		rs.Put(c.Input, results[i])
	}
	rs.Get(cells[2].Input)
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
		rs := cache.NewResultStore(store)
		for i, c := range cells {
			r, ok := rs.Get(c.Input)
			if !ok || r.Fingerprint != results[i].Fingerprint {
				t.Fatalf("index %q: cell %s served=%v", index, c.Key, ok)
			}
		}
		if st := store.Stats(); st.Hits != int64(len(cells)) || st.Resident != len(cells) {
			t.Fatalf("index %q: %+v, want every lookup a hit", index, st)
		}
	})
}
