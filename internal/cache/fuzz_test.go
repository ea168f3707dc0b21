package cache_test

import (
	"bytes"
	"encoding/json"
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
// refused, never served as bytes a local run would not produce.
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
	})
}
