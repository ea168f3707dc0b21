// Package cache is sweepd's content-addressed result store. Entries are
// keyed by a cell's canonical *input* encoding (sweep.Cell.Input, the
// "cell/v2 ..." string covering every result-affecting parameter), so a
// hit is decidable before the cell ever runs — unlike the output
// fingerprint, which exists only after. The store is an in-memory LRU
// with a byte budget, backed by one file per entry under a cache
// directory: writes go through write-then-rename so a crash never
// leaves a torn entry visible, and loads tolerate corruption by
// skipping (and reporting) bad files rather than refusing to start.
//
// A resident entry is a decoded sweep.CellResult with its run-file
// fragment attached, derived once when the entry becomes resident (Put,
// Open's load, or the Get that reads it back from disk) and dropped
// when it is evicted; a hit after that is one hash and one map lookup.
// DESIGN.md, "What a hit costs", has the rules this rests on.
//
// An entry may also carry the witness of the run that produced it
// (workload.Witness): the store keeps an index of them by sibling group
// (sweep.SiblingOf), so a cell no entry holds can be derived from a
// stored sibling whose witness admits it (ResultStore.Sibling).
package cache

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"rmalocks/internal/scheme"
	"rmalocks/internal/sweep"
	"rmalocks/internal/workload"
)

// envelopeVersion versions the on-disk entry layout; bumping it orphans
// (and Open skips) every older entry.
const envelopeVersion = 1

// envelope is the on-disk form of one cache entry. The input string is
// stored verbatim so a load can verify the file really holds the entry
// its name promises (names are sha256(input) — a renamed or truncated
// file fails the check and is reported as corrupt, not served).
// Witness is the canonical text of the witness of the run that produced
// Data, empty when there is none.
type envelope struct {
	V       int             `json:"v"`
	Input   string          `json:"input"`
	Sum     string          `json:"sha256"`
	Data    json.RawMessage `json:"data"`
	Witness string          `json:"witness,omitempty"`
}

// sibling is one stored witness of a sibling group, with the input of
// an entry stored with it: the result any cell it admits derives from.
type sibling struct {
	w     workload.Witness
	text  string // w.Canonical()
	input string
}

// entry is one resident cache entry. res is handed out by value to
// every hit and never written after admission; the compact payload is
// not kept (the file has it, and the fragment compacts back to it).
type entry struct {
	key  string           // sha256(input), also the file name stem
	res  sweep.CellResult // decoded cell, run-file fragment attached
	size int64            // sweep.CellFootprint(res), charged to the budget
	elem *list.Element
}

// LoadReport summarizes what Open found on disk.
type LoadReport struct {
	// Entries counts well-formed entries indexed (not necessarily
	// resident: only the freshest fit the byte budget).
	Entries int
	// Loaded counts entries brought into memory within the budget.
	Loaded int
	// Corrupt lists files that failed validation and were skipped.
	Corrupt []string
	// Stale counts well-formed entries stored under another version of
	// the address encoding (sweep.StaleInput). No lookup can reach them
	// and no Put will overwrite them, so Open removes the files.
	Stale int
}

// Store is the content-addressed cell store: lookups and stores by
// canonical input string, sha256 of the input as the address. Safe for
// concurrent use. ResultStore is its sweep.CellCache face; Get and Put
// here are the same entries seen as payload bytes.
type Store struct {
	dir    string
	budget int64

	mu      sync.Mutex
	entries map[string]*entry // key -> entry
	lru     *list.List        // front = most recent; values are *entry
	bytes   int64
	// sibs maps a sibling group to the distinct witnesses stored in it,
	// resident or not. Lists only grow; a reader may keep one it copied.
	sibs map[string][]sibling

	hits      atomic.Int64
	misses    atomic.Int64
	derived   atomic.Int64
	evictions atomic.Int64
	corrupt   atomic.Int64
	putErr    atomic.Int64
}

// Open opens (creating if needed) a store rooted at dir with the given
// in-memory byte budget (<= 0 means 64 MiB). Existing entries are
// validated and loaded freshest-first until the budget fills; malformed
// files are skipped and listed in the report — a corrupt cache degrades
// to recomputation, never to a failed daemon — and entries of another
// address version are counted and deleted. The witness of every
// well-formed entry, resident or not, goes into the sibling index.
func Open(dir string, budget int64) (*Store, LoadReport, error) {
	if budget <= 0 {
		budget = 64 << 20
	}
	s := &Store{
		dir:     dir,
		budget:  budget,
		entries: make(map[string]*entry),
		lru:     list.New(),
		sibs:    make(map[string][]sibling),
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, LoadReport{}, fmt.Errorf("cache: open %s: %w", dir, err)
	}
	rep, err := s.load()
	if err != nil {
		return nil, rep, err
	}
	return s, rep, nil
}

// load scans dir for entry files, validates each, and admits the
// freshest into memory within the budget. The optional index.json
// (written by Flush) supplies the recency order; entries absent from
// the index rank last in name order, so a cache without an index still
// loads deterministically.
func (s *Store) load() (LoadReport, error) {
	var rep LoadReport
	names, err := filepath.Glob(filepath.Join(s.dir, "*.json"))
	if err != nil {
		return rep, fmt.Errorf("cache: scan %s: %w", s.dir, err)
	}
	rank := s.loadIndex()
	sort.Slice(names, func(i, j int) bool {
		ri, iok := rank[stem(names[i])]
		rj, jok := rank[stem(names[j])]
		switch {
		case iok && jok:
			return ri < rj
		case iok:
			return true
		case jok:
			return false
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		if filepath.Base(name) == indexName {
			continue
		}
		env, err := readEnvelope(name)
		if err == nil && sweep.StaleInput(env.Input) {
			rep.Stale++
			os.Remove(name) // a file that stays is counted again next time, nothing worse
			continue
		}
		// An entry is never smaller resident than on disk, so one whose
		// payload alone overflows the budget is indexed undecoded (Get
		// validates it if it is ever asked for).
		fits := err == nil && s.bytes+int64(len(env.Data)) <= s.budget
		var group string
		var sib sibling
		if err == nil && env.Witness != "" {
			group, sib, err = parseSibling(env.Input, env.Witness)
		}
		var res sweep.CellResult
		if fits && err == nil {
			res, err = decodeEntry(env)
		}
		if err != nil {
			rep.Corrupt = append(rep.Corrupt, filepath.Base(name))
			continue
		}
		if group != "" {
			s.index(group, sib)
		}
		rep.Entries++
		e := &entry{key: env.Sum, res: res, size: sweep.CellFootprint(res)}
		if !fits || s.bytes+e.size > s.budget {
			continue // over budget: stays on disk, not resident
		}
		e.elem = s.lru.PushBack(e) // names are sorted freshest-first
		s.entries[e.key] = e
		s.bytes += e.size
		rep.Loaded++
	}
	return rep, nil
}

// readEnvelope reads and validates one entry file.
func readEnvelope(name string) (envelope, error) {
	raw, err := os.ReadFile(name)
	if err != nil {
		return envelope{}, err
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return envelope{}, err
	}
	if env.V != envelopeVersion {
		return envelope{}, fmt.Errorf("cache: envelope version %d", env.V)
	}
	sum := keyOf(env.Input)
	if env.Sum != sum || sum != stem(name) {
		return envelope{}, errors.New("cache: address mismatch")
	}
	if len(env.Data) == 0 {
		return envelope{}, errors.New("cache: empty payload")
	}
	return env, nil
}

func stem(name string) string {
	return strings.TrimSuffix(filepath.Base(name), ".json")
}

// addrOf is the content address: hex sha256 of the canonical input. As
// an array it indexes the entry map without allocating (a hit needs the
// address for nothing else); keyOf is the same address as a string.
func addrOf(input string) (addr [2 * sha256.Size]byte) {
	sum := sha256.Sum256([]byte(input))
	hex.Encode(addr[:], sum[:])
	return addr
}

func keyOf(input string) string {
	addr := addrOf(input)
	return string(addr[:])
}

// parseSibling validates the witness text stored beside input: it must
// be canonical, name the scheme input names and admit input's own
// tunables. It returns input's sibling group and the index entry.
func parseSibling(input, text string) (string, sibling, error) {
	w, err := workload.ParseWitness(text)
	if err != nil {
		return "", sibling{}, err
	}
	group, name, tun, ok := sweep.SiblingOf(input)
	switch {
	case !ok:
		return "", sibling{}, errors.New("cache: witness stored under an address without a sibling group")
	case w.Scheme != name:
		return "", sibling{}, fmt.Errorf("cache: a %s witness stored for a %s cell", w.Scheme, name)
	case !w.Admits(tun):
		return "", sibling{}, errors.New("cache: witness does not admit its own cell")
	}
	return group, sibling{w: w, text: text, input: input}, nil
}

// index adds a witness to its group unless the group has it already.
func (s *Store) index(group string, sib sibling) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, o := range s.sibs[group] {
		if o.text == sib.text {
			return
		}
	}
	s.sibs[group] = append(s.sibs[group], sib)
}

// decodeEntry derives an envelope's resident form. The payload must be
// the canonical encoding of a cell whose key the envelope's input
// names; anything else is a corrupt entry, because the bytes served
// from here on are the bytes stored.
func decodeEntry(env envelope) (sweep.CellResult, error) {
	res, err := sweep.DecodeCell(env.Data)
	if err != nil {
		return sweep.CellResult{}, err
	}
	if !res.Key.Names(env.Input) {
		return sweep.CellResult{}, errors.New("cache: payload is another cell's result")
	}
	return res, nil
}

// lookup is the one read path. A file that is there but fails any of
// fetch's checks is a corrupt entry: counted as such and as a miss,
// never resident, and overwritten by the Put that follows the
// recompute.
func (s *Store) lookup(input string) (sweep.CellResult, bool) {
	res, err := s.fetch(input)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			s.corrupt.Add(1)
		}
		s.misses.Add(1)
		return sweep.CellResult{}, false
	}
	s.hits.Add(1)
	return res, true
}

// fetch returns the entry for input. A resident entry costs the hash and
// a map lookup; an evicted (or never-admitted) one is read from disk,
// validated — its witness too — decoded and re-admitted.
func (s *Store) fetch(input string) (sweep.CellResult, error) {
	addr := addrOf(input)
	s.mu.Lock()
	if e, ok := s.entries[string(addr[:])]; ok {
		s.lru.MoveToFront(e.elem)
		res := e.res
		s.mu.Unlock()
		return res, nil
	}
	s.mu.Unlock()
	key := string(addr[:])
	env, err := readEnvelope(filepath.Join(s.dir, key+".json"))
	if err == nil && env.Input != input {
		err = errors.New("cache: address collision")
	}
	if err == nil && env.Witness != "" {
		_, _, err = parseSibling(input, env.Witness)
	}
	var res sweep.CellResult
	if err == nil {
		res, err = decodeEntry(env)
	}
	if err != nil {
		return sweep.CellResult{}, err
	}
	s.admit(key, res)
	return res, nil
}

// sibling returns the result of an entry of group whose witness admits
// t, and that witness: a derived cell, counted as such and neither a
// hit nor a miss. A stored sibling whose entry can no longer be read is
// passed over.
func (s *Store) sibling(group string, t scheme.Tunables) (sweep.CellResult, workload.Witness, bool) {
	s.mu.Lock()
	sibs := s.sibs[group]
	s.mu.Unlock()
	for _, sib := range sibs {
		if !sib.w.Admits(t) {
			continue
		}
		if res, err := s.fetch(sib.input); err == nil {
			s.derived.Add(1)
			return res, sib.w, true
		}
	}
	return sweep.CellResult{}, workload.Witness{}, false
}

// store makes res the entry for input: a sealed copy becomes resident
// and its payload is persisted atomically, with the witness Run attached
// (sweep.CellWitness) indexed and stored beside it — unless it fails the
// checks a load makes, when the entry is stored without one. Disk errors
// are counted but not fatal (the resident entry still serves this
// process); a result that does not marshal, or whose key input does not
// name, is counted and dropped.
func (s *Store) store(input string, res sweep.CellResult) {
	if input == "" {
		return
	}
	w := sweep.CellWitness(res)
	res, err := sweep.SealCell(res)
	if err != nil || !res.Key.Names(input) {
		s.putErr.Add(1)
		return
	}
	key := keyOf(input)
	s.admit(key, res)
	var text string
	if w.Scheme != "" {
		if group, sib, err := parseSibling(input, w.Canonical()); err == nil {
			s.index(group, sib)
			text = sib.text
		}
	}
	// Marshal compacts a RawMessage, so handing it the fragment writes
	// the compact payload without keeping or rebuilding one.
	env := envelope{V: envelopeVersion, Input: input, Sum: key, Data: sweep.CellFragment(res), Witness: text}
	raw, err := json.Marshal(env)
	if err == nil {
		err = writeAtomic(filepath.Join(s.dir, key+".json"), raw)
	}
	if err != nil {
		s.putErr.Add(1)
	}
}

// Get returns the payload cached for input — the compact canonical
// JSON of the cell, exactly the envelope's data on disk.
func (s *Store) Get(input string) ([]byte, bool) {
	res, ok := s.lookup(input)
	if !ok {
		return nil, false
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, sweep.CellFragment(res)); err != nil {
		return nil, false
	}
	return buf.Bytes(), true
}

// Put stores a payload for input. It must be the canonical encoding of
// a cell that input addresses (what Get returns, what json.Marshal
// gives a sweep.CellResult); any other payload could not be served and
// is counted and dropped.
func (s *Store) Put(input string, data []byte) {
	res, err := sweep.DecodeCell(data)
	if err != nil {
		s.putErr.Add(1)
		return
	}
	s.store(input, res)
}

// admit inserts (or refreshes) an in-memory entry, evicting from the
// LRU tail to stay within budget. Eviction drops the decoded value and
// its fragment with the entry; the file stays.
func (s *Store) admit(key string, res sweep.CellResult) {
	size := sweep.CellFootprint(res)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[key]; ok {
		s.bytes += size - e.size
		e.res, e.size = res, size
		s.lru.MoveToFront(e.elem)
	} else {
		e = &entry{key: key, res: res, size: size}
		e.elem = s.lru.PushFront(e)
		s.entries[key] = e
		s.bytes += size
	}
	for s.bytes > s.budget && s.lru.Len() > 1 {
		tail := s.lru.Back()
		ev := tail.Value.(*entry)
		s.lru.Remove(tail)
		delete(s.entries, ev.key)
		s.bytes -= ev.size
		s.evictions.Add(1)
	}
}

// writeAtomic writes data via a temp file + rename so readers (and
// crash recovery) never observe a torn entry.
func writeAtomic(name string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(name), ".tmp-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := os.Rename(tmp.Name(), name); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

const indexName = "index.json"

// loadIndex reads the recency index written by Flush; absent or
// unreadable indexes yield an empty ranking (harmless: load falls back
// to name order).
func (s *Store) loadIndex() map[string]int {
	raw, err := os.ReadFile(filepath.Join(s.dir, indexName))
	if err != nil {
		return nil
	}
	var keys []string
	if json.Unmarshal(raw, &keys) != nil {
		return nil
	}
	rank := make(map[string]int, len(keys))
	for i, k := range keys {
		rank[k] = i
	}
	return rank
}

// Flush persists the LRU recency order as index.json so the next Open
// admits the most recently useful entries first. Entry payloads are
// already on disk (Put is write-through); Flush only saves the order.
func (s *Store) Flush() error {
	s.mu.Lock()
	keys := make([]string, 0, s.lru.Len())
	for el := s.lru.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*entry).key)
	}
	s.mu.Unlock()
	raw, err := json.Marshal(keys)
	if err != nil {
		return err
	}
	return writeAtomic(filepath.Join(s.dir, indexName), raw)
}

// Stats is a point-in-time view of the store's counters. Every lookup
// is a hit or a miss; Corrupt counts the misses that found an entry on
// disk and rejected it. Derived counts cells served a stored sibling's
// result (ResultStore.Sibling), which are neither. PutErrors counts the
// stores that were refused or did not reach disk. Bytes is what the
// resident entries hold: decoded cells and their fragments, not just
// payload lengths.
type Stats struct {
	Hits, Misses, Evictions int64
	Derived                 int64
	Corrupt                 int64
	PutErrors               int64
	Bytes                   int64
	Resident                int
}

// Stats returns the current counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	bytes, resident := s.bytes, s.lru.Len()
	s.mu.Unlock()
	return Stats{
		Hits: s.hits.Load(), Misses: s.misses.Load(), Derived: s.derived.Load(),
		Evictions: s.evictions.Load(), Corrupt: s.corrupt.Load(), PutErrors: s.putErr.Load(),
		Bytes: bytes, Resident: resident,
	}
}

// registry is the obs surface the store exposes metrics on; satisfied
// by *obs.Registry without importing it (the trace-sink pattern:
// low-level packages stay obs-free).
type registry interface {
	CounterFunc(name, help string, fn func() int64)
	GaugeFunc(name, help string, fn func() float64)
}

// Register exposes the store's counters on an obs registry:
// sweepd_cache_{hits,misses,derived,evictions,corrupt}_total and
// sweepd_cache_bytes.
func (s *Store) Register(r registry) {
	if r == nil {
		return
	}
	r.CounterFunc("sweepd_cache_hits_total",
		"Result-cache lookups served without recomputation.",
		func() int64 { return s.hits.Load() })
	r.CounterFunc("sweepd_cache_misses_total",
		"Result-cache lookups that required computing the cell.",
		func() int64 { return s.misses.Load() })
	r.CounterFunc("sweepd_cache_derived_total",
		"Missed cells derived from a stored sibling whose witness admits them, instead of computed.",
		func() int64 { return s.derived.Load() })
	r.CounterFunc("sweepd_cache_evictions_total",
		"Entries evicted from the in-memory LRU by the byte budget.",
		func() int64 { return s.evictions.Load() })
	r.CounterFunc("sweepd_cache_corrupt_total",
		"Misses that found an entry on disk and rejected it (recomputed and overwritten).",
		func() int64 { return s.corrupt.Load() })
	r.GaugeFunc("sweepd_cache_bytes",
		"Bytes resident in the in-memory result cache: decoded cells and their run-file fragments.",
		func() float64 { return float64(s.Stats().Bytes) })
}
