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
// Every well-formed entry is one run: a simulated cell, never a derived
// one, with the witness of its run (workload.Witness) if it has one,
// indexed by input and, if witnessed, by sibling group (sweep.SiblingOf).
// Get, the one read path, answers input with its own run (a hit) or
// else with a run of its group whose witness admits it (a derivation).
// Open builds the index and Put keeps it: a file that appears later is
// not served until the next Open.
//
// A resident run holds a decoded sweep.CellResult with its run-file
// fragment attached, derived once when the run becomes resident (Put,
// Open's load, or the Get that reads it back from its file) and dropped
// when it is evicted; a hit after that is one map lookup on the input.
// DESIGN.md, "What a hit costs", has the rules this rests on.
package cache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

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

// run is one well-formed entry, resident or not: its input, file key
// and witness (zero when it has none) and, while resident (elem is not
// nil; guarded by Store.mu), its decoded result. res is handed out by
// value to every lookup it answers and never written after admission;
// the compact payload is not kept (the file has it, and the fragment
// compacts back to it).
type run struct {
	input string
	key   string         // sha256(input), also the file name stem
	w     workload.Judge // w.Admits answers for the stored witness
	text  string         // the witness' Canonical text
	group string         // sweep.SiblingOf(input)

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

// Store is the content-addressed cell store, and the sweep.CellCache
// that sweepd's jobs run against. Safe for concurrent use.
type Store struct {
	dir    string
	budget int64

	mu   sync.Mutex
	runs map[string]*run // input -> run
	// groups maps a sibling group to its witnessed runs, resident or
	// not. A list is appended to or replaced, never edited in place, so
	// a reader may keep one it copied.
	groups map[string][]*run
	lru    *list.List // resident runs, front = most recent; values are *run
	bytes  int64

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
// files are skipped, listed in the report and counted corrupt — a
// corrupt cache degrades to recomputation, never to a failed daemon —
// entries of another address version are counted and deleted, and so
// are the temp files of writes a crash cut short. Every well-formed
// entry, resident or not, is indexed.
func Open(dir string, budget int64) (*Store, LoadReport, error) {
	if budget <= 0 {
		budget = 64 << 20
	}
	s := &Store{
		dir:    dir,
		budget: budget,
		runs:   make(map[string]*run),
		groups: make(map[string][]*run),
		lru:    list.New(),
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, LoadReport{}, fmt.Errorf("cache: open %s: %w", dir, err)
	}
	rep, err := s.load()
	if err != nil {
		return nil, rep, err
	}
	s.corrupt.Add(int64(len(rep.Corrupt)))
	return s, rep, nil
}

// load scans dir for entry files, validates and indexes each, and
// admits the freshest into memory within the budget. The optional
// index.json (written by Flush) supplies the recency order; entries
// absent from the index rank last in name order, so a cache without an
// index still loads deterministically.
func (s *Store) load() (LoadReport, error) {
	var rep LoadReport
	temps, _ := filepath.Glob(filepath.Join(s.dir, ".tmp-*"))
	for _, name := range temps {
		os.Remove(name)
	}
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
		r := &run{input: env.Input, key: env.Sum}
		if err == nil && env.Witness != "" {
			err = r.witness(env.Witness)
		}
		var res sweep.CellResult
		if fits && err == nil {
			res, err = decodeEntry(env)
		}
		if err != nil {
			rep.Corrupt = append(rep.Corrupt, filepath.Base(name))
			continue
		}
		s.index(r)
		rep.Entries++
		size := sweep.CellFootprint(res)
		if !fits || s.bytes+size > s.budget {
			continue // over budget: stays on disk, not resident
		}
		r.res, r.size, r.elem = res, size, s.lru.PushBack(r) // names are sorted freshest-first
		s.bytes += size
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

// keyOf is the content address, hex sha256 of the canonical input: the
// file name stem of input's entry (the index is keyed by the input).
func keyOf(input string) string {
	sum := sha256.Sum256([]byte(input))
	return hex.EncodeToString(sum[:])
}

// witness validates the witness text stored beside r's input and sets
// it: it must be canonical, name the scheme the input names and admit
// the input's own tunables. Its scheme and machine are resolved here,
// once, for every lookup it will answer. r is unchanged when the text
// fails.
func (r *run) witness(text string) error {
	w, err := workload.ParseWitness(text)
	if err != nil {
		return err
	}
	group, name, tun, ok := sweep.SiblingOf(r.input)
	judge := w.Judge()
	switch {
	case !ok:
		return errors.New("cache: witness stored under an address without a sibling group")
	case w.Scheme != name:
		return fmt.Errorf("cache: a %s witness stored for a %s cell", w.Scheme, name)
	case !judge.Admits(tun):
		return errors.New("cache: witness does not admit its own cell")
	}
	r.w, r.text, r.group = judge, text, group
	return nil
}

// index adds r to the index, replacing the run of the same input if
// there is one. The caller holds mu, or is Open.
func (s *Store) index(r *run) {
	s.drop(s.runs[r.input])
	s.runs[r.input] = r
	if r.group != "" {
		s.groups[r.group] = append(s.groups[r.group], r)
	}
}

// drop removes r from the index and from memory, unless it is nil or
// has been dropped already. The caller holds mu.
func (s *Store) drop(r *run) {
	if r == nil || s.runs[r.input] != r {
		return
	}
	delete(s.runs, r.input)
	if r.group != "" {
		s.groups[r.group] = slices.DeleteFunc(slices.Clone(s.groups[r.group]), func(o *run) bool { return o == r })
	}
	if r.elem != nil {
		s.unload(r)
	}
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

// Get implements sweep.CellCache, as the store's one read path: input's
// own run (a hit), else a run of its sibling group whose witness admits
// its tunables (derived; the result is the sibling's, Key and all),
// else a miss — each lookup counts exactly one. It hands out the
// resident value itself, shared by every job it answers and read-only
// by the rule on sweep.CellResult: a hit decodes nothing, and the
// result it lands in encodes nothing (sweep.Encode splices its fragment).
func (s *Store) Get(input string) (sweep.CellResult, bool) {
	s.mu.Lock()
	own := s.runs[input]
	s.mu.Unlock()
	if own != nil {
		if res, ok := s.serve(own); ok {
			s.hits.Add(1)
			return res, true
		}
	}
	if group, _, tun, ok := sweep.SiblingOf(input); ok {
		s.mu.Lock()
		runs := s.groups[group]
		s.mu.Unlock()
		for _, r := range runs {
			if !r.w.Admits(tun) {
				continue
			}
			if res, ok := s.serve(r); ok {
				s.derived.Add(1)
				return res, true
			}
		}
	}
	s.misses.Add(1)
	return sweep.CellResult{}, false
}

// serve returns r's result: the resident one, or else the one its file
// holds, which must pass every check a load makes and still hold the
// input and witness text the load indexed; it is then made resident. A
// run whose file fails is dropped from the index, and counted corrupt
// unless the file is gone; the Put that follows the recompute stores it
// afresh.
func (s *Store) serve(r *run) (sweep.CellResult, bool) {
	s.mu.Lock()
	if r.elem != nil {
		s.lru.MoveToFront(r.elem)
		res := r.res
		s.mu.Unlock()
		return res, true
	}
	s.mu.Unlock()
	env, err := readEnvelope(filepath.Join(s.dir, r.key+".json"))
	if err == nil && (env.Input != r.input || env.Witness != r.text) {
		err = errors.New("cache: entry is not the run indexed under its address")
	}
	var res sweep.CellResult
	if err == nil {
		res, err = decodeEntry(env)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			s.corrupt.Add(1)
		}
		s.drop(r)
		return sweep.CellResult{}, false
	}
	if s.runs[r.input] == r && r.elem == nil {
		s.admit(r, res)
	}
	return res, true
}

// Put implements sweep.CellCache: a sealed copy of res (sweep.SealCell)
// becomes input's run, resident, and is persisted atomically with the
// witness Run attached (sweep.CellWitness) — unless that fails the
// checks a load makes, when the run is stored without one. Disk errors
// are counted but not fatal (the resident run still serves this
// process); a result that does not marshal, whose key input does not
// name, or that Run derived instead of simulating is counted and dropped.
func (s *Store) Put(input string, res sweep.CellResult) {
	if input == "" {
		return
	}
	w := sweep.CellWitness(res)
	res, err := sweep.SealCell(res)
	if err != nil || res.Derived || !res.Key.Names(input) {
		s.putErr.Add(1)
		return
	}
	// A cell's Input is a slice of its grid's whole address block; the
	// index keeps a copy of its own, not the block.
	r := &run{input: strings.Clone(input), key: keyOf(input)}
	if w.Scheme != "" {
		r.witness(w.Canonical()) // a witness that fails is not stored
	}
	s.mu.Lock()
	s.index(r)
	s.admit(r, res)
	s.mu.Unlock()
	// Marshal compacts a RawMessage, so handing it the fragment writes
	// the compact payload without keeping or rebuilding one.
	env := envelope{V: envelopeVersion, Input: r.input, Sum: r.key, Data: sweep.CellFragment(res), Witness: r.text}
	raw, err := json.Marshal(env)
	if err == nil {
		err = writeAtomic(filepath.Join(s.dir, r.key+".json"), raw)
	}
	if err != nil {
		s.putErr.Add(1)
	}
}

// admit makes res the resident result of r, which is not resident,
// evicting from the LRU tail to stay within budget. The caller holds mu.
func (s *Store) admit(r *run, res sweep.CellResult) {
	r.res, r.size, r.elem = res, sweep.CellFootprint(res), s.lru.PushFront(r)
	s.bytes += r.size
	for s.bytes > s.budget && s.lru.Len() > 1 {
		s.unload(s.lru.Back().Value.(*run))
		s.evictions.Add(1)
	}
}

// unload drops r's decoded value and its fragment; the run stays
// indexed and its file stays. The caller holds mu.
func (s *Store) unload(r *run) {
	s.lru.Remove(r.elem)
	s.bytes -= r.size
	r.res, r.size, r.elem = sweep.CellResult{}, 0, nil
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
		keys = append(keys, el.Value.(*run).key)
	}
	s.mu.Unlock()
	raw, err := json.Marshal(keys)
	if err != nil {
		return err
	}
	return writeAtomic(filepath.Join(s.dir, indexName), raw)
}

// Stats is a point-in-time view of the store's counters. Every lookup
// (Get) is exactly one of a hit, a derivation from a sibling's run
// (Derived) or a miss. Corrupt counts the entries refused: the files
// Open skipped, once each, and the runs a lookup found changed on disk
// and dropped. PutErrors counts the stores that were refused or did not
// reach disk. Bytes is what the resident runs hold: decoded cells and
// their fragments, not just payload lengths.
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
		"Result-cache lookups answered by the cell's own stored run.",
		func() int64 { return s.hits.Load() })
	r.CounterFunc("sweepd_cache_misses_total",
		"Result-cache lookups that found neither the cell's own run nor an admitting sibling's, so the cell is computed.",
		func() int64 { return s.misses.Load() })
	r.CounterFunc("sweepd_cache_derived_total",
		"Result-cache lookups answered by a stored sibling's run whose witness admits the cell, which is derived instead of computed.",
		func() int64 { return s.derived.Load() })
	r.CounterFunc("sweepd_cache_evictions_total",
		"Entries evicted from the in-memory LRU by the byte budget.",
		func() int64 { return s.evictions.Load() })
	r.CounterFunc("sweepd_cache_corrupt_total",
		"Entries refused: files Open skipped, and indexed runs a lookup found changed on disk (recomputed and overwritten).",
		func() int64 { return s.corrupt.Load() })
	r.GaugeFunc("sweepd_cache_bytes",
		"Bytes resident in the in-memory result cache: decoded cells and their run-file fragments.",
		func() float64 { return float64(s.Stats().Bytes) })
}
