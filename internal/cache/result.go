package cache

import (
	"rmalocks/internal/scheme"
	"rmalocks/internal/sweep"
	"rmalocks/internal/workload"
)

// ResultStore is the Store as a sweep.CellCache. Get hands out the
// resident value itself — decoded and indented when the entry became
// resident, shared by every job that hits it, read-only by the rule on
// sweep.CellResult — so a hit decodes nothing and the result it lands
// in encodes nothing: sweep.Encode splices the fragment it carries.
type ResultStore struct {
	store *Store
}

// NewResultStore wraps a store.
func NewResultStore(s *Store) *ResultStore { return &ResultStore{store: s} }

// Store returns the underlying store (metrics, Flush).
func (r *ResultStore) Store() *Store { return r.store }

// Get implements sweep.CellCache. An entry that fails validation is a
// counted miss — the cell recomputes and Put overwrites it.
func (r *ResultStore) Get(input string) (sweep.CellResult, bool) { return r.store.lookup(input) }

// Put implements sweep.CellCache. The store keeps its own sealed copy,
// reusing the fragment sweep.Run attached.
func (r *ResultStore) Put(input string, res sweep.CellResult) { r.store.store(input, res) }

// Sibling implements sweep.CellCache: the result of a stored entry of
// the sibling group whose witness admits t, counted as derived.
func (r *ResultStore) Sibling(group string, t scheme.Tunables) (sweep.CellResult, workload.Witness, bool) {
	return r.store.sibling(group, t)
}
