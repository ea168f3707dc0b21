package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestProgressCachedCells drives the cached-cell lifecycle: cached
// cells are terminal, counted in Done and Cached, and excluded from
// the ETA extrapolation base.
func TestProgressCachedCells(t *testing.T) {
	p := NewSweepProgress("cached sweep")
	p.Start([]string{"a", "b", "c", "d"})

	// Two cache hits resolve instantly. No computed completions yet, so
	// the ETA must stay unknown (-1) — extrapolating from instantaneous
	// hits would promise a near-zero finish time for cells that still
	// have to compute.
	p.CellCached(0, "fp-a")
	p.CellCached(1, "fp-b")
	cells, sum := decodeProgress(t, p)
	if cells[0].State != StateCached || cells[0].Fingerprint != "fp-a" {
		t.Fatalf("cached cell = %+v", cells[0])
	}
	if sum.Done != 2 || sum.Cached != 2 || sum.Queued != 2 {
		t.Fatalf("summary after hits = %+v", sum)
	}
	if sum.EtaMs != -1 {
		t.Fatalf("eta after cache-only completions = %v, want -1", sum.EtaMs)
	}

	// First computed completion: now there is a real rate to
	// extrapolate from.
	p.CellRunning(2)
	p.CellDone(2, "fp-c", nil)
	_, sum = decodeProgress(t, p)
	if sum.EtaMs < 0 {
		t.Fatalf("eta after first computed completion = %v, want >= 0", sum.EtaMs)
	}

	p.CellRunning(3)
	p.CellDone(3, "fp-d", nil)
	_, sum = decodeProgress(t, p)
	if sum.Done != 4 || sum.Cached != 2 || sum.EtaMs != 0 {
		t.Fatalf("final summary = %+v", sum)
	}
}

// TestProgressAllCachedEta: a sweep resolved entirely from cache is
// finished — ETA 0, never a bogus extrapolation.
func TestProgressAllCachedEta(t *testing.T) {
	p := NewSweepProgress("all cached")
	p.Start([]string{"a", "b"})
	p.CellCached(0, "fp-a")
	p.CellCached(1, "fp-b")
	_, sum := decodeProgress(t, p)
	if sum.EtaMs != 0 || sum.Done != 2 || sum.Cached != 2 {
		t.Fatalf("all-cached summary = %+v, want done eta=0", sum)
	}
}

// TestProgressDerivedCellEta: a cell that sweep.Run's pre-pass derives
// from a stored sibling is done without ever running. Like a cache hit
// it takes no time, so it is not a rate to extrapolate from: with only
// cached and derived completions the ETA stays unknown.
func TestProgressDerivedCellEta(t *testing.T) {
	p := NewSweepProgress("derived")
	p.Start([]string{"a", "b", "c", "d"})
	p.CellCached(0, "fp-a")
	p.CellDone(1, "fp-b", nil) // derived: no CellRunning
	time.Sleep(20 * time.Millisecond)
	_, sum := decodeProgress(t, p)
	if sum.Done != 2 || sum.Cached != 1 || sum.EtaMs != -1 {
		t.Fatalf("summary after a cache hit and a derivation = %+v, want done=2 cached=1 eta=-1", sum)
	}

	p.CellRunning(2)
	p.CellDone(2, "fp-c", nil)
	if _, sum = decodeProgress(t, p); sum.EtaMs < 0 {
		t.Fatalf("eta after the first computed completion = %v, want >= 0", sum.EtaMs)
	}
}

// TestProgressEndpointEta pins the satellite guarantees at the HTTP
// layer: /progress never serves a bogus ETA when nothing has computed
// yet, and serves 0 when everything resolved from cache.
func TestProgressEndpointEta(t *testing.T) {
	readSummary := func(p *SweepProgress) SummaryLine {
		t.Helper()
		srv := NewServer(nil, p)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/progress", nil))
		lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
		var sum SummaryLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
			t.Fatalf("bad summary line %q: %v", lines[len(lines)-1], err)
		}
		if !sum.Summary {
			t.Fatalf("last line is not a summary: %+v", sum)
		}
		return sum
	}

	// Zero completions of any kind.
	fresh := NewSweepProgress("fresh")
	fresh.Start([]string{"a", "b"})
	if sum := readSummary(fresh); sum.EtaMs != -1 {
		t.Errorf("fresh sweep eta = %v, want -1", sum.EtaMs)
	}

	// Cache hits only, computed cells remaining.
	hits := NewSweepProgress("hits")
	hits.Start([]string{"a", "b", "c"})
	hits.CellCached(0, "fp")
	hits.CellCached(1, "fp")
	if sum := readSummary(hits); sum.EtaMs != -1 {
		t.Errorf("cache-hits-only eta = %v, want -1", sum.EtaMs)
	}

	// Everything cached: terminal, eta 0.
	all := NewSweepProgress("all")
	all.Start([]string{"a", "b"})
	all.CellCached(0, "fp")
	all.CellCached(1, "fp")
	if sum := readSummary(all); sum.EtaMs != 0 {
		t.Errorf("all-cached eta = %v, want 0", sum.EtaMs)
	}
}

// TestServerHandleExtension: routes mounted via Handle serve on the
// same mux and appear on the index page.
func TestServerHandleExtension(t *testing.T) {
	srv := NewServer(nil, nil)
	srv.Handle("/jobs", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	}))

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/jobs", nil))
	if rec.Code != http.StatusTeapot {
		t.Fatalf("mounted route returned %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if !strings.Contains(rec.Body.String(), "/jobs") {
		t.Fatalf("index page does not list the mounted route:\n%s", rec.Body.String())
	}
}
