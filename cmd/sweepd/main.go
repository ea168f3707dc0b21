// Command sweepd is sweep-as-a-service: the observability plane of
// `workbench -listen` plus a job API and a content-addressed result
// cache. Grids arrive as JSON over HTTP, run on a bounded worker pool,
// and resolve per cell against the cache — resubmitting a grid with one
// changed axis recomputes only the dirtied cells. Results are
// byte-identical to a local workbench run of the same grid, regardless
// of cache state, worker count, or job placement.
//
// Usage:
//
//	sweepd                                  # listen on 127.0.0.1:9139
//	sweepd -listen :9139 -j 8 -max-jobs 4
//	sweepd -cache-dir results/cache -cache-bytes 268435456
//
// API (also listed on GET /):
//
//	POST   /jobs              submit a grid (sweep wire JSON; ?label=)
//	GET    /jobs              list job statuses
//	GET    /jobs/{id}         one job's status
//	GET    /jobs/{id}/result  the finished run file (byte-stable JSON)
//	GET    /jobs/{id}/events  NDJSON progress stream until terminal
//	DELETE /jobs/{id}         cancel (in-flight cells drain)
//	GET    /metrics           Prometheus text (incl. sweepd_cache_*)
//	GET    /debug/pprof/      the standard pprof handlers
//
// Submit with `workbench -submit http://host:port <grid flags>`.
//
// SIGINT/SIGTERM shuts down gracefully: new jobs are refused, in-flight
// cells drain (their results still land in the cache), and the cache
// index is flushed before exit.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"rmalocks/internal/cache"
	"rmalocks/internal/jobq"
	"rmalocks/internal/obs"
)

func main() {
	var (
		listen     = flag.String("listen", "127.0.0.1:9139", "HTTP listen address for the job API and observability plane")
		cacheDir   = flag.String("cache-dir", "results/cache", "directory for the persistent result cache")
		cacheBytes = flag.Int64("cache-bytes", 256<<20, "in-memory result-cache budget in bytes (entries beyond it stay on disk)")
		maxJobs    = flag.Int("max-jobs", 2, "concurrently running jobs; excess submissions queue in arrival order")
		jobs       = flag.Int("j", 0, "per-job cell worker pool size (0 = GOMAXPROCS)")
	)
	flag.Parse()

	d, err := newDaemon(config{
		cacheDir:   *cacheDir,
		cacheBytes: *cacheBytes,
		maxJobs:    *maxJobs,
		workers:    *jobs,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(1)
	}
	if err := d.listen(*listen); err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "[sweepd listening on %s; cache %s]\n", d.addr(), *cacheDir)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	s := <-sig
	fmt.Fprintf(os.Stderr, "[sweepd: %v — draining]\n", s)
	if err := d.shutdown(); err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "[sweepd: drained, cache flushed]")
}

// config assembles a daemon; separate from flags so tests can build
// daemons in-process.
type config struct {
	cacheDir   string
	cacheBytes int64
	maxJobs    int
	workers    int
}

// daemon owns the assembled stack: metrics registry, result cache, job
// manager, and the HTTP server they all mount on.
type daemon struct {
	metrics *obs.Registry
	store   *cache.Store
	mgr     *jobq.Manager
	srv     *obs.Server
}

func newDaemon(cfg config) (*daemon, error) {
	metrics := obs.NewRegistry()
	store, rep, err := cache.Open(cfg.cacheDir, cfg.cacheBytes)
	if err != nil {
		return nil, err
	}
	if len(rep.Corrupt) > 0 {
		fmt.Fprintf(os.Stderr, "[sweepd: skipped %d corrupt cache entries: %v]\n", len(rep.Corrupt), rep.Corrupt)
	}
	if rep.Stale > 0 {
		fmt.Fprintf(os.Stderr, "[sweepd: removed %d cache entries of another address version]\n", rep.Stale)
	}
	if rep.Entries > 0 {
		fmt.Fprintf(os.Stderr, "[sweepd: cache holds %d entries, %d resident]\n", rep.Entries, rep.Loaded)
	}
	store.Register(metrics)

	mgr := jobq.NewManager(jobq.Config{
		Workers: cfg.workers,
		MaxJobs: cfg.maxJobs,
		Cache:   store,
		Obs:     metrics,
	})
	srv := obs.NewServer(metrics, nil)
	jobq.NewAPI(mgr).Mount(srv)
	return &daemon{metrics: metrics, store: store, mgr: mgr, srv: srv}, nil
}

func (d *daemon) listen(addr string) error { return d.srv.Listen(addr) }
func (d *daemon) addr() string             { return d.srv.Addr() }

// shutdown drains gracefully: refuse new jobs, cancel the rest (their
// in-flight cells complete and land in the cache), flush the cache
// index, then close the listener.
func (d *daemon) shutdown() error {
	d.mgr.Shutdown()
	ferr := d.store.Flush()
	cerr := d.srv.Close()
	if ferr != nil {
		return ferr
	}
	return cerr
}
