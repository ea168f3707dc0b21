package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Server is the HTTP observability plane (`workbench -listen`): the
// first slice of cmd/sweepd. It serves
//
//	/metrics         Prometheus text exposition of the registry
//	/progress        per-cell sweep status as NDJSON (?follow=1 streams
//	                 state transitions until the sweep finishes); only
//	                 on a server built with a tracker
//	/debug/pprof/*   the standard pprof handlers on this mux
//
// All endpoints are read-only: a scrape never blocks or perturbs a
// running simulation (every metric cell is an atomic; progress state is
// under its own small mutex that sweep workers touch only at cell
// boundaries).
type Server struct {
	reg  *Registry
	prog *SweepProgress
	mux  *http.ServeMux
	ln   net.Listener
	srv  *http.Server

	mu    sync.Mutex
	extra []string // extra route patterns, listed by the index page
}

// NewServer builds an unstarted server over the given registry (nil
// serves an empty exposition) and sweep tracker. /progress is mounted
// only when prog is non-nil: sweepd passes nil, its jobs' progress is
// /jobs and /jobs/{id}/events.
func NewServer(reg *Registry, prog *SweepProgress) *Server {
	s := &Server{reg: reg, prog: prog}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	if prog != nil {
		s.mux.HandleFunc("/progress", s.handleProgress)
	}
	// net/http/pprof registers on DefaultServeMux at import; wire the
	// same handlers onto our private mux instead.
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mux.HandleFunc("/", s.handleIndex)
	s.srv = &http.Server{Handler: s.mux, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	return s
}

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so a client that connects and stalls cannot hold the
// connection open. It covers the headers only: a long /progress?follow=1
// or /jobs/{id}/events stream is unaffected.
const readHeaderTimeout = 10 * time.Second

// idleTimeout bounds how long a keep-alive connection may sit between
// requests before the server closes it, so clients that never close
// theirs cannot pile up connections over a long uptime. A connection
// inside a response — a long stream included — is not idle.
const idleTimeout = 2 * time.Minute

// Handle mounts an additional route on the observability mux — how
// cmd/sweepd's job API (POST /jobs, GET /jobs/{id}, ...) extends the
// plane without owning it. The pattern shows up on the index page.
// Register routes before Listen; http.ServeMux panics on duplicates,
// exactly like registering twice on the default mux.
func (s *Server) Handle(pattern string, h http.Handler) {
	s.mux.Handle(pattern, h)
	s.mu.Lock()
	s.extra = append(s.extra, pattern)
	sort.Strings(s.extra)
	s.mu.Unlock()
}

// Handler returns the observability mux. Exposed separately so tests
// can drive it with httptest without opening a socket.
func (s *Server) Handler() http.Handler { return s.mux }

// Listen binds addr (e.g. ":0", "127.0.0.1:9137") and serves in a
// background goroutine. Addr reports the bound address.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	go s.srv.Serve(ln) //nolint:errcheck // ErrServerClosed on Close
	return nil
}

// Addr returns the bound listen address ("" before Listen).
func (s *Server) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener and in-flight handlers.
func (s *Server) Close() error {
	if s == nil || s.ln == nil {
		return nil
	}
	return s.srv.Close()
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w) //nolint:errcheck // client gone
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	if follow, _ := strconv.ParseBool(r.URL.Query().Get("follow")); follow {
		ms, err := strconv.Atoi(r.URL.Query().Get("interval_ms"))
		if err != nil {
			ms = 0 // StreamNDJSON's default
		}
		s.prog.StreamNDJSON(w, time.Duration(ms)*time.Millisecond, r.Context().Done()) //nolint:errcheck // client gone
		return
	}
	s.prog.WriteNDJSON(w) //nolint:errcheck // client gone
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	fmt.Fprint(w, "rmalocks observability plane\n\n/metrics\n")
	if s.prog != nil {
		fmt.Fprint(w, "/progress (?follow=1)\n")
	}
	fmt.Fprint(w, "/debug/pprof/\n")
	s.mu.Lock()
	extra := append([]string(nil), s.extra...)
	s.mu.Unlock()
	for _, p := range extra {
		fmt.Fprintln(w, p)
	}
}
