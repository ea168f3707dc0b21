package obs

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T) (*Server, *SweepProgress, *Registry) {
	t.Helper()
	r := NewRegistry()
	p := NewSweepProgress("srv test")
	return NewServer(r, p), p, r
}

// TestMetricsEndpoint checks content type and exposition body.
func TestMetricsEndpoint(t *testing.T) {
	srv, _, reg := newTestServer(t)
	reg.CounterFunc("hits_total", "Hits.", func() int64 { return 5 })
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "hits_total 5") {
		t.Fatalf("scrape missing counter:\n%s", body)
	}
}

// TestProgressEndpoint checks the NDJSON payload and content type.
func TestProgressEndpoint(t *testing.T) {
	srv, prog, _ := newTestServer(t)
	prog.Start([]string{"cell-0", "cell-1"})
	prog.CellRunning(0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) != 3 { // 2 cells + summary
		t.Fatalf("lines = %d (%q), want 3", len(lines), lines)
	}
	if !strings.Contains(lines[0], `"cell-0"`) || !strings.Contains(lines[0], `"running"`) {
		t.Fatalf("first line = %s", lines[0])
	}
	if !strings.Contains(lines[2], `"summary":true`) {
		t.Fatalf("last line = %s", lines[2])
	}
}

// TestProgressFollow streams with ?follow=1 while cells complete and
// checks the stream ends once the sweep finishes, having carried the
// transitions.
func TestProgressFollow(t *testing.T) {
	srv, prog, _ := newTestServer(t)
	prog.Start([]string{"c0", "c1"})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	go func() {
		time.Sleep(20 * time.Millisecond)
		prog.CellRunning(0)
		prog.CellDone(0, "fp0", nil)
		time.Sleep(20 * time.Millisecond)
		prog.CellRunning(1)
		prog.CellDone(1, "fp1", nil)
	}()
	resp, err := http.Get(ts.URL + "/progress?follow=1&interval_ms=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body) // returns only when the stream closes
	if err != nil {
		t.Fatal(err)
	}
	s := string(body)
	if !strings.Contains(s, `"fp0"`) || !strings.Contains(s, `"fp1"`) {
		t.Fatalf("stream missing completions:\n%s", s)
	}
	if !strings.Contains(s, `"done":2`) {
		t.Fatalf("stream missing final summary:\n%s", s)
	}
}

// TestPprofEndpoint checks /debug/pprof/ is wired onto the custom mux.
func TestPprofEndpoint(t *testing.T) {
	srv, _, _ := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status = %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index unexpected body:\n%.200s", body)
	}
}

// TestListenAndClose binds :0, scrapes over TCP, and shuts down.
func TestListenAndClose(t *testing.T) {
	srv, _, reg := newTestServer(t)
	reg.CounterFunc("up", "", func() int64 { return 1 })
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	if addr == "" {
		t.Fatal("no bound address")
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "up 1") {
		t.Fatalf("scrape over TCP:\n%s", body)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// listenShortHeaderTimeout starts srv on a loopback port with the header
// timeout cut to d, and closes it when the test ends.
func listenShortHeaderTimeout(t *testing.T, srv *Server, d time.Duration) {
	t.Helper()
	if got := srv.srv.ReadHeaderTimeout; got != readHeaderTimeout {
		t.Fatalf("server header timeout %v, want %v", got, readHeaderTimeout)
	}
	srv.srv.ReadHeaderTimeout = d
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
}

// TestStalledHeadersClosed: a client that connects and never finishes
// its request headers has its connection closed by the server.
func TestStalledHeadersClosed(t *testing.T) {
	srv, _, _ := newTestServer(t)
	listenShortHeaderTimeout(t, srv, 50*time.Millisecond)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /metrics HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(conn); err != nil { // nil: the server closed it
		t.Fatalf("stalled connection still open: %v", err)
	}
}

// TestFollowOutlivesHeaderTimeout: the timeout covers reading headers
// only, so a /progress?follow=1 stream that runs far longer completes.
func TestFollowOutlivesHeaderTimeout(t *testing.T) {
	srv, prog, _ := newTestServer(t)
	prog.Start([]string{"c0", "c1"})
	const timeout = 20 * time.Millisecond
	listenShortHeaderTimeout(t, srv, timeout)
	go func() {
		time.Sleep(5 * timeout)
		prog.CellRunning(0)
		prog.CellDone(0, "fp0", nil)
		time.Sleep(5 * timeout)
		prog.CellRunning(1)
		prog.CellDone(1, "fp1", nil)
	}()
	resp, err := http.Get("http://" + srv.Addr() + "/progress?follow=1&interval_ms=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("stream cut short: %v", err)
	}
	if s := string(body); !strings.Contains(s, `"fp1"`) || !strings.Contains(s, `"done":2`) {
		t.Fatalf("stream missing its end:\n%s", s)
	}
}

// listenShortIdleTimeout starts srv on a loopback port with the
// keep-alive idle timeout cut to d, and closes it when the test ends.
func listenShortIdleTimeout(t *testing.T, srv *Server, d time.Duration) {
	t.Helper()
	if got := srv.srv.IdleTimeout; got != idleTimeout {
		t.Fatalf("server idle timeout %v, want %v", got, idleTimeout)
	}
	srv.srv.IdleTimeout = d
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
}

// TestIdleConnectionClosed: a keep-alive connection that sends nothing
// after its response is closed by the server, while a
// /progress?follow=1 stream that runs many idle timeouts longer on
// another connection completes.
func TestIdleConnectionClosed(t *testing.T) {
	srv, prog, _ := newTestServer(t)
	prog.Start([]string{"c0", "c1"})
	const timeout = 20 * time.Millisecond
	listenShortIdleTimeout(t, srv, timeout)

	stream := make(chan string, 1)
	go func() {
		resp, err := http.Get("http://" + srv.Addr() + "/progress?follow=1&interval_ms=5")
		if err != nil {
			stream <- "get: " + err.Error()
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			stream <- "stream cut short: " + err.Error()
			return
		}
		stream <- string(body)
	}()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Close {
		t.Fatal("the server asked to close a keep-alive connection after its response")
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(br); err != nil { // nil: the server closed it
		t.Fatalf("idle connection still open: %v", err)
	}

	time.Sleep(5 * timeout)
	prog.CellRunning(0)
	prog.CellDone(0, "fp0", nil)
	time.Sleep(5 * timeout)
	prog.CellRunning(1)
	prog.CellDone(1, "fp1", nil)
	if s := <-stream; !strings.Contains(s, `"fp1"`) || !strings.Contains(s, `"done":2`) {
		t.Fatalf("stream missing its end:\n%s", s)
	}
}
