package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"rmalocks/internal/jobq"
	"rmalocks/internal/sweep"
	"rmalocks/internal/workload"
)

// slowGrid is big enough that a signal lands mid-job: ~12 cells at
// hundreds of ms each with a single worker.
func slowGrid() sweep.Grid {
	return sweep.Grid{
		Schemes:   []string{workload.SchemeRMAMCS, workload.SchemeRMARW},
		Workloads: []string{"empty"},
		Profiles:  []string{"uniform", "zipf"},
		Ps:        []int{64, 128, 256},
		Iters:     300,
		Locks:     8,
	}
}

func getStatus(t *testing.T, base, id string) jobq.Status {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobq.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSignalDrainsMidJob sends the daemon a real SIGINT while a job is
// computing and checks the graceful-shutdown contract: the in-flight
// cell drains (completed work is kept and cached), the job ends
// canceled, new submissions are refused, and the cache index reaches
// disk.
func TestSignalDrainsMidJob(t *testing.T) {
	dir := t.TempDir()
	d, err := newDaemon(config{cacheDir: dir, cacheBytes: 1 << 20, maxJobs: 1, workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	base := "http://" + d.addr()

	// The signal plumbing main uses, wired to the same shutdown path.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT)
	defer signal.Stop(sig)
	drained := make(chan error, 1)
	go func() {
		<-sig
		drained <- d.shutdown()
	}()

	body, err := sweep.EncodeGrid(slowGrid())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/jobs?label=drain-test", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st jobq.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d %v", resp.StatusCode, err)
	}

	// Wait until the job has computed at least one cell, then interrupt
	// ourselves mid-job.
	deadline := time.Now().Add(60 * time.Second)
	for getStatus(t, base, st.ID).Done == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never completed a cell")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("shutdown did not drain")
	}

	fin := d.mgr.Statuses()[0]
	switch fin.State {
	case jobq.StateCanceled:
		if fin.Done == 0 || fin.Done == fin.Cells {
			t.Fatalf("canceled job done=%d/%d; want a partial drain", fin.Done, fin.Cells)
		}
	case jobq.StateDone:
		// The job beat the signal; shutdown still drained cleanly.
	default:
		t.Fatalf("job left in state %s after drain", fin.State)
	}

	// Drained cells reached the cache, and the index was flushed.
	if st := d.store.Stats(); int(st.Hits)+int(st.Misses) == 0 || st.Bytes == 0 {
		t.Fatalf("cache empty after drain: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, "index.json")); err != nil {
		t.Fatalf("cache index not flushed: %v", err)
	}

	// Draining daemons refuse new work.
	if _, err := d.mgr.Submit(slowGrid(), "late"); !errors.Is(err, jobq.ErrDraining) {
		t.Fatalf("submit after drain: %v, want ErrDraining", err)
	}
}
