//go:build linux

package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env locates the checkout and everything the benchmark writes: built
// binaries under .bench_build/bin (kept between runs; go build leaves
// an up-to-date binary alone) and one temp dir per run, removed on exit.
type env struct {
	root      string // the rmalocks checkout
	workbench string
	sweepd    string
	tmp       string
	buildS    float64
}

// newEnv builds ./cmd/workbench and ./cmd/sweepd from the checkout's
// source and creates the run's temp dir.
func newEnv(root string) (*env, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	for _, need := range []string{"go.mod", "cmd/workbench", "cmd/sweepd"} {
		if _, err := os.Stat(filepath.Join(root, need)); err != nil {
			return nil, fmt.Errorf("%s is not an rmalocks checkout: %w", root, err)
		}
	}
	bin := filepath.Join(root, ".bench_build", "bin")
	tmpRoot := filepath.Join(root, ".bench_build", "tmp")
	for _, d := range []string{bin, tmpRoot} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	build := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), "./cmd/workbench", "./cmd/sweepd")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build: %w\n%s", err, out)
	}
	tmp, err := os.MkdirTemp(tmpRoot, "run-")
	if err != nil {
		return nil, err
	}
	return &env{
		root:      root,
		workbench: filepath.Join(bin, "workbench"),
		sweepd:    filepath.Join(bin, "sweepd"),
		tmp:       tmp,
		buildS:    time.Since(start).Seconds(),
	}, nil
}

func (e *env) close() { os.RemoveAll(e.tmp) }

func (e *env) path(name string) string { return filepath.Join(e.tmp, name) }

// childRun is what one finished child process cost.
type childRun struct {
	wallS, cpuS, rssMB float64
	stderr             string
}

// rssPollInterval is how often a running child's VmHWM is read: a
// reading can miss at most the growth of the child's last 10 ms.
const rssPollInterval = 10 * time.Millisecond

// runChild runs a program to completion with stdout discarded (a grid's
// table goes nowhere, like a user running with -out) and reports wall
// time from start to exit, user+system CPU from the kernel's rusage for
// the child, and its peak RSS. Children die with the benchmark
// (Pdeathsig).
func runChild(bin string, args ...string) (childRun, error) {
	cmd := exec.Command(bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	err := cmd.Start()
	if err != nil {
		return childRun{}, fmt.Errorf("%s: %w", filepath.Base(bin), err)
	}
	// Peak RSS is polled from the child's own VmHWM: rusage's Maxrss is
	// no use for a small child, because exec folds the parent's peak
	// RSS into it (the child's value never reads below the benchmark's
	// own footprint).
	exited := make(chan struct{})
	polled := make(chan float64, 1) // one send: the highest reading
	go func() {
		var peak float64
		tick := time.NewTicker(rssPollInterval)
		defer tick.Stop()
		for {
			select {
			case <-exited:
				polled <- peak
				return
			case <-tick.C:
				if data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", cmd.Process.Pid)); err == nil {
					if mb, err := parseVmHWM(string(data)); err == nil && mb > peak {
						peak = mb
					}
				}
			}
		}
	}()
	err = cmd.Wait()
	r := childRun{wallS: time.Since(start).Seconds(), stderr: stderr.String()}
	close(exited)
	r.rssMB = <-polled
	if ps := cmd.ProcessState; ps != nil {
		r.cpuS = (ps.UserTime() + ps.SystemTime()).Seconds()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok && r.rssMB == 0 {
			r.rssMB = float64(ru.Maxrss) / 1024 // too short to poll; Linux reports KiB
		}
	}
	if err != nil {
		return r, fmt.Errorf("%s %s: %w: %s", filepath.Base(bin), strings.Join(args, " "), err, lastLine(r.stderr))
	}
	return r, nil
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		s = s[i+1:]
	}
	return s
}

// daemon is one live sweepd child.
type daemon struct {
	cmd      *exec.Cmd
	base     string // http://127.0.0.1:port
	cacheDir string
	readyS   float64 // spawn → first 200 from /metrics
	logMu    sync.Mutex
	log      bytes.Buffer
	logDone  chan struct{}
}

var listenRE = regexp.MustCompile(`\[sweepd listening on ([^;\s]+);`)

// startDaemon spawns sweepd with its default flags on an ephemeral port
// and the given cache dir, and waits until /metrics answers 200.
func (e *env) startDaemon(cacheDir string) (*daemon, error) {
	cmd := exec.Command(e.sweepd, "-listen", "127.0.0.1:0", "-cache-dir", cacheDir)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, cacheDir: cacheDir, logDone: make(chan struct{})}
	addr := make(chan string, 1) // one send: the listening line
	go func() {
		defer close(d.logDone)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			d.logMu.Lock()
			d.log.WriteString(line + "\n")
			d.logMu.Unlock()
			if m := listenRE.FindStringSubmatch(line); m != nil && !sent {
				sent = true
				addr <- m[1]
			}
		}
		if !sent {
			close(addr)
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			d.kill()
			return nil, fmt.Errorf("sweepd exited before listening: %s", lastLine(d.logText()))
		}
		d.base = "http://" + a
	case <-time.After(20 * time.Second):
		d.kill()
		return nil, errors.New("sweepd did not report its address within 20s")
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := http.Get(d.base + "/metrics")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // readiness probe
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("sweepd at %s never answered /metrics: %v", d.base, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.readyS = time.Since(start).Seconds()
	return d, nil
}

func (d *daemon) logText() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return d.log.String()
}

func (d *daemon) kill() {
	d.cmd.Process.Kill() //nolint:errcheck // already gone is fine
	<-d.logDone
	d.cmd.Wait() //nolint:errcheck // reaping only
}

// stop drains the daemon gracefully (SIGTERM → exit 0) and returns how
// long that took; a daemon that does not exit in 15s is killed.
func (d *daemon) stop() (float64, error) {
	start := time.Now()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return 0, fmt.Errorf("signal sweepd: %w", err)
	}
	timer := time.AfterFunc(15*time.Second, func() { d.cmd.Process.Kill() }) //nolint:errcheck
	// stderr closes when the process exits
	<-d.logDone
	err := d.cmd.Wait()
	timer.Stop()
	if err != nil {
		return 0, fmt.Errorf("sweepd did not drain cleanly: %w: %s", err, lastLine(d.logText()))
	}
	return time.Since(start).Seconds(), nil
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux platform Go supports.
const clockTick = 100

// cpuSeconds reads the process's user+system CPU so far from
// /proc/<pid>/stat (fields 14 and 15).
func (d *daemon) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(data))
}

func parseProcStat(stat string) (float64, error) {
	// The command name (field 2) is parenthesised and may hold spaces.
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(stat[i+1:]) // f[0] is field 3
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return (utime + stime) / clockTick, nil
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM)
// from /proc/<pid>/status.
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(data))
}

func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024, nil
				}
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
