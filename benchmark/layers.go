package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rmalocks"
)

// Layer measurements: host time of calls into each layer's public
// functions, made through the root rmalocks facade only. They do not
// depend on the workload or the seed's grid; every traced run makes
// them, so a change to one layer shows here whichever workload is named.

// opSum is rma.OpSum; the facade does not re-export the constant.
const opSum = 0

// machineRun runs body on a fresh machine of p ranks and returns the
// host seconds Machine.Run took.
func machineRun(p int, prep func(m *rmalocks.Machine), body func(pr *rmalocks.Proc)) (float64, error) {
	m := rmalocks.NewMachineForProcs(p)
	if prep != nil {
		prep(m)
	}
	t := time.Now()
	err := m.Run(body)
	return time.Since(t).Seconds(), err
}

// layerBench carries the trial and size scale (smoke divides sizes).
type layerBench struct {
	res    *result
	rec    *recorder
	trials int
	div    int
	err    error
}

// group runs one layer's measurements inside a span.
func (b *layerBench) group(layer string, f func() error) {
	if b.err != nil {
		return
	}
	end, _ := b.rec.begin(layer, "measure", "", clients+1, 0)
	defer end()
	if err := f(); err != nil {
		b.err = fmt.Errorf("layer %s: %w", layer, err)
	}
}

// perOp records, per trial, run()'s seconds divided by ops, in
// nanoseconds (scale ops by 1000 for microseconds, by 10^6 for
// milliseconds); the metric is reported as the trials' median.
func (b *layerBench) perOp(name string, ops int, run func() (float64, error)) error {
	s := make([]float64, 0, b.trials)
	for i := 0; i < b.trials; i++ {
		sec, err := run()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		s = append(s, sec*1e9/float64(ops))
	}
	b.res.samples[name] = s
	return nil
}

func (b *layerBench) sim() error {
	n := 1_000_000 / b.div
	// One rank never crosses its horizon: the coalesced fast path.
	if err := b.perOp("sim.advance_fast_ns", n, func() (float64, error) {
		s, err := machineRun(1, nil, func(p *rmalocks.Proc) {
			for i := 0; i < n; i++ {
				p.Compute(1)
			}
		})
		return s, err
	}); err != nil {
		return err
	}
	// Ranks offset by less than one step: every Compute crosses the
	// horizon and hands the token to the next rank.
	alternate := func(name string, p, n int) error {
		return b.perOp(name, p*n, func() (float64, error) {
			s, err := machineRun(p, nil, func(pr *rmalocks.Proc) {
				pr.Compute(int64(pr.Rank() + 1))
				for i := 0; i < n; i++ {
					pr.Compute(100)
				}
			})
			return s, err
		})
	}
	if err := alternate("sim.switch_ns", 2, 50_000/b.div); err != nil {
		return err
	}
	if err := alternate("sim.switch_p64_ns", 64, 2_000/b.div); err != nil {
		return err
	}
	const barrierP, barriers = 256, 50
	if err := b.perOp("sim.barrier_ns_per_rank", barrierP*barriers, func() (float64, error) {
		s, err := machineRun(barrierP, nil, func(p *rmalocks.Proc) {
			for i := 0; i < barriers; i++ {
				p.Barrier()
			}
		})
		return s, err
	}); err != nil {
		return err
	}
	spawnP := 8192 / b.div
	return b.perOp("sim.spawn_ns_per_rank", spawnP, func() (float64, error) {
		s, err := machineRun(spawnP, nil, func(*rmalocks.Proc) {})
		return s, err
	})
}

func (b *layerBench) rma() error {
	bigP := 8192 / b.div
	newMachine := func(p int) func() (float64, error) {
		return func() (float64, error) {
			t := time.Now()
			rmalocks.NewMachineForProcs(p)
			return time.Since(t).Seconds(), nil
		}
	}
	if err := b.perOp("rma.machine_new_us", 1000, newMachine(64)); err != nil {
		return err
	}
	if err := b.perOp("rma.machine_new_ns_per_rank", bigP, newMachine(bigP)); err != nil {
		return err
	}

	// Put+Flush from the only rank still running: the charge path with
	// no hand-off, to its own window and to another node's.
	n := 200_000 / b.div
	solo := func(name string, target int) error {
		var off int
		return b.perOp(name, n, func() (float64, error) {
			s, err := machineRun(32, func(m *rmalocks.Machine) { off = m.Alloc(1) }, func(p *rmalocks.Proc) {
				if p.Rank() != 0 {
					return
				}
				for i := 0; i < n; i++ {
					p.Put(int64(i), target, off)
					p.Flush(target)
				}
			})
			return s, err
		})
	}
	if err := solo("rma.op_local_ns", 0); err != nil {
		return err
	}
	if err := solo("rma.op_remote_ns", 31); err != nil {
		return err
	}
	const contendP = 64
	cn := 2_000 / b.div
	var off int
	if err := b.perOp("rma.op_contended_ns", contendP*cn, func() (float64, error) {
		s, err := machineRun(contendP, func(m *rmalocks.Machine) { off = m.Alloc(1) }, func(p *rmalocks.Proc) {
			for i := 0; i < cn; i++ {
				p.FAO(1, 0, off, opSum)
			}
		})
		return s, err
	}); err != nil {
		return err
	}
	// Two ranks on different nodes pass a flag back and forth: each
	// waiter parks in SpinUntil and is woken by the other's Put.
	pn := 20_000 / b.div
	var ping, pong int
	return b.perOp("rma.spin_wake_ns", 2*pn, func() (float64, error) {
		s, err := machineRun(32, func(m *rmalocks.Machine) { ping, pong = m.Alloc(1), m.Alloc(1) }, func(p *rmalocks.Proc) {
			const a, z = 0, 31
			for i := int64(1); i <= int64(pn); i++ {
				want := func(v int64) bool { return v == i }
				switch p.Rank() {
				case a:
					p.Put(i, z, ping)
					p.SpinUntil(a, pong, want)
				case z:
					p.SpinUntil(z, ping, want)
					p.Put(i, a, pong)
				}
			}
		})
		return s, err
	})
}

// locks measures every scheme at P=64 on one lock with an empty
// critical section: construction, host time per acquire+release, and
// the RMA operations one acquire+release issues (a count that repeats
// exactly).
func (b *layerBench) locks() error {
	const p = 64
	acquires := 20 / min(b.div, 4)
	for _, name := range allSchemes {
		name := name
		desc, err := rmalocks.Describe(name)
		if err != nil {
			return err
		}
		var newUS []float64
		mode := func(metric string, write bool) error {
			return b.perOp(metric, p*acquires, func() (float64, error) {
				m := rmalocks.NewMachineForProcs(p)
				t := time.Now()
				l, err := rmalocks.NewLock(m, name)
				if err != nil {
					return 0, err
				}
				newUS = append(newUS, float64(time.Since(t))/float64(time.Microsecond))
				t = time.Now()
				err = m.Run(func(pr *rmalocks.Proc) {
					for i := 0; i < acquires; i++ {
						if write {
							l.AcquireWrite(pr)
							l.ReleaseWrite(pr)
						} else {
							l.AcquireRead(pr)
							l.ReleaseRead(pr)
						}
					}
				})
				if write {
					st := m.Stats()
					b.res.set("rma.ops_per_acq."+name, float64(st.Total())/float64(p*acquires))
				}
				return time.Since(t).Seconds(), err
			})
		}
		if err := mode("locks.acq_host_ns."+name+".w", true); err != nil {
			return err
		}
		if desc.Caps&rmalocks.CapRW != 0 {
			if err := mode("locks.acq_host_ns."+name+".r", false); err != nil {
				return err
			}
		}
		b.res.samples["scheme.new_us."+name] = newUS

		rep, err := rmalocks.RunWorkload(rmalocks.WorkloadSpec{
			Scheme: name, P: p, Iters: acquires, Seed: 1,
			Profile: rmalocks.UniformProfile{FW: 1}, Workload: rmalocks.EmptyWorkload{},
		})
		if err != nil {
			return err
		}
		b.res.set("locks.remote_ops_per_acq."+name, float64(rep.RemoteOps)/float64(rep.Ops))
	}
	return nil
}

// tinySet is the P=16/iters=10 scheme × workload × profile set: the
// cells whose fixed per-cell cost is largest against their run time.
func tinySet() rmalocks.SweepGrid {
	return rmalocks.SweepGrid{Schemes: allSchemes, Workloads: allWorkloads, Profiles: allProfiles,
		Ps: []int{16}, Iters: 10, Seed: 1, SeedSet: true, FW: 0.1, Locks: 8}
}

func (b *layerBench) workload() error {
	cells, err := tinySet().Cells()
	if err != nil {
		return err
	}
	var before, after runtime.MemStats
	var us []float64
	var rep rmalocks.WorkloadReport
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, c := range cells {
		spec, err := c.Spec()
		if err != nil {
			return err
		}
		t := time.Now()
		if rep, err = rmalocks.RunWorkload(spec); err != nil {
			return err
		}
		us = append(us, float64(time.Since(t))/float64(time.Microsecond))
	}
	runtime.ReadMemStats(&after)
	n := float64(len(cells))
	b.res.samples["workload.cell_us.tiny"] = us
	b.res.set("workload.alloc_bytes_per_cell", float64(after.TotalAlloc-before.TotalAlloc)/n)
	b.res.set("workload.allocs_per_cell", float64(after.Mallocs-before.Mallocs)/n)
	const fps = 2000
	return b.perOp("workload.fingerprint_ns", fps, func() (float64, error) {
		t := time.Now()
		for i := 0; i < fps; i++ {
			_ = rep.Fingerprint()
		}
		return time.Since(t).Seconds(), nil
	})
}

// serving measures sweep, cache and jobq on the daemon workloads' grid:
// an in-process job manager cold-fills a cache dir, and the filled dir
// and the job's results feed the codec and cache measurements.
func (b *layerBench) serving(tmp string, tiny, served grid) error {
	// sweep: enumeration and spec building on the tiny-cells grid.
	tg, err := rmalocks.DecodeSweepGrid(tiny.wire())
	if err != nil {
		return err
	}
	var cells []rmalocks.SweepCell
	if err := b.perOp("sweep.enum_us_per_cell", tiny.Cells*1000, func() (float64, error) {
		t := time.Now()
		cells, err = tg.Cells()
		return time.Since(t).Seconds(), err
	}); err != nil {
		return err
	}
	if len(cells) != tiny.Cells {
		return fmt.Errorf("tiny-cells grid enumerates %d cells, want %d", len(cells), tiny.Cells)
	}
	if err := b.perOp("sweep.spec_ns", len(cells), func() (float64, error) {
		t := time.Now()
		for _, c := range cells {
			if _, err := c.Spec(); err != nil {
				return 0, err
			}
		}
		return time.Since(t).Seconds(), nil
	}); err != nil {
		return err
	}
	wire := served.wire()
	var sg rmalocks.SweepGrid
	if err := b.perOp("sweep.grid_codec_us", 1000, func() (float64, error) {
		t := time.Now()
		if sg, err = rmalocks.DecodeSweepGrid(wire); err != nil {
			return 0, err
		}
		_, err = rmalocks.EncodeSweepGrid(sg)
		return time.Since(t).Seconds(), err
	}); err != nil {
		return err
	}

	// jobq: one cold job fills the cache, then the same grid warm.
	dir, err := os.MkdirTemp(tmp, "layer-cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, _, err := rmalocks.OpenResultCache(dir, 0)
	if err != nil {
		return err
	}
	mgr := rmalocks.NewJobManager(rmalocks.JobConfig{MaxJobs: 1, Cache: rmalocks.NewSweepCellCache(store)})
	defer mgr.Shutdown()
	var results []rmalocks.SweepCellResult
	job := func() (float64, error) {
		t := time.Now()
		j, err := mgr.Submit(sg, jobLabel)
		if err != nil {
			return 0, err
		}
		<-j.Done()
		s := time.Since(t).Seconds()
		rf, err := mgr.Result(j.ID)
		results = rf.Cells
		return s, err
	}
	s, err := job()
	if err != nil {
		return err
	}
	b.res.set("jobq.cold_job_ms", s*1000)
	if err := b.perOp("jobq.warm_job_ms", 1_000_000, job); err != nil {
		return err
	}
	if len(results) != served.Cells {
		return fmt.Errorf("in-process job returned %d cells, want %d", len(results), served.Cells)
	}
	n := len(results)

	// sweep: the run-file codec on the job's real results.
	file := filepath.Join(tmp, "layer-run.json")
	if err := b.perOp("sweep.encode_us_per_cell", n*1000, func() (float64, error) {
		t := time.Now()
		err := rmalocks.SaveSweep(file, jobLabel, results)
		return time.Since(t).Seconds(), err
	}); err != nil {
		return err
	}
	if err := b.perOp("sweep.decode_us_per_cell", n*1000, func() (float64, error) {
		t := time.Now()
		_, err := rmalocks.LoadSweep(file)
		return time.Since(t).Seconds(), err
	}); err != nil {
		return err
	}

	// cache: the filled dir through the sweep engine's cache hook (Get
	// includes the result decode, as on the daemon's hit path).
	scells, err := sg.Cells()
	if err != nil {
		return err
	}
	getAll := func(c rmalocks.SweepCellCache) func() (float64, error) {
		return func() (float64, error) {
			t := time.Now()
			for _, cell := range scells {
				if _, ok := c.Get(cell.Input); !ok {
					return 0, fmt.Errorf("cache miss on filled dir for %s", cell.Key)
				}
			}
			return time.Since(t).Seconds(), nil
		}
	}
	if err := b.perOp("cache.get_mem_us", n*1000, getAll(rmalocks.NewSweepCellCache(store))); err != nil {
		return err
	}
	b.res.set("cache.bytes_per_entry", float64(store.Stats().Bytes)/float64(n))
	if err := b.perOp("cache.flush_ms", 1_000_000, func() (float64, error) {
		t := time.Now()
		err := store.Flush()
		return time.Since(t).Seconds(), err
	}); err != nil {
		return err
	}
	var disk *rmalocks.ResultCache
	if err := b.perOp("cache.open_us_per_entry", n*1000, func() (float64, error) {
		t := time.Now()
		c, report, err := rmalocks.OpenResultCache(dir, 1)
		if err == nil && report.Entries != n {
			err = fmt.Errorf("filled cache dir holds %d entries, want %d", report.Entries, n)
		}
		disk = c
		return time.Since(t).Seconds(), err
	}); err != nil {
		return err
	}
	// A one-byte budget keeps nothing resident: every Get reads a file.
	if err := b.perOp("cache.get_disk_us", n*1000, getAll(rmalocks.NewSweepCellCache(disk))); err != nil {
		return err
	}
	return b.perOp("cache.put_us", n*1000, func() (float64, error) {
		fresh, err := os.MkdirTemp(tmp, "layer-put-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(fresh)
		empty, _, err := rmalocks.OpenResultCache(fresh, 0)
		if err != nil {
			return 0, err
		}
		c := rmalocks.NewSweepCellCache(empty)
		t := time.Now()
		for i, cell := range scells {
			c.Put(cell.Input, results[i])
		}
		return time.Since(t).Seconds(), nil
	})
}

// measureLayers makes every in-process layer measurement.
func (e *env) measureLayers(res *result, rec *recorder, seed int64, smoke bool) error {
	b := &layerBench{res: res, rec: rec, trials: 5, div: 1}
	if smoke {
		b.trials, b.div = 2, 16
	}
	tiny, err := newWorkload("tiny-cells", seed, smoke)
	if err != nil {
		return err
	}
	b.group("sim", b.sim)
	b.group("rma", b.rma)
	b.group("locks", b.locks)
	b.group("workload", b.workload)
	b.group("sweep", func() error { return b.serving(e.tmp, tiny.Grid, sweepGrid(seed, smoke)) })
	return b.err
}
