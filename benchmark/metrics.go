package main

// metricDef names one reported metric; BENCHMARK.json lists the same
// names, units and directions (a test keeps the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics of the untraced run, each reported on every
// workload. A job is one grid handed to the system: a `workbench` child
// from start to exit for a local workload, submit to result bytes in
// hand for a daemon workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cells_per_s", "cells/s", "higher"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"job_p50_ms", "ms", "lower"},
}

// perLayer are the metrics of the traced run, named layer.metric.
func perLayer() []metricDef {
	var m []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			m = append(m, metricDef{n, unit, better})
		}
	}
	add("ns", "lower", "sim.advance_fast_ns", "sim.switch_ns", "sim.switch_p64_ns",
		"sim.barrier_ns_per_rank", "sim.spawn_ns_per_rank")
	add("us", "lower", "rma.machine_new_us")
	add("ns", "lower", "rma.machine_new_ns_per_rank", "rma.op_local_ns", "rma.op_remote_ns",
		"rma.op_contended_ns", "rma.spin_wake_ns")
	for _, s := range allSchemes {
		add("count", "lower", "rma.ops_per_acq."+s, "locks.remote_ops_per_acq."+s)
		add("us", "lower", "scheme.new_us."+s)
		add("ns", "lower", "locks.acq_host_ns."+s+".w")
	}
	for _, s := range rwSchemes {
		add("ns", "lower", "locks.acq_host_ns."+s+".r")
	}
	add("us", "lower", "workload.cell_us.tiny")
	add("B", "lower", "workload.alloc_bytes_per_cell")
	add("count", "lower", "workload.allocs_per_cell")
	add("ns", "lower", "workload.fingerprint_ns")
	add("ratio", "lower", "workload.phase_setup_share", "workload.phase_drain_share")
	add("ratio", "higher", "workload.phase_run_share")
	add("us", "lower", "sweep.enum_us_per_cell")
	add("ns", "lower", "sweep.spec_ns")
	add("us", "lower", "sweep.encode_us_per_cell", "sweep.decode_us_per_cell", "sweep.grid_codec_us")
	add("ns", "lower", "sweep.merge_ns")
	add("ratio", "higher", "sweep.worker_utilisation")
	add("us", "lower", "cache.get_mem_us", "cache.get_disk_us", "cache.put_us", "cache.open_us_per_entry")
	add("ms", "lower", "cache.flush_ms")
	add("B", "lower", "cache.bytes_per_entry")
	add("ratio", "higher", "cache.hit_ratio")
	add("ms", "lower", "jobq.warm_job_ms", "jobq.cold_job_ms", "jobq.job_p95_ms")
	add("ms", "lower", "http.post_jobs_ms", "http.events_ms", "http.status_ms", "http.result_ms",
		"http.metrics_scrape_ms")
	add("B", "lower", "http.result_bytes")
	add("ms", "lower", "proc.startup_ms", "proc.daemon_ready_ms", "proc.daemon_warm_restart_ms",
		"proc.drain_ms", "proc.submit_cli_ms")
	add("%", "lower", "trace_overhead_pct")
	return m
}
