GO ?= go

# Sweep shape of `make sweep`. The results of this grid and of
# FAULT_FLAGS' are pinned per cell by internal/sweep's
# TestGoldenFingerprints, which spells the same two grids out: change
# them together. Two run files of one grid are cmp-equal.
SWEEP_FLAGS = -profiles uniform,zipf,bursty,sweep -ps 16,32,64

# Fault-injection sweep shape of `make faults`. Two fault axes: a
# perturbation-only profile every scheme runs, and a stall profile with
# bounded acquires that projects onto the CapTimeout schemes.
FAULT_FLAGS = -profiles uniform,zipf -ps 16,64 \
	-faults 'jitter=0.2,stragglers=4x5%,stall=50us@0.02' \
	-faults 'stall=100us@0.05,timeout=200us'

.PHONY: help build test fmt-check portable race bench bench-trajectory bench-smoke million-smoke scale grid sweep faults trace obs-smoke sweepd-smoke paramspace faulttour clean

help:
	@echo "rmalocks targets:"
	@echo "  build / test / race    compile everything, run the test suite (+ -race)"
	@echo "  fmt-check              fail if gofmt would change any file"
	@echo "  portable               cross-build; fail on a fused multiply-add in rmalocks code"
	@echo "  bench / bench-smoke    benchstat-compatible benchmarks (full / CI-short)"
	@echo "  grid                   full scheme x workload x profile grid with -check"
	@echo "  sweep / faults         persist the P-sweep / fault-injection run as JSON"
	@echo "  trace                  capture a Perfetto-loadable event trace, print its analysis"
	@echo "  obs-smoke              sweep with the HTTP observability plane, scrape it"
	@echo "  sweepd-smoke           sweep-as-a-service end-to-end: cache hits + byte-identity"
	@echo "  million-smoke / scale  2^20-rank cell / weak-scaling study"
	@echo "  paramspace / faulttour example tours (parameter space, degradation)"
	@echo ""
	@echo "Sweep service (cmd/sweepd): run sweeps remotely with a persistent"
	@echo "content-addressed result cache — resubmitting a grid with one changed"
	@echo "axis recomputes only the dirtied cells:"
	@echo ""
	@echo "  go run ./cmd/sweepd -listen 127.0.0.1:9139 -cache-dir results/cache &"
	@echo "  go run ./cmd/workbench -submit 127.0.0.1:9139 -schemes D-MCS,RMA-RW \\"
	@echo "      -profiles uniform,zipf -ps 16,32 -out results/remote.json"
	@echo "  curl -s http://127.0.0.1:9139/metrics | grep sweepd_cache_"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# gofmt -l prints the files it would rewrite; any name is a failure.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt would rewrite:"; echo "$$out"; exit 1; fi

# Results are a pure function of the grid on every platform only if no
# compiler fuses x*y + z into one multiply-add, which rounds once instead
# of twice. The Go compilers for these three architectures do, unless
# the product is converted with float64(...). This target cross-builds
# both commands for each and fails on any fused multiply-add mnemonic
# (FMADD, FMSUB, FNMADD, FNMSUB and their suffixed forms) in a rmalocks/
# function, naming the source line. On a 2-core box: ≈80 s from an
# empty build cache (three standard libraries), ≈3 s warm.
PORTABLE_ARCHS = arm64 ppc64le riscv64

portable:
	@mkdir -p results/portable
	@fused=0; for arch in $(PORTABLE_ARCHS); do for cmd in workbench sweepd; do \
		bin=results/portable/$$cmd-$$arch; \
		GOARCH=$$arch $(GO) build -o $$bin ./cmd/$$cmd || exit 1; \
		out=$$($(GO) tool objdump -s '^rmalocks/' $$bin | \
			grep -E '[[:space:]]FN?M(ADD|SUB)[A-Z]*[[:space:]]'); \
		if [ -n "$$out" ]; then echo "$$out" | sed "s|^|$$arch $$cmd: |"; fused=1; fi; \
	done; done; \
	if [ $$fused -ne 0 ]; then echo "portable: fused multiply-adds above; round the product with float64(...)"; exit 1; fi
	@echo "portable: no fused multiply-add in rmalocks code on $(PORTABLE_ARCHS)"

# Benchmarks are benchstat-compatible: `make bench`, change code,
# `make bench` again, then `benchstat` the two results/bench.txt copies.
# Re-running bench never touches the persisted trajectory files — mint
# one explicitly with `make bench-trajectory` (once per perf PR).
# Redirect-then-cat instead of `| tee`: a pipe would mask a failing
# benchmark behind tee's exit status and persist a truncated trajectory.
bench:
	@mkdir -p results
	$(GO) test -run '^$$' -bench . -benchmem ./... > results/bench.txt
	@cat results/bench.txt

# Persist the machine-readable trajectory BENCH_<n>.json (ns/op +
# allocs/op for the scheduler, harness and sweep benchmarks; schema in
# DESIGN.md): benchjson -auto numbers the file one past the highest
# existing index, so every perf PR grows the trajectory set without
# hardcoding the next number. Run once per PR, after `make bench`.
bench-trajectory: bench
	$(GO) run ./cmd/benchjson -auto -in results/bench.txt \
		-packages internal/sim,internal/workload,internal/sweep,internal/scheme

# Short bench pass over the perf-critical packages only; CI's bench-smoke
# job runs this and uploads both files as an artifact. The recorded PR
# number is derived from the repository's trajectory files (next index).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 100x \
		./internal/sim/... ./internal/workload/ ./internal/sweep/ ./internal/scheme/ \
		> bench-smoke.txt
	@cat bench-smoke.txt
	$(GO) run ./cmd/benchjson -in bench-smoke.txt -out bench-smoke.json

# Million-rank smoke: one 2^20-rank cell through the memory-flat core.
# The uniform profile with fw=1/locks=1 draws no per-rank randomness, so
# the run allocates zero lazy RNGs; RMA-MCS is the O(P)-total-ops queue
# lock, so the event budget stays linear in P. The -metrics-out snapshot
# carries the process's heap and sys bytes (goroutine stacks dominate
# the latter), printed per rank; the run's one cell has the process to
# itself.
#
# Then Figure 6's largest cell at the paper's scale: the DHT benchmark
# (dhtvol, F_W=20%, 20 operations per rank) at P=1024 under its three
# schemes. Its one hashtable volume lives on rank 0 alone; the target
# fails if the process heap at the end of the run exceeds FIG6_HEAP_MAX
# (≈19MB is measured; a volume on every rank made ≈800MB).
MILLION_P = 1048576
FIG6_P = 1024
FIG6_HEAP_MAX = 67108864
million-smoke:
	@mkdir -p results
	$(GO) run ./cmd/workbench -schemes RMA-MCS -workloads empty \
		-profiles uniform -fw 1 -locks 1 -ps $(MILLION_P) -iters 1 \
		-metrics-out results/million-metrics.json
	grep -Eq '"process_heap_bytes": [1-9]' results/million-metrics.json
	grep -Eq '"process_sys_bytes": [1-9]' results/million-metrics.json
	@$(call PER_RANK,results/million-metrics.json,$(MILLION_P))
	$(GO) run ./cmd/workbench -schemes foMPI-A,foMPI-RW,RMA-RW -workloads dhtvol \
		-profiles uniform -fw 0.2 -locks 1 -ps $(FIG6_P) -iters 20 \
		-metrics-out results/fig6-metrics.json
	@$(call PER_RANK,results/fig6-metrics.json,$(FIG6_P))
	@heap=$$(awk '/"process_heap_bytes"/ { gsub(/[^0-9]/, ""); print }' results/fig6-metrics.json); \
	if [ -z "$$heap" ] || [ "$$heap" -gt $(FIG6_HEAP_MAX) ]; then \
		echo "million-smoke: Figure 6 at P=$(FIG6_P) left process_heap_bytes '$$heap', over $(FIG6_HEAP_MAX)"; exit 1; fi; \
	echo "million-smoke: Figure 6 at P=$(FIG6_P): process_heap_bytes $$heap <= $(FIG6_HEAP_MAX)"

# PER_RANK prints a -metrics-out snapshot's host memory gauges ($(1))
# divided by the run's rank count ($(2)).
PER_RANK = awk -v p=$(2) '/"process_(heap|sys)_bytes"/ { gsub(/[ ",:]+/, " "); \
	printf "  P=%d %s per rank: %.1f B\n", p, $$1, $$2 / p }' $(1)

# Weak-scaling study for the memory-flat core: P from 2^10 to 2^20 on
# the empty workload (pure lock handoff traffic), one workbench process
# per P so that no other cell shares the process whose heap and sys
# bytes per rank it prints. A run file holds simulation results only:
# each results/scale-<P>.json is a function of the grid, so a second run
# is cmp-equal, which the target checks at P <= 65536.
SCALE_PS = 1024 4096 16384 65536 262144 1048576
SCALE_CMP_PS = 1024 4096 16384 65536
SCALE_GRID = -schemes RMA-MCS -workloads empty -profiles uniform -fw 1 -locks 1 -iters 1
scale:
	@mkdir -p results
	$(GO) build -o results/workbench-scale ./cmd/workbench
	@set -e; rm -f results/scale.txt; \
	for p in $(SCALE_PS); do \
		./results/workbench-scale $(SCALE_GRID) -ps $$p -out results/scale-$$p.json \
			-metrics-out results/scale-$$p.metrics.json >> results/scale.txt; \
		$(call PER_RANK,results/scale-$$p.metrics.json,$$p) >> results/scale.txt; \
	done; \
	for p in $(SCALE_CMP_PS); do \
		./results/workbench-scale $(SCALE_GRID) -ps $$p -out results/scale-$$p.again.json \
			> /dev/null; \
		cmp results/scale-$$p.json results/scale-$$p.again.json; \
	done
	@cat results/scale.txt

# One full scheme × workload × profile grid with reproducibility check.
# Redirect-then-cat instead of `| tee`: a pipe would mask a failing
# -check behind tee's exit status.
grid:
	@mkdir -p results
	$(GO) run ./cmd/workbench -profiles uniform,zipf,bursty,sweep -check > results/grid.txt
	@cat results/grid.txt

# P-sweep across the grid, persisted as results/sweep.json.
sweep:
	@mkdir -p results
	$(GO) run ./cmd/workbench $(SWEEP_FLAGS) -out results/sweep.json > results/sweep.txt
	@cat results/sweep.txt

# Fault-injection sweep with reproducibility check, persisted as
# results/faults.json (fault-free sibling cells + derived p99/p999
# inflation metrics).
faults:
	@mkdir -p results
	$(GO) run ./cmd/workbench $(FAULT_FLAGS) -check -out results/faults.json > results/faults.txt
	@cat results/faults.txt

# Capture an event trace of one contended cell per scheme pair
# (Perfetto-loadable Chrome JSON under results/). workbench prints each
# traced cell's analysis to stderr: Jain fairness, handoff-locality
# histogram, wait tails, hottest locks, op counts. The target fails
# unless both cells' analyses were printed.
trace:
	@mkdir -p results
	$(GO) run ./cmd/workbench -schemes RMA-MCS,D-MCS -workloads empty \
		-profiles uniform -p 32 -iters 40 -fw 1 -trace results/trace.json \
		2> results/trace.err || { cat results/trace.err; exit 1; }
	@cat results/trace.err
	test "$$(grep -c '^handoff locality' results/trace.err)" -eq 2

# Observability smoke: run a sweep with the HTTP plane listening, scrape
# /metrics (until the first cell's run span has closed) and /progress
# mid-run, then check the scrape and the merged snapshot side channel
# both carry the harness's instruments (the per-cycle iteration counter
# and the run phase span), and that the snapshot's counter is exact:
# every rank of a cell adds 1 per measured cycle (warm-up cycles are
# not counted) and the grid has no tunables, so no cell derives. Its
# 2 schemes x 2 profiles x P in {128, 256} x 120 iters make
# sum P*Iters = 4 x (128 + 256) x 120 = 184320. The grid is sized to
# run for a few seconds so the scrape lands mid-run. CI's obs-smoke job
# runs this plus the fast-path allocation guard.
OBS_ADDR = 127.0.0.1:9137

obs-smoke:
	@mkdir -p results
	$(GO) build -o results/workbench-obs ./cmd/workbench
	@set -e; \
	./results/workbench-obs -schemes RMA-MCS,foMPI-Spin -workloads empty \
		-profiles uniform,zipf -ps 128,256 -iters 120 \
		-listen $(OBS_ADDR) -metrics-out results/obs-metrics.json \
		> results/obs-smoke.txt 2> results/obs-smoke.err & \
	pid=$$!; ok=0; \
	for i in $$(seq 1 100); do \
		if curl -sf http://$(OBS_ADDR)/metrics -o results/obs-scrape.prom && \
			grep -q '^obs_phase_wall_ns_total{phase="run"} ' results/obs-scrape.prom; then ok=1; break; fi; \
		sleep 0.05; \
	done; \
	if [ $$ok -ne 1 ]; then \
		echo "obs-smoke: /metrics never showed a finished cell"; \
		kill $$pid 2>/dev/null; cat results/obs-smoke.err; exit 1; \
	fi; \
	curl -sf http://$(OBS_ADDR)/progress -o results/obs-progress.ndjson; \
	wait $$pid
	@cat results/obs-smoke.txt
	grep -q '^cell_iters_done_total ' results/obs-scrape.prom
	grep -q '^obs_phase_wall_ns_total{phase="run"} ' results/obs-scrape.prom
	grep -q '"summary":true' results/obs-progress.ndjson
	grep -Eq '"cell_iters_done_total": 184320,?$$' results/obs-metrics.json
	@echo "obs-smoke: OK —$$(grep 'cell_iters_done_total' results/obs-metrics.json | tr -d ',')"

# Sweep-service smoke: start sweepd on a fresh cache, submit a 4-cell
# grid through the workbench client, resubmit with one changed tunables
# axis (-tune TR=900 applies only to RMA-RW; the two d-MCS cells are
# untouched), resubmit the first grid unchanged, then the tuned grid
# again. Asserts from /metrics that exactly the unchanged cells hit the
# cache (2 of each tuned job, 4 of the repeat, 8 of the warm fault job;
# 4 + 2 + 2 + 8 missed), that
# each tuned job's two RMA-RW misses were derived from the cold job's
# stored entries, whose witnesses admit T_R = 900 (no counter gets near
# it at this size) — derived cells are never stored, so the second tuned
# job derives them again and the cache holds only the two cold jobs'
# 4 + 8 entry files — and that the daemon's result files, stored fragments
# spliced by sweep.Encode, are cmp-equal to direct local workbench runs'
# files. The finished cold and warm jobs' events, whose keys and
# fingerprints a done job reads back from its fragments, still hold
# every cell: four that ran, with their elapsed times, and four cache
# hits. The same grid with a fault axis (SWEEPD_FAULTS) is posted cold
# and then warm: each result file is cmp-equal to a local run's, and the
# finished cold job's events carry every fingerprint its result holds,
# the degradation join's included. A grid with an entry no scheme of it
# takes (SWEEPD_REJECT) is refused with 400 before a job exists. The
# final `kill` exercises graceful shutdown: the daemon must drain and
# exit 0.
SWEEPD_ADDR = 127.0.0.1:9139
SWEEPD_GRID = -schemes D-MCS,RMA-RW -workloads empty -profiles uniform,zipf \
	-ps 16 -iters 20 -locks 4
# SWEEPD_GRID's fault axis: a profile every scheme of it can run, next
# to the fault-free baseline, so 8 cells.
SWEEPD_FAULTS = -faults 'jitter=0.2,stall=50us@0.01'
# SWEEPD_GRID's shape with D-MCS alone and a TR axis, which no scheme of
# it takes: the daemon answers 400 naming TR and mints no job.
SWEEPD_REJECT = {"schemes":["D-MCS"],"workloads":["empty"],"profiles":["uniform","zipf"],"ps":[16],"iters":20,"locks":4,"tunables":[{"key":"TR","values":[900]}]}

sweepd-smoke:
	@mkdir -p results
	$(GO) build -o results/sweepd ./cmd/sweepd
	$(GO) build -o results/workbench-sweepd ./cmd/workbench
	rm -rf results/sweepd-cache
	./results/workbench-sweepd $(SWEEPD_GRID) -out results/sweepd-local.json \
		> results/sweepd-local.txt
	./results/workbench-sweepd $(SWEEPD_GRID) -tune TR=900 -out results/sweepd-tuned-local.json \
		> results/sweepd-tuned-local.txt
	./results/workbench-sweepd $(SWEEPD_GRID) $(SWEEPD_FAULTS) -out results/sweepd-faults-local.json \
		> results/sweepd-faults-local.txt
	@set -e; \
	./results/sweepd -listen $(SWEEPD_ADDR) -cache-dir results/sweepd-cache \
		2> results/sweepd.err & \
	pid=$$!; ok=0; \
	for i in $$(seq 1 100); do \
		if curl -sf http://$(SWEEPD_ADDR)/metrics -o /dev/null; then ok=1; break; fi; \
		sleep 0.05; \
	done; \
	if [ $$ok -ne 1 ]; then \
		echo "sweepd-smoke: daemon never came up"; \
		kill $$pid 2>/dev/null; cat results/sweepd.err; exit 1; \
	fi; \
	./results/workbench-sweepd -submit $(SWEEPD_ADDR) $(SWEEPD_GRID) \
		-out results/sweepd-cold.json \
		> results/sweepd-cold.txt 2> results/sweepd-cold.err; \
	./results/workbench-sweepd -submit $(SWEEPD_ADDR) $(SWEEPD_GRID) -tune TR=900 \
		-out results/sweepd-tuned.json \
		> results/sweepd-tuned.txt 2> results/sweepd-tuned.err; \
	./results/workbench-sweepd -submit $(SWEEPD_ADDR) $(SWEEPD_GRID) \
		-out results/sweepd-warm.json \
		> results/sweepd-warm.txt 2> results/sweepd-warm.err; \
	./results/workbench-sweepd -submit $(SWEEPD_ADDR) $(SWEEPD_GRID) -tune TR=900 \
		-out results/sweepd-tuned2.json \
		> results/sweepd-tuned2.txt 2> results/sweepd-tuned2.err; \
	./results/workbench-sweepd -submit $(SWEEPD_ADDR) $(SWEEPD_GRID) $(SWEEPD_FAULTS) \
		-out results/sweepd-faults-cold.json \
		> results/sweepd-faults-cold.txt 2> results/sweepd-faults-cold.err; \
	./results/workbench-sweepd -submit $(SWEEPD_ADDR) $(SWEEPD_GRID) $(SWEEPD_FAULTS) \
		-out results/sweepd-faults-warm.json \
		> results/sweepd-faults-warm.txt 2> results/sweepd-faults-warm.err; \
	curl -s -o results/sweepd-reject.json -w '%{http_code}' -d '$(SWEEPD_REJECT)' \
		http://$(SWEEPD_ADDR)/jobs > results/sweepd-reject.code; \
	curl -sf http://$(SWEEPD_ADDR)/jobs -o results/sweepd-jobs.json; \
	curl -sf http://$(SWEEPD_ADDR)/jobs/job-1/result -o results/sweepd-cold-again.json; \
	curl -sf http://$(SWEEPD_ADDR)/jobs/job-1/events -o results/sweepd-cold-events.ndjson; \
	curl -sf http://$(SWEEPD_ADDR)/jobs/job-3/events -o results/sweepd-warm-events.ndjson; \
	curl -sf http://$(SWEEPD_ADDR)/jobs/job-5/events -o results/sweepd-faults-events.ndjson; \
	curl -sf http://$(SWEEPD_ADDR)/metrics -o results/sweepd-scrape.prom; \
	kill $$pid; wait $$pid
	grep -q '^sweepd_cache_hits_total 16$$' results/sweepd-scrape.prom
	grep -q '^sweepd_cache_misses_total 12$$' results/sweepd-scrape.prom
	grep -q '^sweepd_cache_corrupt_total 0$$' results/sweepd-scrape.prom
	grep -q '^sweepd_cache_derived_total 4$$' results/sweepd-scrape.prom
	grep -q '2 served from cache' results/sweepd-tuned.err
	grep -q '4 served from cache' results/sweepd-warm.err
	grep -q '2 served from cache' results/sweepd-tuned2.err
	grep -q '; 0 served from cache' results/sweepd-faults-cold.err
	grep -q '8 served from cache' results/sweepd-faults-warm.err
	test "$$(ls results/sweepd-cache | grep -v '^index.json$$' | wc -l)" -eq 12
	test "$$(cat results/sweepd-reject.code)" -eq 400
	grep -q '\\"TR\\"' results/sweepd-reject.json
	test "$$(grep -o '"id":' results/sweepd-jobs.json | wc -l)" -eq 6
	cmp results/sweepd-cold.json results/sweepd-local.json
	cmp results/sweepd-cold-again.json results/sweepd-local.json
	cmp results/sweepd-tuned.json results/sweepd-tuned-local.json
	cmp results/sweepd-warm.json results/sweepd-local.json
	cmp results/sweepd-tuned2.json results/sweepd-tuned-local.json
	cmp results/sweepd-faults-cold.json results/sweepd-faults-local.json
	cmp results/sweepd-faults-warm.json results/sweepd-faults-local.json
	test "$$(grep -c '^{"cell":' results/sweepd-cold-events.ndjson)" -eq 4
	test "$$(grep -c '^{"cell":"[^"]*","state":"done","fingerprint":".*","elapsed_ms":' results/sweepd-cold-events.ndjson)" -eq 4
	test "$$(grep -c '^{"cell":' results/sweepd-warm-events.ndjson)" -eq 4
	test "$$(grep -c '^{"cell":"[^"]*","state":"cached","fingerprint":".*"}$$' results/sweepd-warm-events.ndjson)" -eq 4
	sed -n 's/^ *"fingerprint": "\(.*\)"$$/\1/p' results/sweepd-faults-cold.json > results/sweepd-faults-fps.txt
	test "$$(wc -l < results/sweepd-faults-fps.txt)" -eq 8
	test "$$(grep -c '^{"cell":' results/sweepd-faults-events.ndjson)" -eq 8
	@while IFS= read -r fp; do \
		grep -qF "\"fingerprint\":\"$$fp\"" results/sweepd-faults-events.ndjson || \
			{ echo "sweepd-smoke: the cold fault job's events lack its result's fingerprint $$fp"; exit 1; }; \
	done < results/sweepd-faults-fps.txt
	@echo "sweepd-smoke: OK — cold, tuned, all-cached and re-tuned result files cmp-equal to the local runs', and so is the cold job's result fetched again after the three later jobs; the finished cold and warm jobs' events list their 4 cells as run and as cached; the cold and warm fault-axis jobs' result files cmp-equal to the local run's, and the cold one's events carry all 8 of its result's fingerprints; each tuned job reused the 2 unchanged d-MCS cells and derived the 2 RMA-RW cells from stored siblings, and the cache holds only the two cold jobs' 4 + 8 entries; a grid with TR on D-MCS alone was refused with 400 and minted no job"

# The paper's parameter-space slice (scheme registry + tunables axis);
# its test runs both this grid and the -smoke one.
paramspace:
	$(GO) run ./examples/paramspace

# Graceful vs pathological degradation under the same stall profile
# (bounded spinlock vs convoying MCS queue); CI runs the -smoke variant.
faulttour:
	$(GO) run ./examples/faulttour

clean:
	rm -rf results bench-smoke.txt bench-smoke.json
	$(GO) clean ./...
