# Convenience targets; everything is plain `go` underneath.

.PHONY: all build vet lint fmt-check vulncheck test test-short test-race test-simdebug fuzz-short differential-smoke ci golden-fig8 golden-figures cli-smoke faults-smoke serve-smoke chaos-smoke bench bench-smoke bench-gate figures examples clean

all: build vet lint test

build:
	go build ./...

vet:
	go vet ./...

# Static-analysis suite: the custom pimlint analyzers — determinism,
# hot-path and liveness invariants, the concurrency disciplines
# (ctxflow, goorphan) and durability errors (errsink), see
# docs/DETERMINISM.md — plus go vet
# and a gofmt cleanliness check. pimlint has one mode: the tree is
# loaded once, test files included, and every analyzer runs over it;
# `go test ./cmd/pimlint` holds the same zero-finding state. Any
# finding fails the target. Pass findings to tooling with
# `go run ./cmd/pimlint -json`.
lint: fmt-check vet
	go run ./cmd/pimlint ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Known-vulnerability scan. govulncheck needs a vulnerability database,
# so this runs only where the tool is installed (CI installs it); the
# guard keeps offline development machines green.
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vulncheck: govulncheck not installed; skipping"; fi

test:
	go test ./...

test-short:
	go test -short ./...

test-race:
	go test -race -short ./...

# Runtime assertions (internal/invariant) compile in only under the
# simdebug tag; this runs the deterministic core's tests with them hot.
test-simdebug:
	go test -tags simdebug ./internal/...

# A few seconds of coverage-guided fuzzing on the address-map
# round-trip invariants, on the tick/event engine equivalence contract,
# on journal recovery (arbitrary bytes after a header must scan, and
# take an append, without losing a record), on the pimserve store's
# replay (no unverified record served, every dropped line counted) and
# on pimserve's request canonicalization (no panic, a valid config, a
# stable digest, a bypass cap in the digest only when the policy reads
# it); regressions found here become corpus seeds. Store inputs are whole
# records on disk, so each new one is minimized for 200 runs rather
# than the default minute, which would eat the whole budget.
fuzz-short:
	go test -run '^$$' -fuzz FuzzAddrMap -fuzztime 10s ./internal/addrmap/
	go test -run '^$$' -fuzz FuzzNextEvent -fuzztime 30s ./internal/sim/
	go test -run '^$$' -fuzz FuzzJournalScan -fuzztime 10s ./internal/journal/
	go test -run '^$$' -fuzz FuzzStoreReplay -fuzztime 10s -fuzzminimizetime 200x ./internal/serve/store/
	go test -run '^$$' -fuzz FuzzCanonicalize -fuzztime 10s ./internal/serve/

# Differential gate for the skip-ahead engine: the every-cycle and
# skipping schedules must produce bit-identical result digests,
# telemetry counters and epoch series over the workload matrix — and,
# cycle by cycle, the same L2 LRU clocks under parked intakes
# (TestParkedIntakeKeepsLRUClock) — plus the per-component NextEvent
# property tests (the throttle-window closed form in internal/faults and
# the crossbar's reference-arbiter twin, TestNextEventReferenceArbiter in
# internal/noc, included), the reference twins of the two closed forms
# that replaced per-cycle work (the DRAM activity loop in internal/dram,
# its lockstep-op credit included, and the presented-retries LRU clock in
# internal/cache), the reference twins of the three kept per-bank answers
# (the FR-FCFS candidate scan in internal/memctrl, the lockstep bank walk
# in internal/dram, the response calendar's occupancy bits in
# internal/sim), the unpacked-line reference model of the 16-byte-line
# cache slice (TestSliceMatchesReferenceModel in internal/cache), the
# per-bank reference model of the channel's lockstep floors and kept
# all-bank answers (TestChannelMatchesPerBankModel in internal/dram) and
# the 2x2 engine/fault determinism check.
differential-smoke:
	go test -run 'TestDifferentialTickVsEvent|TestDeterminism2x2Engines|TestParkedIntakeKeepsLRUClock|TestOracleNeverSkips|TestResponseCalendarMatchesRingScan' -count=1 -v ./internal/sim/
	go test -run 'TestNextEvent|TestScanMEMMatchesReference|TestColumnCadenceAnchors' -count=1 ./internal/noc/ ./internal/memctrl/ ./internal/gpu/ ./internal/faults/
	go test -run 'TestActivityMatchesReferenceLoop|TestLockstepCreditMatchesReferenceLoop|TestPIMOpAtMatchesBankWalk|TestChannelMatchesPerBankModel|TestCreditedRetriesKeepTheVictim|TestSliceMatchesReferenceModel' -count=1 ./internal/dram/ ./internal/cache/

# Mirror of .github/workflows/ci.yml: lint (gofmt + vet + pimlint),
# build, full tests, race-shortened tests, simdebug assertions, short
# fuzzing, the two golden-figure checks, the pim subcommand smoke, the
# example programs, the fault-injection campaign smoke, the pimserve load/serve and chaos
# gates, the benchmark crash smoke and the pimbench allocation gate.
ci: lint build test test-race test-simdebug fuzz-short differential-smoke golden-fig8 golden-figures cli-smoke examples faults-smoke serve-smoke chaos-smoke bench-smoke bench-gate

# Regenerate Fig. 8 over all 180 combinations at scale 0.2 and
# byte-compare against the golden, like golden-figures below (the
# simulator is deterministic; any difference is model drift).
golden-fig8:
	go run ./cmd/pim sweep -fig 8 -all -scale 0.2 \
		-policies fr-fcfs,fr-rr-fcfs,gather-issue,f3fs | grep -v '^(' > /tmp/fig8_ci.txt
	diff testdata/golden/fig8_all180.txt /tmp/fig8_ci.txt

# Regenerate every registry figure at the quick scale and byte-compare
# against the golden (the timing trailer, the one line starting with
# "(", is dropped). The simulator is deterministic, so any difference is
# a behaviour change in the model or in a figure's reduction.
golden-figures:
	go run ./cmd/pim sweep -fig all | grep -v '^(' > /tmp/figures_ci.txt
	diff testdata/golden/figures_quick.txt /tmp/figures_ci.txt

# Build pim once and run every subcommand at tiny scale: run with a
# telemetry capture and profiles (the capture must carry the metric points
# a run publishes when it ends), run under a fault schedule (its capture
# must carry the per-channel fault counts), timeline on the first capture,
# trace diffed against its golden (a window holding every event kind the
# default configuration emits; the simulator is deterministic, so any
# difference is a change in the model or in the rendering), a journaled
# sweep, a study sweep whose captures must not overwrite each other (5 CAP
# points x (3x2 pairs + the LLM cell) = 35 files), and plot, whose figure
# files and per-pair exports (competitive.csv, competitive.json) are
# diffed against their goldens in testdata/golden/plot/.
CLI_SMOKE := /tmp/pim_cli_smoke
cli-smoke:
	go build -o $(CLI_SMOKE).bin ./cmd/pim
	rm -rf $(CLI_SMOKE) && mkdir -p $(CLI_SMOKE)
	$(CLI_SMOKE).bin run -scale 0.05 -telemetry-out $(CLI_SMOKE)/cap.jsonl -pprof $(CLI_SMOKE)/prof
	test -s $(CLI_SMOKE)/prof/cpu.pprof -a -s $(CLI_SMOKE)/prof/heap.pprof
	grep -q '"name":"mc0/drain_latency"' $(CLI_SMOKE)/cap.jsonl
	grep -q '"name":"noc/injected"' $(CLI_SMOKE)/cap.jsonl
	$(CLI_SMOKE).bin run -scale 0.05 -faults "seed=7,dram=0.002:12,noc=0.001:24,throttle=40000:2000" \
		-telemetry-out $(CLI_SMOKE)/faults.jsonl > /dev/null
	grep -q '"name":"mc0/ecc_retries"' $(CLI_SMOKE)/faults.jsonl
	$(CLI_SMOKE).bin timeline -in $(CLI_SMOKE)/cap.jsonl | grep -q '^cycle,mem_rate'
	$(CLI_SMOKE).bin timeline -scale 0.05 > /dev/null
	$(CLI_SMOKE).bin trace -channel 3 -policy fr-fcfs -vc 1 -events 2000 > $(CLI_SMOKE)/trace.txt
	diff testdata/golden/trace_quick.txt $(CLI_SMOKE)/trace.txt
	$(CLI_SMOKE).bin sweep -fig 8 -scale 0.1 -policies f3fs -journal $(CLI_SMOKE)/sweep.jsonl
	test -s $(CLI_SMOKE)/sweep.jsonl
	$(CLI_SMOKE).bin sweep -fig cap -scale 0.05 -telemetry-out $(CLI_SMOKE)/study > /dev/null
	test $$(find $(CLI_SMOKE)/study -name '*.jsonl' | wc -l) -eq 35
	$(CLI_SMOKE).bin plot -out $(CLI_SMOKE)/plot -scale 0.05 -policies f3fs
	test -s $(CLI_SMOKE)/plot/competitive.json
	for f in fig8.svg fig11.svg collaborative.csv characterization.csv competitive.csv competitive.json; do \
		diff testdata/golden/plot/$$f $(CLI_SMOKE)/plot/$$f || exit 1; done
	@echo "cli-smoke: every subcommand OK"

# Hardened-campaign smoke: a tiny campaign under fault injection,
# resumed across processes — a subset invocation, then the full one,
# which must find the subset's pairs in the journal, then a third with
# nothing left to do. The append-only journal must end as its header
# plus one line per pair, never a pair twice. (Mid-flight cancel and
# quarantine are covered in-process by TestSweepCancelAndResume and
# TestSweepQuarantinesFailedPairs.)
FAULTS_SMOKE := /tmp/pim_faults_smoke campaign -out /tmp/faults_smoke_campaign -scale 0.1 \
	-gpus G8 -pims P1,P2 -parallel 2 -run-timeout 5m \
	-faults "seed=7,dram=0.002:12,noc=0.001:24,throttle=40000:2000"
faults-smoke:
	go build -o /tmp/pim_faults_smoke ./cmd/pim
	rm -rf /tmp/faults_smoke_campaign
	$(FAULTS_SMOKE) -policies fcfs
	test -s /tmp/faults_smoke_campaign/journal.jsonl
	$(FAULTS_SMOKE) -policies fcfs,f3fs | grep "to run, [1-9][0-9]* already done"
	$(FAULTS_SMOKE) -policies fcfs,f3fs | grep -q "0 combinations to run"
	test $$(ls /tmp/faults_smoke_campaign/*_VC?.json | wc -l) -eq 8
	test $$(wc -l < /tmp/faults_smoke_campaign/journal.jsonl) -eq 9
	@echo "faults-smoke: resume cycle OK"

# Load/serve gate for pimserve (docs/ARCHITECTURE.md, "Serving:
# pimserve"): build the daemon and load generator, then run the
# in-process smoke — boot the server on loopback, fire the short mixed
# hot/cold/priority load profile under the race detector, and assert no
# failed requests, byte-identical responses per digest across cache hits
# and misses, a >= 0.90 cache hit rate on the 95%-duplicate stream, and
# no goroutine leaks after graceful shutdown. The hard two-minute timeout
# turns a lock-order or shutdown deadlock the concurrency analyzers
# missed into a fast failure with a goroutine dump instead of a hung job.
serve-smoke:
	go build ./cmd/pimserve ./cmd/pimload
	go test -race -count=1 -timeout 120s -v -run 'TestServeSmoke' ./internal/serve/

# Chaos-recovery gate for the persistent store (docs/ARCHITECTURE.md,
# "Persistence & degraded mode"): build the real daemon, serve a load
# with persistence on, SIGKILL it with jobs in flight, corrupt the
# journal tail on top, restart over the same directory, and assert
# every accepted response comes back byte-identical from the warm
# cache with the damage skipped and counted — never fatal, and never a
# degraded store.
chaos-smoke:
	go build -o /tmp/pimserve_chaos ./cmd/pimserve
	PIMSERVE_BIN=/tmp/pimserve_chaos go test -race -count=1 -v -run 'TestChaosRecovery' ./internal/serve/

# One sub-benchmark per registry figure (bench_test.go). The repository's
# performance benchmark is `go run ./bench/cmd/pimbench` (BENCHMARK.json).
bench:
	go test -bench=. -benchmem -run XXX .

# Crash smoke: every figure benchmark and every layer benchmark (crossbar,
# sim drain loops, controller, DRAM channel) runs once.
bench-smoke:
	go test -run '^$$' -bench . -benchtime 1x . ./internal/noc/ ./internal/sim/ ./internal/memctrl/ ./internal/dram/

# Allocation gate: run every pimbench workload once at seed 1 — the
# three simulator workloads and serve_mixed, whose allocation rows count
# what a cached answer costs — and compare with the committed record.
# Only the host-independent rows gate — allocs_per_cell and
# alloc_kb_per_cell (4 % bounds) and failed_share; the time and RSS rows
# are printed for the log and judged by nobody until a runner is shown
# to be quiet enough. Refresh the record with the same four -record runs
# when a change moves allocations on purpose.
BENCH_GATE_BASELINE := testdata/bench/alloc_baseline.jsonl
bench-gate:
	go build -o /tmp/pimbench_gate ./bench/cmd/pimbench
	rm -f /tmp/pimbench_gate.jsonl
	for w in coexec_saturated standalone_sparse pim_lockstep serve_mixed; do \
		/tmp/pimbench_gate -workload $$w -seed 1 -record /tmp/pimbench_gate.jsonl > /dev/null || exit 1; done
	/tmp/pimbench_gate -compare $(BENCH_GATE_BASELINE) /tmp/pimbench_gate.jsonl > /tmp/pimbench_gate.txt; \
		rc=$$?; cat /tmp/pimbench_gate.txt; test $$rc -le 1
	@if awk '($$2 == "allocs_per_cell" || $$2 == "alloc_kb_per_cell" || $$2 == "failed_share") && $$NF == "worse"' \
		/tmp/pimbench_gate.txt | grep .; then echo "bench-gate: allocation or failure regression (rows above)"; exit 1; fi
	@echo "bench-gate: allocation and failure rows within bounds"

# Regenerate every figure at the quick scale (see EXPERIMENTS.md).
figures:
	go run ./cmd/pim sweep -fig all

# Run every example program to completion (each exits non-zero on error).
examples:
	go run ./examples/quickstart
	go run ./examples/competitive
	go run ./examples/collaborative
	go run ./examples/custompolicy
	go run ./examples/tenancy
	go run ./examples/fft

clean:
	rm -rf results/ test_output.txt
