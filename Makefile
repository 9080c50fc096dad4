# Standard developer entry points; see README.md ("Development").
GO ?= go

# Every test invocation carries an explicit -timeout: a hung test (the
# exact failure mode the supervision layer exists to catch) should kill
# the run loudly, not stall CI at the default 10 minutes per package.
TEST_TIMEOUT ?= 300s

.PHONY: build test vet race chaos corrupt fuzz bench bench-json bench-compare bench-test jobd-smoke verify

build:
	$(GO) build ./...

test:
	$(GO) test -timeout $(TEST_TIMEOUT) ./...

vet:
	$(GO) vet ./...

# Race-hammers the observability layer (shared metrics registry + tracer),
# the parallel experiment scheduler (a full concurrent study sweep, cache
# sweeps included), the event-trace recorder/replayer it drives, the
# memory-hierarchy simulator attached across worker threads, the block
# execution engine (per-machine caches on concurrent sweep workers), the
# job daemon (worker pool + journal + HTTP surface) and the cache-bearing
# block-engine kill/cancel/resume sweep at the root.
race:
	$(GO) test -race -timeout $(TEST_TIMEOUT) ./internal/obs/... ./internal/study/... ./internal/etrace/... ./internal/memsim/... ./internal/vm/... ./internal/jobd/...
	$(GO) test -race -timeout $(TEST_TIMEOUT) -run 'TestChaosBlockEngine|TestChaosMidSweepCancellation' .

# The chaos suite: drives full scheduler sweeps through the deterministic
# fault injector (internal/chaos) under the race detector — worker panics,
# hangs, trace I/O faults, disk corruption (bit flips, torn tails,
# ENOSPC), guest traps, mid-sweep cancellation and checkpoint resume must
# all degrade gracefully.
chaos:
	$(GO) test -race -timeout $(TEST_TIMEOUT) -run 'TestChaos' -v .
	$(GO) test -race -timeout $(TEST_TIMEOUT) ./internal/chaos/...

# The trace-integrity gate: the etrace corruption matrix (every fault
# class × inline and worker-pool decode × strict and salvage — detected
# or byte-identical, never silent divergence), the format-generation
# compat suite, and the end-to-end rerecord-on-corrupt scheduler
# scenarios.
corrupt:
	$(GO) test -timeout $(TEST_TIMEOUT) -run 'TestCorruptionMatrix|TestSalvageAccounting|TestFormatGenerations|TestStatReportsGenerations' -v ./internal/etrace
	$(GO) test -timeout $(TEST_TIMEOUT) -run 'TestChaosCorrupt|TestChaosENOSPC|TestChaosTornTail' -v .

# Short fuzzing budgets for the text/binary-format parsers: the
# event-trace replay with inline decode, salvage replay, the indexed
# replay pipeline with a decode worker pool (checked against Stat's
# index-free frame walk), the JSON profile envelope and the
# cache-geometry grammar.  None may panic on any input.
fuzz:
	$(GO) test -run xxx -fuzz FuzzReplay -fuzztime 10s ./internal/etrace
	$(GO) test -run xxx -fuzz FuzzSalvage -fuzztime 10s ./internal/etrace
	$(GO) test -run xxx -fuzz FuzzIndex -fuzztime 10s ./internal/etrace
	$(GO) test -run xxx -fuzz FuzzLoad -fuzztime 10s ./internal/trace
	$(GO) test -run xxx -fuzz FuzzCacheConfig -fuzztime 10s ./internal/memsim

# One pass over every table/figure benchmark, the obs on/off pair, the
# cache-geometry sweep and the simulator hot path.
bench:
	$(GO) test -bench . -benchtime 1x
	$(GO) test -bench BenchmarkMemSim -benchtime 1x ./internal/memsim

# Same pass, recorded as a dated machine-readable log (go test -json).
# The date is evaluated once (a := variable) so a run straddling
# midnight cannot split the log across two files, and both passes write
# through a single compound redirect so the file is either the complete
# two-pass log or (on failure) removed — never an interleaved or
# truncated JSON stream.  Same-day reruns never clobber an earlier log:
# they write BENCH_<date>.2.json, .3.json, … which cmd/benchcmp orders
# after the base file.
BENCH_DATE := $(shell date +%Y-%m-%d)
bench-json:
	@f=BENCH_$(BENCH_DATE).json; n=2; \
	while [ -e $$f ]; do f=BENCH_$(BENCH_DATE).$$n.json; n=$$((n+1)); done; \
	echo "writing $$f"; \
	{ $(GO) test -bench . -benchtime 1x -json && \
	  $(GO) test -bench BenchmarkMemSim -benchtime 1x -json ./internal/memsim; } > $$f \
	  || { rm -f $$f; exit 1; }

# Per-benchmark deltas between the two newest BENCH_*.json logs.
bench-compare:
	$(GO) run ./cmd/benchcmp

# The benchmark program (bench/, its own module, so the root ./...
# patterns never compile it): vet it and run its tests against this
# checkout.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test -count=1 -timeout $(TEST_TIMEOUT) ./...

# The analysis-daemon gate: end-to-end HTTP submit → succeeded → artifact
# byte-identity against cmd/tquad's golden sweep, plus the kill/resume
# durability contract (SIGKILL-equivalent teardown, restart, zero guest
# re-execution, identical artifacts).
jobd-smoke:
	$(GO) test -timeout $(TEST_TIMEOUT) -run 'TestDaemonServiceSmoke|TestChaosDaemonKillResume' -v .
	$(GO) test -timeout $(TEST_TIMEOUT) ./internal/jobd/...

# One-shot pre-merge gate: build, vet, the full test suite, the
# race-detector pass over the concurrency-heavy packages, and the
# trace-integrity gate.
verify: build vet test race corrupt
