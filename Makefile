# Standard developer entry points; see README.md ("Development").
GO ?= go

# Every test invocation carries an explicit -timeout: a hung test (the
# exact failure mode the supervision layer exists to catch) should kill
# the run loudly, not stall CI at the default 10 minutes per package.
TEST_TIMEOUT ?= 300s

.PHONY: build test vet fmt race chaos corrupt fuzz bench bench-test jobd-smoke verify

build:
	$(GO) build ./...

test:
	$(GO) test -timeout $(TEST_TIMEOUT) ./...

vet:
	$(GO) vet ./...

# Fails, naming the files, when any Go file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l: not formatted:"; echo "$$out"; exit 1; fi

# Race-hammers the observability layer (shared metrics registry + tracer),
# the parallel experiment scheduler (a full concurrent study sweep, cache
# sweeps included), the event-trace recorder/replayer it drives, the
# memory-hierarchy simulator attached across worker threads, the block
# execution engine (per-machine caches on concurrent sweep workers), the
# job daemon (worker pool + journal + HTTP surface) and the cache-bearing
# block-engine kill/cancel/resume sweep at the root.  The packages run
# one at a time (-p 1): run side by side on two CPUs, internal/study and
# internal/etrace each came within seconds of the per-package timeout.
race:
	$(GO) test -race -p 1 -timeout $(TEST_TIMEOUT) ./internal/obs/... ./internal/study/... ./internal/etrace/... ./internal/memsim/... ./internal/vm/... ./internal/jobd/...
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
# class, lying but checksummed footers included × inline and worker-pool
# decode × strict and salvage — detected or byte-identical, never silent
# divergence — with Stat reporting damage exactly when strict replay
# fails, and a byte flipped inside the footer costing salvage no sound
# chunk and not the final state), the format-generation compat suite
# (footer instruction counts included), the unassigned record kinds
# failing closed in Stat and in every replay mode, the end-to-end
# rerecord-on-corrupt scheduler scenarios (a checkpoint resumed over a
# damaged trace re-records once; a rerecord makes the checkpoint forget
# the trace it trusted), the checkpoint's validate-once rule, the
# scheduler's adopted-trace rules (an adopted trace's replay budget read
# from its end record past a damaged chunk), the profiler's -record and
# -replay contract (a damaged -replay trace fails strict, salvages to
# its golden and is never modified, and a salvage that replays nothing
# fails; a failed -record leaves no file), and tqdump's -etrace verdicts
# (text and -json exit alike: 0 intact, 3 damaged, 4 unreadable; the
# integrity line names the footer only when there is one).
corrupt:
	$(GO) test -timeout $(TEST_TIMEOUT) -run 'TestCorruptionMatrix|TestSalvageAccounting|TestFormatGenerations|TestStatReportsGenerations|TestRemovedRecordKindsFailClosed' -v ./internal/etrace
	$(GO) test -timeout $(TEST_TIMEOUT) -run 'TestChaosCorrupt|TestChaosENOSPC|TestChaosTornTail|TestCheckpointResumeOverDamagedTrace|TestRerecordForgetsCheckpointTrace' -v .
	$(GO) test -timeout $(TEST_TIMEOUT) -run 'TestSchedulerTraceSource|TestCheckpointValidatesTraceOnce' -v ./internal/study
	$(GO) test -timeout $(TEST_TIMEOUT) -run 'TestReplayContract|TestRecordContract' -v ./cmd/tquad
	$(GO) test -timeout $(TEST_TIMEOUT) -run 'TestDumpTrace' -v ./cmd/tqdump

# Short fuzzing budgets for the text/binary-format parsers: the
# event-trace replay with inline decode, salvage replay (and Stat), the
# indexed replay pipeline with a decode worker pool (checked against an
# index-free frame walk kept as its test oracle, and against Stat's
# verdict) and the cache-geometry grammar.  None may panic on any
# input.  Then QUAD's page-span shadow walk against its per-byte map
# oracle: any access stream must give both identical reports.  Last,
# the block engine against the reference stepper on arbitrary guest
# code loaded as an image: every run must be observably identical.
fuzz:
	$(GO) test -run xxx -fuzz FuzzReplay -fuzztime 10s ./internal/etrace
	$(GO) test -run xxx -fuzz FuzzSalvage -fuzztime 10s ./internal/etrace
	$(GO) test -run xxx -fuzz FuzzIndex -fuzztime 10s ./internal/etrace
	$(GO) test -run xxx -fuzz FuzzCacheConfig -fuzztime 10s ./internal/memsim
	$(GO) test -run xxx -fuzz FuzzQUADMatchesMapRef -fuzztime 10s ./internal/quad
	$(GO) test -run xxx -fuzz FuzzBlockEngineEquivalence -fuzztime 10s ./internal/vm

# Every Go benchmark, 10 samples each: the code-cache, prefetch
# fast-path and granularity ablations and the obs and serve on/off pairs
# at the root, the slice-accumulator, simulator and paged-vs-map
# shadow-memory micro-benchmarks, and the obs primitives.  The paper's
# evaluation is timed by tqbench (bench/run.sh), not here.
bench:
	$(GO) test -run '^$$' -bench . -count 10 .
	$(GO) test -run '^$$' -bench . -count 10 ./internal/core
	$(GO) test -run '^$$' -bench . -count 10 ./internal/memsim
	$(GO) test -run '^$$' -bench . -count 10 ./internal/shadow
	$(GO) test -run '^$$' -bench . -count 10 ./internal/obs

# The benchmark program (bench/, its own module, so the root ./...
# patterns never compile it): vet it and run its tests against this
# checkout.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test -count=1 -timeout $(TEST_TIMEOUT) ./...

# The analysis-daemon gate: end-to-end HTTP submit → succeeded → artifact
# byte-identity against cmd/tquad's golden sweep, plus the kill/resume
# durability contract (SIGKILL-equivalent teardown, restart, zero guest
# re-execution, identical artifacts), and the `tquad daemon` process
# itself (its printed URL, /metrics, /debug/pprof/, a job to success,
# SIGTERM drain and exit 0).
jobd-smoke:
	$(GO) test -timeout $(TEST_TIMEOUT) -run 'TestDaemonServiceSmoke|TestChaosDaemonKillResume' -v .
	$(GO) test -timeout $(TEST_TIMEOUT) -run 'TestDaemonCommand' -v ./cmd/tquad
	$(GO) test -timeout $(TEST_TIMEOUT) ./internal/jobd/...

# One-shot pre-merge gate: build, vet, the gofmt check, the full test
# suite, the race-detector pass over the concurrency-heavy packages, and
# the trace-integrity gate.
verify: build vet fmt test race corrupt
