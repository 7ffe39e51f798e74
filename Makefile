GO ?= go

.PHONY: all build test race race-robust vet lint lint-build lint-fix lint-facts-clean fmt-check ci bench bench-obs bench-perf bench-perf-json bench-compare bench-e2e mem-ceiling telemetry-smoke chaos clean

# benchstat-friendly repetition count for bench-perf.
BENCH_COUNT ?= 6

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# LINTBIN is the built project linter; `go vet -vettool=` needs a real
# executable (and an absolute path), not `go run`.
LINTBIN := bin/bcachelint

lint-build:
	$(GO) build -o $(LINTBIN) ./cmd/bcachelint

# lint runs the eight project analyzers (determinism, probesafe,
# oraclepair, statjson, lockdiscipline, atomicdiscipline, splitstream,
# goroutinelife; see DESIGN.md §12 and §16) twice over the tree:
# standalone — whole-module load, widest compilations, which catches a
# package whose test files were deleted wholesale — and through
# `go vet -vettool=`, exercising the unitchecker protocol the go command
# drives (including cross-package fact flow via PackageVetx).
# Suppressions use //bcachelint:allow analyzer(reason).
lint: lint-build
	$(LINTBIN) ./...
	$(GO) vet -vettool=$(abspath $(LINTBIN)) ./...

# lint-fix prints the findings to work through, grouped by analyzer with
# file:line links; it never fails the build.
lint-fix: lint-build
	-$(LINTBIN) -group ./...

# lint-facts-clean proves the cross-package fact encoding deterministic:
# two consecutive standalone runs must write byte-identical .vetx files.
# A diff here means an analyzer is emitting facts from unsorted state,
# which would defeat the go command's vet caching and poison
# reproducibility of lint results themselves.
lint-facts-clean: lint-build
	rm -rf bin/facts-a bin/facts-b
	$(LINTBIN) -write-facts bin/facts-a ./...
	$(LINTBIN) -write-facts bin/facts-b ./...
	diff -r bin/facts-a bin/facts-b
	@echo "fact files byte-stable across runs"

# race-robust is the focused race gate for the crash-safety layer: the
# unit scheduler, checkpoint, and fault injector do real concurrent
# mutation, so they get their own fast gate ahead of the full race run.
race-robust:
	$(GO) test -race ./internal/experiment/... ./internal/fault/...

# fmt-check fails (and lists the offenders) if any file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# ci is the full local gate: formatting, vet (stdlib copylocks/atomic
# back up the custom analyzers), the project linters, the fact-encoding
# determinism check, build, the focused robustness race gate, the
# race-enabled test suite (probes attached under -race is an explicit
# acceptance criterion of the observability layer), and the
# distributed-execution chaos suite — promoted to fatal per its
# documented path after a clean week since PR 7 (see CHANGES.md, PR 10).
# lint is fatal: a finding without a justified //bcachelint:allow fails
# CI.
#
# telemetry-smoke and bench-compare run last as non-fatal reports, each
# surfacing a labeled warning on failure so a scan of the CI log finds
# them: the smoke binds a TCP listener (sandboxes may forbid that) and
# kernel throughput on a shared box is too noisy to hard-gate. Promotion
# path to fatal: once each has a clean week in CI logs, drop its `||
# echo` fallback so the recipe's exit status gates the build.
ci: fmt-check vet lint lint-facts-clean build race-robust race chaos
	@$(MAKE) telemetry-smoke || echo "[telemetry-smoke] WARNING: live telemetry smoke failed (non-fatal; see above)"
	@$(MAKE) bench-compare || echo "[bench-regression] WARNING: kernel throughput regressed >15% vs BENCH_perf.json (non-fatal; rerun 'make bench-compare' on a quiet box)"
	@$(MAKE) mem-ceiling || echo "[mem-ceiling] WARNING: suite resident trace-cache peak in BENCH_perf.json exceeds the 256 MiB budget (non-fatal; see above)"

# chaos runs the distributed-execution kill/interrupt suite under -race:
# worker subprocesses SIGKILLed mid-campaign, SIGINT drain, and
# coordinator-crash shard recovery, each asserting bit-identical merges
# against the sequential oracle (see internal/dist/distrun/chaos_test.go).
# Fatal in ci since PR 10: the suite had been green since PR 7, so per
# its documented promotion path it now gates the build as a hard
# prerequisite of the ci target.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos|TestSIGINT|TestMergeShardDir' ./internal/dist/distrun
	$(GO) test -race -count=1 ./internal/dist

# bench-compare replays the perfbench kernels and fails if any kernel's
# accesses/sec regressed more than 15% against the committed baseline.
# Uses a reduced access count: enough to get past warm-up on the slow
# (scan/profiler) kernels without taking the full baseline-regeneration
# time.
bench-compare:
	$(GO) run ./cmd/perfbench -compare BENCH_perf.json -kernel-accesses 10000000

# bench-e2e measures the end-to-end benchmark (benchmark/run.py; see
# benchmark/README.md) on each declared workload in turn, untraced, for
# 30 s of runs each, and prints one JSON result per workload. It is a
# measurement, not a gate, so ci does not run it; before/after numbers
# for a change come from running it on both trees.
bench-e2e:
	@for w in campaign missrate ipc; do \
		python3 benchmark/run.py --workload $$w --seconds 30 --trace 0 || exit 1; \
	done

# mem-ceiling checks the resident trace-cache peak recorded by the last
# `make bench-perf-json` suite pass against the 256 MiB budget (see
# DESIGN.md §15). It reads the committed BENCH_perf.json only — the
# recorded peak is deterministic per tree — so the check is instant.
# Non-fatal in ci for now because a baseline regenerated on a branch
# mid-rework may legitimately lag the code; promotion path to fatal:
# once BENCH_perf.json is regenerated in the same PR as any allocation
# change for a clean week, drop the `|| echo` fallback above so its
# exit status gates the build.
mem-ceiling:
	$(GO) run ./cmd/perfbench -mem-ceiling BENCH_perf.json

# telemetry-smoke drives the whole live-telemetry stack once: experiments
# under -telemetry on an ephemeral port, /metrics + /progress scraped and
# validated, SIGINT mid-linger, exported span journal and Chrome trace
# checked. See cmd/telemetrysmoke.
telemetry-smoke:
	$(GO) run ./cmd/telemetrysmoke

# bench runs the probe-overhead benchmarks (see internal/obs/alloc_test.go
# for how to read the two levels).
bench:
	$(GO) test -bench 'Overhead' -benchmem -run '^$$' ./internal/obs

# bench-obs regenerates the BENCH_obs.json observability baseline
# (equake/gcc/mcf x dm/8way/bcache).
bench-obs:
	$(GO) run ./cmd/obsbench -o BENCH_obs.json

# bench-perf runs the simulation-engine performance benchmarks with
# -count so the output feeds straight into benchstat (old.txt vs
# new.txt). Covers the SWAR B-Cache kernel, the scalar reference, the
# set-associative access path, and the end-to-end experiment suite.
bench-perf:
	$(GO) test -run '^$$' -bench 'BenchmarkBCacheAccess|BenchmarkReferenceAccess' -count $(BENCH_COUNT) ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkSetAssocAccess' -count $(BENCH_COUNT) ./internal/cache
	$(GO) test -run '^$$' -bench 'BenchmarkSuiteEndToEnd' -count 3 .

# bench-perf-json regenerates the committed BENCH_perf.json baseline
# (kernel accesses/sec per config + full-suite wall-clock).
bench-perf-json:
	$(GO) run ./cmd/perfbench -o BENCH_perf.json

clean:
	$(GO) clean ./...
