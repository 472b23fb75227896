# Developer and CI entry points. `make ci` is what the GitHub Actions
# workflow runs; each target also works standalone.

GO ?= go

# Label stamped onto every bench-<name> record in BENCH_<name>.json.
BENCH_LABEL ?= $(shell git rev-parse --short HEAD 2>/dev/null || echo local)

BENCH_TARGETS = bench-sampling bench-query bench-obfuscate bench-qserve bench-io

.PHONY: build test race vet fmt-check seed-check lint cover $(BENCH_TARGETS) e2ebench-check ci

# Total-coverage floor enforced by `make cover`. 75.9% measured when
# the target was introduced (PR 5), raised to 78 with the result-cache
# test layer (PR 10); raise it as coverage grows, never lower it to
# paper over a regression.
COVER_MIN ?= 78.0

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Short mode keeps the race run fast: the concurrency exercises in
# race_test.go and the parallel engine tests all run; only the
# toolchain-exec smoke tests and the 5k-vertex benchmark check skip.
race:
	$(GO) test -race -short ./...

vet:
	$(GO) vet ./...

# Fails when any file needs gofmt; prints the offenders.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt required for:"; echo "$$out"; exit 1; fi

# Seeding discipline behind the one determinism contract: every RNG
# stream must derive from internal/randx (randx.New / randx.Derive).
# An ad-hoc rand.New(rand.NewSource(...)) anywhere else forks the
# contract — results would stop being a pure function of the seed — so
# it fails CI. Tests are exempt (they may pin arbitrary streams).
seed-check:
	@out="$$(grep -rn 'rand\.New(rand\.NewSource' --include='*.go' . \
		| grep -v 'internal/randx/' | grep -v '_test\.go')"; \
	if [ -n "$$out" ]; then \
		echo "ad-hoc RNG seeding outside internal/randx (use randx.New / randx.Derive):"; \
		echo "$$out"; exit 1; fi

lint: vet fmt-check seed-check

# Coverage gate: writes coverage.out (uploaded as a CI artifact) and
# fails when total statement coverage drops below COVER_MIN.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	@total="$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }')"; \
	echo "total statement coverage: $$total% (floor $(COVER_MIN)%)"; \
	awk -v t="$$total" -v m="$(COVER_MIN)" 'BEGIN { exit (t+0 >= m+0) ? 0 : 1 }' || { \
		echo "coverage $$total% fell below the $(COVER_MIN)% floor"; exit 1; }

# Package benchmarks, each appended as a JSON record to BENCH_<name>.json
# by one shared recipe (below): bench-<name> sets the package, the
# benchmark regexp and the iteration count. Every benchmark runs five
# times; benchfmt records its median with the min and max, and warns
# (never fails) when a median is >10% above the previous record's and
# the fastest run is slower than that record's slowest.
#
# bench-sampling: the possible-world engine — SampleWorlds times 100
# worlds through SampleSeed, the statistics world loop's path, and
# SampleWorldsNaive a fresh graph per world (the first record in
# BENCH_sampling.json is the pre-refactor baseline; see README "Graph
# representation & memory model"); EstimateEvaluateShaped is one
# estimate at e2ebench's evaluate shape (100 HyperANF worlds of the
# dblp small release) on one worker.
bench-sampling: BENCH_PKG = ./internal/sampling
bench-sampling: BENCH_RE = BenchmarkSampleWorlds$$|BenchmarkSampleWorldsNaive$$|BenchmarkEstimateStatistics$$|BenchmarkEstimateStatisticsANF$$|BenchmarkEstimateAdaptive$$|BenchmarkEstimateEvaluateShaped$$
bench-sampling: BENCH_TIME = 3x
# bench-query: a request-shaped batch of mixed queries, the
# reliability-only early-exit pair (bit-identical answers), and one
# queryd cache miss at its shipped shape (738 worlds on an obfuscated
# dblp-tiny release, 1-4 queries per request, a quarter of requests
# re-asked with tolerance 0.05 as serve-novel does; 16x covers its
# request cycle once per run), plus the two parts of that miss's
# sampling on the same release: one 64-world SampleGroup and one
# NewSampler template build, so work moved into set-up shows. The
# BatchQueries line must report 0 allocs/op: the query world loop is
# allocation-free once warm.
bench-query: BENCH_PKG = ./internal/query
bench-query: BENCH_RE = BenchmarkBatchQueries$$|BenchmarkBatchReliabilityOnly$$|BenchmarkBatchReliabilityOnlyFullBFS$$|BenchmarkBatchServeShaped$$|BenchmarkSampleGroupServeShaped$$|BenchmarkNewSamplerServeShaped$$
bench-query: BENCH_TIME = 16x
# bench-obfuscate: sequential vs parallel full Algorithm 1 runs on the
# ~5k-vertex stand-in (TestObfuscateBenchConfigEquivalence, in the
# plain test suite, pins that both compute the same release), plus one
# release at e2ebench's publish shape (y360 tiny, k=20, ε=0.01, seed
# 2201) on one worker, with the trials its search consumed.
bench-obfuscate: BENCH_PKG = .
bench-obfuscate: BENCH_RE = BenchmarkObfuscate(Sequential|Parallel|PublishShaped)$$
bench-obfuscate: BENCH_TIME = 3x
# bench-qserve: steady-state hot request vs the post-eviction cold
# reload, plus the result-cache triplet (stored-answer hit, miss
# against a resident graph, miss that also reloads). The cache's
# acceptance bar is hot-cache >= 10x faster than the cache-disabled
# hot request.
bench-qserve: BENCH_PKG = ./internal/qserve
bench-qserve: BENCH_RE = BenchmarkRegistryHotRequest$$|BenchmarkRegistryColdReload$$|BenchmarkRegistryCachedRequest$$
bench-qserve: BENCH_TIME = 20x
# bench-io: text parse vs mmap'd .ugb cold load of the same graph; UGB
# must cold-start >= 5x faster with allocations independent of graph
# size.
bench-io: BENCH_PKG = ./internal/ugbin
bench-io: BENCH_RE = BenchmarkColdLoadText$$|BenchmarkColdLoadUGB$$
bench-io: BENCH_TIME = 10x

# A temp file, not a pipe, carries the output so a go-test failure
# fails the target (benchfmt additionally refuses runs whose output
# contains FAIL).
$(BENCH_TARGETS): bench-%:
	@tmp="$$(mktemp)"; \
	$(GO) test -run '^$$' -bench '$(BENCH_RE)' \
		-benchmem -benchtime $(BENCH_TIME) -count 5 $(BENCH_PKG) > "$$tmp" 2>&1; \
	status=$$?; \
	if [ $$status -ne 0 ]; then cat "$$tmp"; rm -f "$$tmp"; exit $$status; fi; \
	$(GO) run ./cmd/benchfmt -label "$(BENCH_LABEL)" -file BENCH_$*.json < "$$tmp"; \
	status=$$?; rm -f "$$tmp"; exit $$status

# The benchmark harness is its own module importing internal/*, so the
# root `go build ./...` never compiles it: vet and self-test it here.
e2ebench-check:
	cd e2ebench && $(GO) vet ./... && $(GO) test ./...

ci: build lint test race e2ebench-check
