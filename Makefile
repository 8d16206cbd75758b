# GoldFinger — build / test / reproduce targets.

GO ?= go

.PHONY: all build check fmt test racecheck perfsmoke perf shardcheck clustercheck cover bench lines experiments fuzz fuzzshort clean

all: build test

build:
	$(GO) build ./...

# Every test runs once per build mode: `test` is the whole suite plus one
# iteration of every benchmark, `racecheck` the whole suite again under
# the race detector. Then a short fuzz burst over every fuzz target, and
# the repo's benchmark (bench/, its own module, invisible to ./...) at
# smoke scale. Last, vet — on amd64, where it also checks the assembly
# kernels' frame layouts against their Go declarations, and on arm64,
# which has no assembly, so the portable Go path keeps compiling.
check: fmt test racecheck fuzzshort perfsmoke
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

# Fails when gofmt would change any file, bench/ included (gofmt walks
# every directory below the root, nested module or not).
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# The tier-1 suite without the race detector, plus one iteration of every
# benchmark so none can rot unnoticed. The tests that skip themselves
# under -race run here: the n=10k Cluster-and-Conquer quality floor, the
# n=20k served-recall floor and the allocation floors. count=1 so the
# crash sweeps, churn and chaos replays re-run every time.
test:
	$(GO) test -count=1 -bench=. -benchtime=1x ./...

# The whole test suite — including the cross-algorithm correctness harness,
# the crash-recovery fault-injection sweeps, the overload and chaos
# harnesses and the HTTP cancel/timeout tests — under the race detector,
# with test order shuffled so inter-test ordering dependencies can't hide.
racecheck:
	$(GO) test -race -count=1 -shuffle=on ./...

# bench/ is its own module, so tier-1 (`go build ./... && go test ./...`)
# cannot see it: a signature change in knn, core or cluster would break the
# benchmark silently. This vets it and runs every workload at n=2000.
perfsmoke:
	cd bench && $(GO) vet . && $(GO) run . -smoke

# The benchmark proper: every BENCHMARK.json workload twice at n=100k,
# failing when the two sets disagree beyond a metric's bound.
perf:
	cd bench && $(GO) run . -sets 2

# The shard-tier chaos run that records: four shard-cores behind the
# scatter-gather router with a TCP chaos proxy per shard; kill and
# slow-loris one of four mid-load (2× the healthy request rate) and
# assert 200s with X-Partial-Results: 3/4, p99 within 2× the healthy
# baseline (250ms floor for machine noise), recall@10 proportional to the
# lost coverage and >= 0.70× healthy, fail-fast 503+Retry-After mutations
# to the dead shard, and breaker re-close within one open interval +
# probe tick of the shard returning. The measured run lands in
# BENCH_load.json under "shard_chaos" — only here: without -record the
# test writes nothing. Not part of `make check`, whose race sweep already
# runs the same test without recording. count=1 so the chaos replays every
# time.
shardcheck:
	$(GO) test -race -count=1 -run 'ShardChaos' ./cmd/knnload -args -record=$(CURDIR)/BENCH_load.json

# The multi-process cluster suite under the race detector: three
# knnserver shard PROCESSES (own durable dirs, own WALs, race-built)
# behind the router; SIGKILL one at 2× load and assert zero lost acked
# mutations after WAL restart + rejoin, every outage query is 200 with
# X-Partial-Results or quorum-503, and recall@10 returns to within 1%
# of the healthy baseline; then a fresh shard joins mid-load (live
# WAL-journaled migration, dual-read window, exact-partition user
# counts) and a second scenario SIGKILLs the gaining shard mid-import
# and proves the transfer resumes with no user lost or duplicated.
# The measured runs land in BENCH_load.json under "cluster_chaos" and
# "migration" — only here: without -record the tests write nothing. Not
# part of `make check`, whose race sweep already runs both without
# recording.
clustercheck:
	$(GO) test -race -count=1 -run 'TestClusterProcessKillChaos|TestClusterMigrationCrashResume' ./cmd/knnload -args -record=$(CURDIR)/BENCH_load.json

cover:
	$(GO) test -coverprofile=cover.out ./internal/...
	$(GO) tool cover -func=cover.out | tail -1

bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

# Non-test Go lines of the serving stack, per package and in total: the
# figure ROADMAP item 13's deletion target counts. It measures and gates
# nothing, so it is not part of `check`.
lines:
	@total=0; for d in internal/service internal/router internal/durable cmd/knnserver; do \
		n=$$(cat $$(ls $$d/*.go | grep -v '_test\.go$$') | wc -l); \
		printf '%-18s %6d\n' $$d $$n; total=$$((total + n)); \
	done; printf '%-18s %6d\n' total $$total

# Regenerate every table and figure of the paper at the default scale.
experiments:
	$(GO) run ./cmd/goldfinger all

fuzz:
	$(GO) test -fuzz=FuzzAndCountKernels -fuzztime=30s ./internal/bitset
	$(GO) test -fuzz=FuzzReadFingerprint$$ -fuzztime=30s ./internal/core
	$(GO) test -fuzz=FuzzPackedJaccard -fuzztime=30s ./internal/core
	$(GO) test -fuzz=FuzzParseMovieLens -fuzztime=30s ./internal/dataset
	$(GO) test -fuzz=FuzzParseEdgeList -fuzztime=30s ./internal/dataset
	$(GO) test -fuzz=FuzzWALReplay -fuzztime=30s ./internal/durable
	$(GO) test -fuzz=FuzzDecodeEpoch -fuzztime=30s ./internal/durable
	$(GO) test -fuzz=FuzzDecodeState -fuzztime=30s ./internal/durable
	$(GO) test -fuzz=FuzzGraphDeltaReplay -fuzztime=30s ./internal/durable
	$(GO) test -fuzz=FuzzMergeTopK -fuzztime=30s ./internal/router
	$(GO) test -run=FuzzTopKSet -fuzz=FuzzTopKSet -fuzztime=30s ./internal/knn

# 10 seconds per fuzz target — enough for the seeded corpora (the 16-word
# kernels against the Go reference, codec round trips, the WAL, epoch and
# state decoders with their forged-count seeds, packed against per-pair
# Jaccard, the ratings and edge-list parsers, the bounded top-k set
# against sort-then-truncate) to shake out regressions on every `make
# check` without stalling the loop. The knn target runs alone (-run): the
# package's other tests would otherwise rerun, coverage-instrumented,
# before every burst.
fuzzshort:
	$(GO) test -fuzz=FuzzAndCountKernels -fuzztime=10s ./internal/bitset
	$(GO) test -fuzz=FuzzReadFingerprint$$ -fuzztime=10s ./internal/core
	$(GO) test -fuzz=FuzzPackedJaccard -fuzztime=10s ./internal/core
	$(GO) test -fuzz=FuzzParseMovieLens -fuzztime=10s ./internal/dataset
	$(GO) test -fuzz=FuzzParseEdgeList -fuzztime=10s ./internal/dataset
	$(GO) test -fuzz=FuzzWALReplay -fuzztime=10s ./internal/durable
	$(GO) test -fuzz=FuzzDecodeEpoch -fuzztime=10s ./internal/durable
	$(GO) test -fuzz=FuzzDecodeState -fuzztime=10s ./internal/durable
	$(GO) test -fuzz=FuzzGraphDeltaReplay -fuzztime=10s ./internal/durable
	$(GO) test -fuzz=FuzzMergeTopK -fuzztime=10s ./internal/router
	$(GO) test -run=FuzzTopKSet -fuzz=FuzzTopKSet -fuzztime=10s ./internal/knn

clean:
	$(GO) clean ./...
	rm -f cover.out
