# GoldFinger — build / test / reproduce targets.

GO ?= go

.PHONY: all build check test race racecheck parity perfsmoke perf crashcheck loadcheck shardcheck onlinecheck clustercheck clustershort cover bench benchsmoke benchjson benchquery benchcluster experiments fuzz fuzzshort clean

all: build test

build:
	$(GO) build ./...

# Static analysis, the full race-enabled suite, the crash-recovery
# fault-injection suite, the overload/load-shedding suite, a short fuzz
# burst over every fuzz target, a one-iteration benchmark smoke so the
# perf-critical kernel benches can never rot unnoticed, and the repo's
# benchmark (bench/, its own module, invisible to ./...) at smoke scale.
check: benchsmoke benchquery benchcluster perfsmoke racecheck crashcheck loadcheck shardcheck onlinecheck clustershort fuzzshort
	$(GO) vet ./...

test: check
	$(GO) test ./...

race: racecheck

# The whole test suite — including the cross-algorithm correctness harness
# and the HTTP cancel/timeout tests — under the race detector, with test
# order shuffled so inter-test ordering dependencies can't hide.
racecheck: parity
	$(GO) test -race -shuffle=on ./...

# The search loop's contract on its own, so a search change can be checked
# in isolation (all of it is also part of the ./... sweep above): graph-
# navigated /query holds recall@10 >= 0.9 against the exact scan at n=10k;
# the batched, selection-seeded search equals its slice-based reference on
# tie-heavy random graphs; the batch path equals the per-node path at
# n=10k and the scorer's batch method equals Score bit for bit on a paged
# corpus; the spread seeds equal their closed form; a steady-state search
# allocates its result only; and one pooled scratch reused across graphs
# of different sizes never reports a stale visit (under -race).
parity:
	$(GO) test -count=1 -run 'GraphScanParity|GraphSearchMatchesReference|GraphSearchBatchEqualsPerNode|GraphSearchPooledScratch|SpreadSeedsClosedForm|SeedsMatchMapDedup|PackedHistory' ./internal/knn ./internal/cluster ./internal/core
	$(GO) test -race -count=1 -run 'GraphSearchScratchReuse' ./internal/knn

# bench/ is its own module, so tier-1 (`go build ./... && go test ./...`)
# cannot see it: a signature change in knn, core or cluster would break the
# benchmark silently. This vets it and runs every workload at n=2000.
perfsmoke:
	cd bench && $(GO) vet . && $(GO) run . -smoke

# The benchmark proper: every BENCHMARK.json workload twice at n=100k,
# failing when the two sets disagree beyond a metric's bound.
perf:
	cd bench && $(GO) run . -sets 2

# The durability suite under the race detector: fault-injection crash
# sweeps (FaultCrash at every mutating filesystem op), torn-tail recovery,
# kill-and-restart at the service and binary level, and degraded-mode
# behavior. Run with count=1 so the crash sweeps re-execute every time.
crashcheck:
	$(GO) test -race -count=1 ./internal/durable
	$(GO) test -race -count=1 -run 'Recovery|Degraded|Compaction|Restart|TornTail|Crash|WAL' ./internal/service ./cmd/knnserver

# The overload suite under the race detector: the knnload generator
# drives an in-process hardened server past measured saturation (plus
# slow-loris and oversized-body chaos) and the tests assert graceful
# degradation — bounded accepted p99, fail-fast 429/503 shedding with
# parseable Retry-After, and no goroutine leak. count=1 so the
# saturation measurement re-runs every time.
loadcheck:
	$(GO) test -race -count=1 -skip 'TestCluster' ./cmd/knnload

# The shard-tier chaos suite under the race detector: four shard-cores
# behind the scatter-gather router with a TCP chaos proxy per shard;
# kill and slow-loris one of four mid-load (2× the healthy request
# rate) and assert 200s with X-Partial-Results: 3/4, p99 within 2× the
# healthy baseline (250ms floor for machine noise), recall@10
# proportional to the lost coverage and >= 0.70× healthy, fail-fast
# 503+Retry-After mutations to the dead shard, and breaker re-close
# within one open interval + probe tick of the shard returning. The
# measured run lands in BENCH_load.json under "shard_chaos" — only here:
# without -record the tests write nothing. count=1 so the chaos replays
# every time.
shardcheck:
	$(GO) test -race -count=1 -run 'ShardChaos' ./cmd/knnload -args -record=$(CURDIR)/BENCH_load.json
	$(GO) test -race -count=1 -run 'RunSharded' ./cmd/knnserver

# The multi-process cluster suite under the race detector: three
# knnserver shard PROCESSES (own durable dirs, own WALs, race-built)
# behind the router; SIGKILL one at 2× load and assert zero lost acked
# mutations after WAL restart + rejoin, every outage query is 200 with
# X-Partial-Results or quorum-503, and recall@10 returns to within 1%
# of the healthy baseline; then a fresh shard joins mid-load (live
# WAL-journaled migration, dual-read window, exact-partition user
# counts) and a second scenario SIGKILLs the gaining shard mid-import
# and proves the transfer resumes with no user lost or duplicated.
# Measured runs land in BENCH_load.json under "cluster_chaos" and
# "migration" (-record; the short variant below records nothing). The
# second line re-runs the single-process migration, ring, membership, and
# delta tests that back the cluster machinery.
clustercheck:
	$(GO) test -race -count=1 -run 'TestClusterProcessKillChaos|TestClusterMigrationCrashResume' ./cmd/knnload -args -record=$(CURDIR)/BENCH_load.json
	$(GO) test -race -count=1 -run 'Cluster|Migration|Ring|Membership|Delta|Drift|Prober' ./internal/router ./internal/gossip ./internal/durable ./internal/service ./cmd/knnserver

# Short-mode clustercheck: the same process-kill and crash-resume
# proofs at reduced corpus scale, wired into `make check`.
clustershort:
	$(GO) test -race -count=1 -short -run 'TestClusterProcessKillChaos|TestClusterMigrationCrashResume' ./cmd/knnload
	$(GO) test -race -count=1 -run 'Cluster|Migration|Ring|Membership|Delta|Drift|Prober' ./internal/router ./internal/gossip ./internal/durable ./internal/service ./cmd/knnserver

# The online-mutation suite: the churn harness (>=10k interleaved
# insert/overwrite/delete mutations must hold quality and recall within
# epsilon of a from-scratch build), the online-insert latency floor (p99
# insert at n=10k), and the publication cost model — a mutation plus the
# read after it allocates < 1.5x the bytes at n=40k that it does at n=5k,
# for the maintainer alone and through the service (both skip themselves
# under -race, so they run here without it). The differential history
# tests (paged corpus == fresh pack, kernels bit-identical) and the
# held-snapshot / held-view immutability tests run under the race detector
# here and in racecheck's ./... sweep. count=1 so the churn replays every
# time.
onlinecheck:
	$(GO) test -count=1 -run 'OnlineChurn|OnlineInsertLatency|OnlineMutationAllocScaling' ./internal/knn
	$(GO) test -count=1 -run 'OnlineMutationAllocScaling' ./internal/service
	$(GO) test -race -count=1 -run 'RandomHistory|SupersededView|PackedHistory|OnlineSnapshotImmutable' ./internal/cow ./internal/core ./internal/knn
	$(GO) test -race -count=1 -run 'Online|LiveMutation|Delete' ./internal/service

cover:
	$(GO) test -coverprofile=cover.out ./internal/...
	$(GO) tool cover -func=cover.out | tail -1

bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

# One iteration of every bitset/knn benchmark: catches benchmarks that no
# longer compile or crash, without measuring anything.
benchsmoke:
	$(GO) test -bench=. -benchtime=1x -count=1 -run='^$$' ./internal/bitset/... ./internal/knn/...

# Machine-readable before/after numbers for the packed-corpus hot paths
# (brute-force build + TopK query), written to BENCH_knn.json so the perf
# trajectory is tracked across PRs.
benchjson:
	$(GO) run ./cmd/benchknn -out BENCH_knn.json

# A fast scan-vs-graph query bench on a small clustered corpus: exercises
# the full benchknn query path (generate, Hyrec build, both serving
# modes) in seconds, so `make check` catches a bench that no longer runs
# without paying for the n=100k measurement.
benchquery:
	$(GO) run ./cmd/benchknn -n 500 -k 5 -queries 5 -qn 4000 -out -

# The cluster-and-conquer quality smoke: the fingerprint-hash bucketed
# build must hold quality >= 0.90 and recall >= 0.60 against the exact
# brute force at n=2000 while doing strictly fewer comparisons. count=1
# so a kernel or clustering change re-runs the floor every time.
benchcluster:
	$(GO) test -count=1 -run 'ClusterBruteParity' ./internal/knn

# Regenerate every table and figure of the paper at the default scale.
experiments:
	$(GO) run ./cmd/goldfinger all

fuzz:
	$(GO) test -fuzz=FuzzReadFingerprint$$ -fuzztime=30s ./internal/core
	$(GO) test -fuzz=FuzzReadFingerprintSet -fuzztime=30s ./internal/core
	$(GO) test -fuzz=FuzzParseMovieLens -fuzztime=30s ./internal/dataset
	$(GO) test -fuzz=FuzzWALReplay -fuzztime=30s ./internal/durable
	$(GO) test -fuzz=FuzzGraphDeltaReplay -fuzztime=30s ./internal/durable
	$(GO) test -fuzz=FuzzMergeTopK -fuzztime=30s ./internal/router

# 10 seconds per fuzz target — enough for the seeded corpora (codec round
# trips, the capped-prealloc set path, the ratings parser) to shake out
# regressions on every `make check` without stalling the loop.
fuzzshort:
	$(GO) test -fuzz=FuzzReadFingerprint$$ -fuzztime=10s ./internal/core
	$(GO) test -fuzz=FuzzReadFingerprintSet -fuzztime=10s ./internal/core
	$(GO) test -fuzz=FuzzParseMovieLens -fuzztime=10s ./internal/dataset
	$(GO) test -fuzz=FuzzWALReplay -fuzztime=10s ./internal/durable
	$(GO) test -fuzz=FuzzGraphDeltaReplay -fuzztime=10s ./internal/durable
	$(GO) test -fuzz=FuzzMergeTopK -fuzztime=10s ./internal/router

clean:
	$(GO) clean ./...
	rm -f cover.out
