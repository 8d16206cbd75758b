package main

// This file is the benchmark's contract in code: the workload names, the
// end-to-end and per-layer metric names with unit and direction, the
// regression bounds and the frozen rates. BENCHMARK.json at the repo root
// states the same names and bounds; TestSpecMatchesBenchmarkJSON keeps the
// two from drifting.

// Workload names. Later issues cite these.
const (
	wlBuild  = "build-100k"
	wlServe  = "serve-read-100k"
	wlChurn  = "churn-100k"
	wlRouted = "routed-3shard-100k"
)

var workloadNames = []string{wlBuild, wlServe, wlChurn, wlRouted}

// metricSpec names one reported number.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // allowed worsening as a share of the parent's median; 0 for per-layer
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them (see README.md, "What each metric means on each
// workload").
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"build_s", "s", "lower", 0.25},
	{"build_quality", "ratio", "higher", 0.02},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_qps", "1/s", "higher", 0.25},
	{"scan_p50_ms", "ms", "lower", 0.25},
	{"recall_at_10", "ratio", "higher", 0.02},
	{"mutate_p50_ms", "ms", "lower", 0.25},
	{"recover_s", "s", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// perLayer lists the single-layer numbers of the traced run, named
// layer.metric after this repo's packages. They carry no bound.
var perLayer = []metricSpec{
	{"bitset.andcount_into_ns_per_row", "ns", "lower", 0},
	{"bitset.andcount_gather_ns_per_row", "ns", "lower", 0},

	{"core.pack_profiles_s", "s", "lower", 0},
	{"core.new_packed_corpus_ms", "ms", "lower", 0},
	{"core.jaccard_query_into_ns_per_row", "ns", "lower", 0},
	{"core.score_above_ns", "ns", "lower", 0},
	{"core.score_abandon_share", "ratio", "higher", 0},
	{"core.read_fingerprint_ns", "ns", "lower", 0},

	{"cluster.assign_s", "s", "lower", 0},
	{"cluster.buckets", "count", "lower", 0},
	{"cluster.max_bucket", "count", "lower", 0},
	{"cluster.seeds_us", "us", "lower", 0},

	{"knn.cc_build_s", "s", "lower", 0},
	{"knn.cc_bucket_s", "s", "lower", 0},
	{"knn.cc_scan_s", "s", "lower", 0},
	{"knn.cc_merge_s", "s", "lower", 0},
	{"knn.cc_refine_s", "s", "lower", 0},
	{"knn.cc_comparisons", "count", "lower", 0},
	{"knn.cc_recall", "ratio", "higher", 0},
	{"knn.navigable_s", "s", "lower", 0},
	{"knn.brute_s", "s", "lower", 0},
	{"knn.brute_comparisons_per_s", "1/s", "higher", 0},
	{"knn.build_speedup_procs", "ratio", "higher", 0},
	{"knn.search_us", "us", "lower", 0},
	{"knn.search_hops", "count", "lower", 0},
	{"knn.search_scored", "count", "lower", 0},
	{"knn.search_abandon_share", "ratio", "higher", 0},
	{"knn.search_recall_at_10", "ratio", "higher", 0},
	{"knn.topk_scan_us", "us", "lower", 0},
	{"knn.online_insert_us", "us", "lower", 0},
	{"knn.online_overwrite_us", "us", "lower", 0},
	{"knn.online_delete_us", "us", "lower", 0},
	{"knn.online_insert_comparisons", "count", "lower", 0},
	{"knn.online_snapshot_us", "us", "lower", 0},

	{"durable.append_us", "us", "lower", 0},
	{"durable.append_nosync_us", "us", "lower", 0},
	{"durable.wal_bytes_per_put", "B", "lower", 0},
	{"durable.compact_s", "s", "lower", 0},
	{"durable.compactions", "count", "lower", 0},
	{"durable.open_s", "s", "lower", 0},
	{"durable.replayed_records", "count", "lower", 0},

	{"admit.admit_ns", "ns", "lower", 0},
	{"admit.query_wait_us", "us", "lower", 0},
	{"admit.shed", "count", "lower", 0},

	{"service.graph_handler_us", "us", "lower", 0},
	{"service.graph_self_us", "us", "lower", 0},
	{"service.scan_handler_us", "us", "lower", 0},
	{"service.put_handler_us", "us", "lower", 0},
	{"service.delete_handler_us", "us", "lower", 0},
	{"service.repack_query_us", "us", "lower", 0},
	{"service.warm_query_us", "us", "lower", 0},
	{"service.graph_share", "ratio", "higher", 0},
	{"service.build_s", "s", "lower", 0},
	{"service.response_bytes", "B", "lower", 0},

	{"router.owner_ns", "ns", "lower", 0},
	{"router.merge_topk_us", "us", "lower", 0},
	{"router.handler_us", "us", "lower", 0},
	{"router.self_us", "us", "lower", 0},
	{"router.hop_us", "us", "lower", 0},
	{"router.fanout", "ratio", "lower", 0},
	{"router.hedges", "count", "lower", 0},
	{"router.retries", "count", "lower", 0},
	{"router.partial", "count", "lower", 0},

	{"knnserver.transport_us", "us", "lower", 0},
	{"knnserver.startup_s", "s", "lower", 0},
	{"knnserver.rss_after_build_mb", "MiB", "lower", 0},

	{"client.query_p90_ms", "ms", "lower", 0},
	{"client.query_p99_ms", "ms", "lower", 0},
	{"client.mutate_p90_ms", "ms", "lower", 0},
	{"client.mutate_p99_ms", "ms", "lower", 0},
	{"client.gen_late_p99_us", "us", "lower", 0},
	{"client.gen_cpu_share", "ratio", "lower", 0},
	{"client.trace_overhead_share", "ratio", "lower", 0},
	{"client.ladder_gap_share", "ratio", "lower", 0},
}

// Frozen open-loop rates (requests per second). Each is about a quarter
// of what the generator's connection pool sustained on the seed commit on
// a 2-core machine; README.md records how they were derived.
const (
	rateServeAuto  = 750.0 // serve-read phase A, mode=auto
	rateServeScan  = 250.0 // scan phase of the single-node workloads
	rateChurnMixed = 100.0 // churn phase A, 80% queries / 20% mutations
	rateRoutedAuto = 250.0 // routed phase A, mode=auto
	rateRoutedScan = 150.0 // routed scan phase
)

// Correctness floors of the gate (see checkGate).
const (
	floorBuildQuality = 0.95
	floorRecallRead   = 0.85
	floorRecallChurn  = 0.80
)

// Validity limits of a traced run's generator.
const (
	limitGenLateP99us   = 1000.0
	limitGenCPUShare    = 0.5
	limitTraceOverhead  = 0.05
	limitLadderGapShare = 0.05
)

// scale fixes the problem size. full is what BENCHMARK.json measures;
// smoke drives the same code paths in seconds for the smoke test.
type scale struct {
	N          int // member users
	Held       int // held-out profiles: query bodies, insert and overwrite payloads
	Bits       int
	K          int
	BruteN     int // rows of the exact brute-force build (traced run)
	SpeedupN   int // rows of the GOMAXPROCS=1 vs nproc build pair
	QualityN   int // users sampled for build_quality
	RecallN    int // queries sampled for recall_at_10
	BurstN     int // mutations of the closing burst (serve-read, routed, build)
	LadderQ    int // queries replayed per ladder rung
	LadderM    int // mutations replayed per mutation rung
	KernelRows int // random ids of the gather kernel probe
}

var fullScale = scale{
	N: 100_000, Held: 4_000, Bits: 1024, K: 10,
	BruteN: 10_000, SpeedupN: 25_000, QualityN: 400, RecallN: 500,
	BurstN: 400, LadderQ: 1000, LadderM: 300, KernelRows: 2000,
}

var smokeScale = scale{
	N: 2_000, Held: 400, Bits: 1024, K: 10,
	BruteN: 500, SpeedupN: 1_000, QualityN: 100, RecallN: 100,
	BurstN: 60, LadderQ: 100, LadderM: 40, KernelRows: 200,
}
