// Command benchknn measures the brute-force KNN build and the TopK query
// path on a synthetic SHF corpus, before and after the packed-corpus
// rewrite, and writes the numbers to a JSON file (BENCH_knn.json) so the
// performance trajectory is tracked across PRs.
//
// "Before" is the retained seed implementation: LegacyBruteForce's per-pair
// provider scan for the build, and a per-pair core.Jaccard closure under
// knn.TopK for the query. "After" is the packed path: BruteForce over the
// BatchProvider blocked kernels, and knn.TopKRange streaming
// PackedCorpus.JaccardQueryInto.
//
// The cluster_build section compares the two approximate builders at scale
// on one shared community-structured corpus: NNDescent vs the
// cluster-and-conquer builder (fingerprint-hash bucketing, per-cluster
// brute force, multi-view merge + one refinement sweep). Both are scored
// against a sampled exact ground truth for quality (sum-of-similarities
// ratio) and recall (edge overlap). The same section also reports the
// GraphSearch entry-seeding comparison on the cluster-built graph: default
// evenly-spread seeds vs seeds drawn from the query's own cluster buckets.
//
// The query section compares the two /query serving strategies at scale:
// the exact O(n) packed scan vs greedy navigation of a KNN graph
// (knn.GraphSearch over its Navigable form), on the same corpus. It
// reports per-mode p50 latency, recall against the scan, and the
// scored/abandoned split. At -qn scale the graph is the NNDescent build
// from the cluster section; the -big n=1M point uses the cluster builder
// (the only one that finishes in reasonable time at that scale on one
// core) with bucket-derived entry seeds, matching the service's serving
// path for cluster epochs.
//
// Usage:
//
//	benchknn -n 10000 -qn 100000 -bits 1024 -k 10 -out BENCH_knn.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"goldfinger/internal/cluster"
	"goldfinger/internal/core"
	"goldfinger/internal/dataset"
	"goldfinger/internal/knn"
	"goldfinger/internal/profile"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchknn:", err)
		os.Exit(1)
	}
}

// Pair is one before/after measurement in ns per operation.
type Pair struct {
	BeforeNsOp int64   `json:"before_ns_op"`
	AfterNsOp  int64   `json:"after_ns_op"`
	Speedup    float64 `json:"speedup"`
}

// Report is the BENCH_knn.json schema.
type Report struct {
	N          int    `json:"n"`
	Bits       int    `json:"bits"`
	K          int    `json:"k"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	MeasuredAt string `json:"measured_at"`

	// BruteForceBuild: LegacyBruteForce (per-pair provider scan) vs
	// BruteForce over the packed BatchProvider.
	BruteForceBuild Pair `json:"bruteforce_build"`
	// TopKQuery: per-pair Jaccard closure vs packed range kernel, one
	// external query fingerprint against the full corpus.
	TopKQuery Pair `json:"topk_query"`

	// ClusterBuild compares the approximate builders (NNDescent vs
	// cluster-and-conquer) at -qn scale on the clustered corpus.
	ClusterBuild *ClusterBench `json:"cluster_build,omitempty"`

	// Query compares exact-scan vs graph-navigated serving per corpus
	// size (one entry per -qn scale; -big adds n=1M).
	Query []QueryBench `json:"query,omitempty"`

	// OnlineInsert measures the live-mutation path at -qn scale: per-op
	// latency of online inserts, overwrites and deletes against a built
	// graph under an Online maintainer (the PUT/DELETE serving path).
	OnlineInsert *OnlineBench `json:"online_insert,omitempty"`
}

// OnlineBench is the online-mutation latency section: each op is one
// GraphSearch plus bounded reverse-edge repair, so per-op cost must stay
// flat in n (p99 in single-digit milliseconds at n=100k).
type OnlineBench struct {
	N int `json:"n"`
	K int `json:"k"`

	Inserts     int   `json:"inserts"`
	InsertP50Ns int64 `json:"insert_p50_ns"`
	InsertP99Ns int64 `json:"insert_p99_ns"`
	// AvgComparisons is the mean exact-similarity evaluations one insert
	// spends (search + repair) — the n-independence witness.
	AvgComparisons float64 `json:"avg_comparisons"`

	Overwrites     int   `json:"overwrites"`
	OverwriteP50Ns int64 `json:"overwrite_p50_ns"`
	Deletes        int   `json:"deletes"`
	DeleteP50Ns    int64 `json:"delete_p50_ns"`

	// SnapshotP50Ns is what the first reader after a mutation pays for its
	// snapshot: one atomic load, the mutation having published the pages
	// it touched before returning.
	SnapshotP50Ns int64 `json:"snapshot_p50_ns"`
}

// BuilderBench is one approximate builder's measurement against the
// sampled exact ground truth.
type BuilderBench struct {
	Algo        string `json:"algo"`
	BuildNs     int64  `json:"build_ns"`
	Comparisons int64  `json:"comparisons"`
	// Quality is the sum of the builder's edge similarities over the sum
	// of the exact top-k's, averaged over the sampled users (1.0 = every
	// sampled neighborhood is as good as exact).
	Quality float64 `json:"quality"`
	// Recall is the sampled mean overlap with the exact top-k edge set.
	Recall float64 `json:"recall"`
}

// ClusterBench is the NNDescent-vs-cluster build comparison plus the
// entry-seeding comparison on the cluster-built graph.
type ClusterBench struct {
	N            int `json:"n"`
	K            int `json:"k"`
	SampledUsers int `json:"sampled_users"`

	NNDescent BuilderBench `json:"nndescent"`
	Cluster   BuilderBench `json:"cluster"`
	// BuildSpeedup is NNDescent build ns over cluster build ns.
	BuildSpeedup float64 `json:"build_speedup"`

	// Entry seeding on the cluster graph: recall and hops of GraphSearch
	// with the default evenly-spread seeds vs seeds drawn from the query
	// fingerprint's own cluster buckets (the service's serving path for
	// cluster epochs).
	SeededQueries     int     `json:"seeded_queries"`
	DefaultSeedRecall float64 `json:"default_seed_recall"`
	ClusterSeedRecall float64 `json:"cluster_seed_recall"`
	DefaultSeedHops   float64 `json:"default_seed_hops"`
	ClusterSeedHops   float64 `json:"cluster_seed_hops"`
}

// QueryBench is one scan-vs-graph serving comparison on a clustered
// corpus of N users.
type QueryBench struct {
	N int `json:"n"`
	K int `json:"k"`
	// Builder is the algorithm that produced the navigated graph.
	Builder string `json:"builder"`
	// GraphBuildNs is the one-off cost the graph path amortizes: the
	// graph build plus symmetrizing it into the navigable form.
	GraphBuildNs int64 `json:"graph_build_ns"`
	// ScanP50Ns / GraphP50Ns are median per-query latencies over the
	// held-out query set.
	ScanP50Ns  int64   `json:"scan_p50_ns"`
	GraphP50Ns int64   `json:"graph_p50_ns"`
	Speedup    float64 `json:"speedup"`
	// RecallAtK is the graph path's mean recall against the exact scan.
	RecallAtK float64 `json:"recall_at_k"`
	// Fallbacks counts queries whose graph result came back short (the
	// service would have served the scan instead).
	Fallbacks int `json:"fallbacks"`
	// AvgHops/AvgScored/AvgAbandoned describe the descent: nodes
	// expanded, exact similarity computations, candidates rejected by the
	// prefix-popcount bound without one.
	AvgHops      float64 `json:"avg_hops"`
	AvgScored    float64 `json:"avg_scored"`
	AvgAbandoned float64 `json:"avg_abandoned"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchknn", flag.ContinueOnError)
	n := fs.Int("n", 10000, "number of synthetic users")
	bits := fs.Int("bits", 1024, "SHF length")
	k := fs.Int("k", 10, "neighborhood size")
	seed := fs.Int64("seed", 42, "random seed")
	reps := fs.Int("reps", 1, "build repetitions (best-of)")
	queries := fs.Int("queries", 30, "query repetitions (best-of)")
	qn := fs.Int("qn", 100000, "cluster-vs-nndescent and scan-vs-graph bench corpus size (0 disables)")
	big := fs.Bool("big", false, "add an n=1M scan-vs-graph run on a cluster-built graph")
	outPath := fs.String("out", "BENCH_knn.json", "output JSON path ('-' for stdout only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 2 || *k < 1 || *reps < 1 || *queries < 1 {
		return fmt.Errorf("need n >= 2, k >= 1, reps >= 1, queries >= 1")
	}
	if *qn != 0 && *qn < 2 {
		return fmt.Errorf("need qn >= 2 (or 0 to disable)")
	}

	rng := rand.New(rand.NewSource(*seed))
	profiles := make([]profile.Profile, *n)
	for i := range profiles {
		items := make([]profile.ItemID, 0, 60)
		for j := 0; j < 60; j++ {
			items = append(items, profile.ItemID(rng.Intn(5000)))
		}
		profiles[i] = profile.New(items...)
	}
	scheme, err := core.NewScheme(*bits, uint64(*seed))
	if err != nil {
		return err
	}
	shf := knn.NewSHFProvider(scheme, profiles)
	corpus := scheme.PackProfiles(profiles, 0)
	fps := scheme.FingerprintAll(profiles)

	rep := Report{
		N:          *n,
		Bits:       *bits,
		K:          *k,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		MeasuredAt: time.Now().UTC().Format(time.RFC3339),
	}

	fmt.Fprintf(out, "benchknn: n=%d bits=%d k=%d (reps=%d queries=%d)\n", *n, *bits, *k, *reps, *queries)

	var legacyComps, packedComps int64
	legacyNs := bestOf(*reps, func() {
		_, stats := knn.LegacyBruteForce(shf, *k, knn.Options{})
		legacyComps = stats.Comparisons
	})
	packedNs := bestOf(*reps, func() {
		_, stats := knn.BruteForce(shf, *k, knn.Options{})
		packedComps = stats.Comparisons
	})
	if legacyComps != packedComps {
		return fmt.Errorf("comparison counts diverge: legacy %d vs packed %d", legacyComps, packedComps)
	}
	rep.BruteForceBuild = pair(legacyNs, packedNs)
	fmt.Fprintf(out, "  bruteforce build: legacy %v  packed %v  (%.2fx)\n",
		time.Duration(legacyNs), time.Duration(packedNs), rep.BruteForceBuild.Speedup)

	q := scheme.Fingerprint(profiles[0])
	perPairNs := bestOf(*queries, func() {
		knn.TopK(len(fps), *k, 0, func(i int) float64 { return core.Jaccard(q, fps[i]) })
	})
	packedQueryNs := bestOf(*queries, func() {
		knn.TopKRange(corpus.NumUsers(), *k, 0, func(lo, hi int, out []float64) {
			corpus.JaccardQueryInto(q, lo, hi, out)
		})
	})
	rep.TopKQuery = pair(perPairNs, packedQueryNs)
	fmt.Fprintf(out, "  topk query:       per-pair %v  packed %v  (%.2fx)\n",
		time.Duration(perPairNs), time.Duration(packedQueryNs), rep.TopKQuery.Speedup)

	if *qn > 0 {
		bc, err := makeBenchCorpus(*qn, *queries, *bits, *seed, true)
		if err != nil {
			return err
		}
		cb, nnGraph, nnBuildNs, err := clusterBench(bc, *k, *seed, out)
		if err != nil {
			return err
		}
		rep.ClusterBuild = &cb
		qb, err := queryBench(bc, "nndescent", nnGraph, nnBuildNs, nil, *k, out)
		if err != nil {
			return err
		}
		rep.Query = append(rep.Query, qb)
		ob, err := onlineBench(bc, nnGraph, *k, out)
		if err != nil {
			return err
		}
		rep.OnlineInsert = &ob
	}
	if *big {
		bc, err := makeBenchCorpus(1_000_000, *queries, *bits, *seed, false)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  query bench n=%d: building cluster graph...\n", bc.corpus.NumUsers())
		provider := knn.NewPackedSHFProvider(bc.corpus)
		buildStart := time.Now()
		g, asn, _ := knn.ClusterConquerWith(provider, *k, knn.Options{Seed: *seed}, knn.ClusterConfig{})
		buildNs := time.Since(buildStart).Nanoseconds()
		qb, err := queryBench(bc, "cluster", g, buildNs, asn, *k, out)
		if err != nil {
			return err
		}
		rep.Query = append(rep.Query, qb)
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if *outPath == "-" {
		_, err = out.Write(blob)
		return err
	}
	if err := os.WriteFile(*outPath, blob, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", *outPath)
	return nil
}

// benchCorpus is the community-structured corpus shared by the cluster,
// query and online sections at one size: size packed member fingerprints
// plus nq held-out query fingerprints from the same generator. fps holds
// the members' unpacked fingerprints when keepFPs was set (the online
// maintainer needs them; skipped at -big scale to keep peak memory down).
type benchCorpus struct {
	scheme  *core.Scheme
	corpus  *core.PackedCorpus
	queries []core.Fingerprint
	fps     []core.Fingerprint
}

func makeBenchCorpus(size, nq, bits int, seed int64, keepFPs bool) (*benchCorpus, error) {
	scale := float64(size+nq+2) / float64(dataset.ML10M.Users)
	ds := dataset.Generate(dataset.ML10M, scale, seed)
	if len(ds.Profiles) < size+nq {
		return nil, fmt.Errorf("bench corpus: generator produced %d users, need %d", len(ds.Profiles), size+nq)
	}
	scheme, err := core.NewScheme(bits, uint64(seed))
	if err != nil {
		return nil, err
	}
	bc := &benchCorpus{
		scheme:  scheme,
		corpus:  scheme.PackProfiles(ds.Profiles[:size], 0),
		queries: make([]core.Fingerprint, nq),
	}
	for i := range bc.queries {
		bc.queries[i] = scheme.Fingerprint(ds.Profiles[size+i])
	}
	if keepFPs {
		bc.fps = scheme.FingerprintAll(ds.Profiles[:size])
	}
	return bc, nil
}

// groundTruthSample holds the exact (self-excluded) top-k of a sampled
// user, for scoring approximate builders.
type groundTruthSample struct {
	user  int
	exact []knn.Neighbor
}

// sampleGroundTruth computes the exact top-k for up to maxSamples evenly
// spaced users via the packed one-vs-many kernel — O(sample·n) instead of
// the O(n²) full brute force, which at n=100k would dominate the bench.
func sampleGroundTruth(c *core.PackedCorpus, k, maxSamples int) []groundTruthSample {
	n := c.NumUsers()
	s := min(maxSamples, n)
	out := make([]groundTruthSample, 0, s)
	for i := 0; i < s; i++ {
		u := i * n / s
		// k+1 then drop u: the scan includes the user itself at sim 1.
		top := knn.TopKRange(n, k+1, 0, func(lo, hi int, dst []float64) {
			c.JaccardRangeInto(u, lo, hi, dst)
		})
		exact := make([]knn.Neighbor, 0, k)
		for _, nb := range top {
			if int(nb.ID) != u && len(exact) < k {
				exact = append(exact, nb)
			}
		}
		out = append(out, groundTruthSample{user: u, exact: exact})
	}
	return out
}

// scoreBuilder computes sampled quality and recall of a built graph
// against the exact ground truth.
func scoreBuilder(g *knn.Graph, truth []groundTruthSample) (quality, recall float64) {
	if len(truth) == 0 {
		return 1, 1
	}
	for _, gt := range truth {
		var exactSum float64
		in := make(map[int32]bool, len(gt.exact))
		for _, nb := range gt.exact {
			exactSum += nb.Sim
			in[nb.ID] = true
		}
		var gotSum float64
		hits := 0
		for _, nb := range g.Neighbors[gt.user] {
			gotSum += nb.Sim
			if in[nb.ID] {
				hits++
			}
		}
		if exactSum > 0 {
			quality += gotSum / exactSum
		} else {
			quality++
		}
		if len(gt.exact) > 0 {
			recall += float64(hits) / float64(len(gt.exact))
		} else {
			recall++
		}
	}
	quality /= float64(len(truth))
	recall /= float64(len(truth))
	return quality, recall
}

// clusterSeeds mirrors the service's entry seeding for cluster epochs:
// bucket-derived seeds from the query's own clusters plus a small
// evenly-spaced spread as a connectivity hedge.
func clusterSeeds(asn *cluster.Assignment, fp core.Fingerprint, n int) []int32 {
	return knn.DefaultSeeds(asn.Seeds(fp.Bits().Words(), 48), n)
}

// clusterBench builds the corpus's KNN graph with NNDescent and with the
// cluster-and-conquer builder, scores both against the sampled exact
// ground truth, and compares default vs bucket-derived GraphSearch entry
// seeding on the cluster graph. It returns the NNDescent graph (and its
// build time) so the query section can reuse it instead of building twice.
func clusterBench(bc *benchCorpus, k int, seed int64, out io.Writer) (ClusterBench, *knn.Graph, int64, error) {
	size := bc.corpus.NumUsers()
	provider := knn.NewPackedSHFProvider(bc.corpus)

	// Collect before each timed build (as testing.B does) so neither
	// builder pays for the other's garbage on the one available core.
	fmt.Fprintf(out, "  cluster bench n=%d: building nndescent graph...\n", size)
	runtime.GC()
	nnStart := time.Now()
	nnGraph, nnStats := knn.NNDescent(provider, k, knn.Options{Seed: seed})
	nnNs := time.Since(nnStart).Nanoseconds()

	fmt.Fprintf(out, "  cluster bench n=%d: building cluster graph...\n", size)
	runtime.GC()
	clStart := time.Now()
	clGraph, asn, clStats := knn.ClusterConquerWith(provider, k, knn.Options{Seed: seed}, knn.ClusterConfig{})
	clNs := time.Since(clStart).Nanoseconds()

	truth := sampleGroundTruth(bc.corpus, k, 200)
	cb := ClusterBench{
		N: size, K: k, SampledUsers: len(truth),
		NNDescent: BuilderBench{Algo: "nndescent", BuildNs: nnNs, Comparisons: nnStats.Comparisons},
		Cluster:   BuilderBench{Algo: "cluster", BuildNs: clNs, Comparisons: clStats.Comparisons},
	}
	cb.NNDescent.Quality, cb.NNDescent.Recall = scoreBuilder(nnGraph, truth)
	cb.Cluster.Quality, cb.Cluster.Recall = scoreBuilder(clGraph, truth)
	if clNs > 0 {
		cb.BuildSpeedup = float64(nnNs) / float64(clNs)
	}
	fmt.Fprintf(out, "  cluster build:    nndescent %v (q %.3f, r %.3f)  cluster %v (q %.3f, r %.3f)  (%.2fx)\n",
		time.Duration(nnNs), cb.NNDescent.Quality, cb.NNDescent.Recall,
		time.Duration(clNs), cb.Cluster.Quality, cb.Cluster.Recall, cb.BuildSpeedup)

	// Entry seeding: same held-out queries, same cluster graph, recall vs
	// the exact scan under default vs bucket-derived seeds.
	nav := clGraph.Navigable(provider)
	cb.SeededQueries = len(bc.queries)
	for _, fp := range bc.queries {
		exact, err := knn.TopKRangeCtx(nil, size, k, 0, func(lo, hi int, dst []float64) {
			bc.corpus.JaccardQueryInto(fp, lo, hi, dst)
		})
		if err != nil {
			return ClusterBench{}, nil, 0, err
		}
		scorer := bc.corpus.NewQueryScorer(fp)
		def, defStats, err := knn.GraphSearch(nav, scorer, k, knn.SearchOptions{})
		if err != nil {
			return ClusterBench{}, nil, 0, err
		}
		sed, sedStats, err := knn.GraphSearch(nav, scorer, k, knn.SearchOptions{
			Seeds: clusterSeeds(asn, fp, size),
		})
		if err != nil {
			return ClusterBench{}, nil, 0, err
		}
		cb.DefaultSeedRecall += recallOf(def, exact)
		cb.ClusterSeedRecall += recallOf(sed, exact)
		cb.DefaultSeedHops += float64(defStats.Hops)
		cb.ClusterSeedHops += float64(sedStats.Hops)
	}
	if nq := float64(len(bc.queries)); nq > 0 {
		cb.DefaultSeedRecall /= nq
		cb.ClusterSeedRecall /= nq
		cb.DefaultSeedHops /= nq
		cb.ClusterSeedHops /= nq
	}
	fmt.Fprintf(out, "  entry seeding:    default recall %.3f (%.1f hops)  cluster recall %.3f (%.1f hops)\n",
		cb.DefaultSeedRecall, cb.DefaultSeedHops, cb.ClusterSeedRecall, cb.ClusterSeedHops)
	return cb, nnGraph, nnNs, nil
}

func recallOf(got, exact []knn.Neighbor) float64 {
	if len(exact) == 0 {
		return 1
	}
	in := make(map[int32]bool, len(got))
	for _, nb := range got {
		in[nb.ID] = true
	}
	hits := 0
	for _, nb := range exact {
		if in[nb.ID] {
			hits++
		}
	}
	return float64(hits) / float64(len(exact))
}

// queryBench measures exact-scan vs graph-navigated top-k serving on the
// bench corpus: symmetrize the prebuilt graph into its navigable form,
// then run the held-out queries through both paths, the scan doubling as
// ground truth for the graph path's recall. When asn is non-nil the graph
// queries use bucket-derived entry seeds (the service's path for cluster
// epochs); otherwise the default evenly-spread seeds.
func queryBench(bc *benchCorpus, builder string, g *knn.Graph, buildNs int64, asn *cluster.Assignment, k int, out io.Writer) (QueryBench, error) {
	size := bc.corpus.NumUsers()
	provider := knn.NewPackedSHFProvider(bc.corpus)
	navStart := time.Now()
	nav := g.Navigable(provider)
	buildNs += time.Since(navStart).Nanoseconds()

	qb := QueryBench{N: size, K: k, Builder: builder, GraphBuildNs: buildNs}
	nq := len(bc.queries)
	scanNs := make([]int64, 0, nq)
	graphNs := make([]int64, 0, nq)
	var recall float64
	for _, fp := range bc.queries {
		start := time.Now()
		exact, err := knn.TopKRangeCtx(nil, size, k, 0, func(lo, hi int, dst []float64) {
			bc.corpus.JaccardQueryInto(fp, lo, hi, dst)
		})
		scanNs = append(scanNs, time.Since(start).Nanoseconds())
		if err != nil {
			return QueryBench{}, err
		}

		var opts knn.SearchOptions
		if asn != nil {
			opts.Seeds = clusterSeeds(asn, fp, size)
		}
		start = time.Now()
		got, stats, err := knn.GraphSearch(nav, bc.corpus.NewQueryScorer(fp), k, opts)
		graphNs = append(graphNs, time.Since(start).Nanoseconds())
		if err != nil {
			return QueryBench{}, err
		}
		if len(got) < min(k, size) {
			qb.Fallbacks++
		}
		recall += recallOf(got, exact)
		qb.AvgHops += float64(stats.Hops)
		qb.AvgScored += float64(stats.Scored)
		qb.AvgAbandoned += float64(stats.Abandoned)
	}
	qb.RecallAtK = recall / float64(nq)
	qb.AvgHops /= float64(nq)
	qb.AvgScored /= float64(nq)
	qb.AvgAbandoned /= float64(nq)
	qb.ScanP50Ns = median(scanNs)
	qb.GraphP50Ns = median(graphNs)
	if qb.GraphP50Ns > 0 {
		qb.Speedup = float64(qb.ScanP50Ns) / float64(qb.GraphP50Ns)
	}
	fmt.Fprintf(out, "  query n=%d:       scan p50 %v  graph p50 %v  (%.2fx, recall@%d %.3f, %d fallbacks)\n",
		size, time.Duration(qb.ScanP50Ns), time.Duration(qb.GraphP50Ns), qb.Speedup, k, qb.RecallAtK, qb.Fallbacks)
	return qb, nil
}

// onlineBench measures the live-mutation path: an Online maintainer is
// seeded with the prebuilt graph, then timed through a burst of inserts
// (cycling the held-out query fingerprints), overwrites and deletes. Each
// op is a beam search plus bounded reverse-edge repair, so the latencies
// must stay flat in n — p99 insert in single-digit milliseconds at -qn
// 100k is the acceptance bar `make check` watches via benchquery.
func onlineBench(bc *benchCorpus, g *knn.Graph, k int, out io.Writer) (OnlineBench, error) {
	size := bc.corpus.NumUsers()
	if len(bc.fps) != size {
		return OnlineBench{}, fmt.Errorf("online bench: corpus kept %d fingerprints, need %d", len(bc.fps), size)
	}
	o, err := knn.NewOnline(g, nil, append([]core.Fingerprint(nil), bc.fps...), nil, k, uint64(size))
	if err != nil {
		return OnlineBench{}, err
	}

	const targetInserts = 200
	inserts := max(len(bc.queries), min(targetInserts, 4*len(bc.queries)))
	insNs := make([]int64, 0, inserts)
	var comparisons int64
	runtime.GC()
	for i := 0; i < inserts; i++ {
		fp := bc.queries[i%len(bc.queries)]
		start := time.Now()
		_, res := o.Insert(fp)
		insNs = append(insNs, time.Since(start).Nanoseconds())
		comparisons += int64(res.Comparisons)
	}

	nOps := min(100, size/2)
	ovrNs := make([]int64, 0, nOps)
	for i := 0; i < nOps; i++ {
		node := int32(i * size / max(nOps, 1))
		fp := bc.queries[i%len(bc.queries)]
		start := time.Now()
		if _, err := o.Overwrite(node, fp); err != nil {
			return OnlineBench{}, err
		}
		ovrNs = append(ovrNs, time.Since(start).Nanoseconds())
	}
	nDel := min(nOps, inserts)
	delNs := make([]int64, 0, nDel)
	snapNs := make([]int64, 0, nDel)
	for i := 0; i < nDel; i++ {
		node := int32(size + i) // the freshly inserted nodes
		start := time.Now()
		if _, err := o.Delete(node); err != nil {
			return OnlineBench{}, err
		}
		delNs = append(delNs, time.Since(start).Nanoseconds())
		// The delete published its snapshot before returning, so this
		// times what a reader pays after a mutation: one atomic load.
		start = time.Now()
		o.Snapshot()
		snapNs = append(snapNs, time.Since(start).Nanoseconds())
	}

	ob := OnlineBench{
		N: size, K: k,
		Inserts:        inserts,
		InsertP50Ns:    median(insNs),
		InsertP99Ns:    percentile(insNs, 99),
		AvgComparisons: float64(comparisons) / float64(inserts),
		Overwrites:     nOps,
		OverwriteP50Ns: median(ovrNs),
		Deletes:        nDel,
		DeleteP50Ns:    median(delNs),
		SnapshotP50Ns:  median(snapNs),
	}
	fmt.Fprintf(out, "  online n=%d:      insert p50 %v p99 %v (%.0f cmps)  overwrite p50 %v  delete p50 %v  snapshot p50 %v\n",
		size, time.Duration(ob.InsertP50Ns), time.Duration(ob.InsertP99Ns), ob.AvgComparisons,
		time.Duration(ob.OverwriteP50Ns), time.Duration(ob.DeleteP50Ns), time.Duration(ob.SnapshotP50Ns))
	return ob, nil
}

// percentile returns the p-th percentile (nearest-rank) of ns; sorts in
// place.
func percentile(ns []int64, p int) int64 {
	if len(ns) == 0 {
		return 0
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	idx := len(ns) * p / 100
	if idx >= len(ns) {
		idx = len(ns) - 1
	}
	return ns[idx]
}

func median(ns []int64) int64 {
	if len(ns) == 0 {
		return 0
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	return ns[len(ns)/2]
}

// bestOf runs f reps times and returns the fastest wall-clock run in
// nanoseconds — the standard way to strip scheduler/GC noise from a
// single-number measurement.
func bestOf(reps int, f func()) int64 {
	best := int64(0)
	for r := 0; r < reps; r++ {
		start := time.Now()
		f()
		d := time.Since(start).Nanoseconds()
		if best == 0 || d < best {
			best = d
		}
	}
	return best
}

func pair(before, after int64) Pair {
	p := Pair{BeforeNsOp: before, AfterNsOp: after}
	if after > 0 {
		p.Speedup = float64(before) / float64(after)
	}
	return p
}
