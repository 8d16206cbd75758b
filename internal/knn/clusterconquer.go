package knn

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"goldfinger/internal/cluster"
	"goldfinger/internal/core"
	"goldfinger/internal/obs"
	"goldfinger/internal/profile"
)

// ClusterConfig tunes the Cluster-and-Conquer builder beyond the shared
// Options. The zero value selects the defaults.
type ClusterConfig struct {
	// Views is t, the number of independent cluster views; 0 means
	// cluster.DefaultViews.
	Views int
	// MaxClusterSize bounds every cluster; 0 means cluster.DefaultMaxSize.
	MaxClusterSize int
	// RefineSweeps bounds the neighbors-of-neighbors refinement sweeps
	// that follow the merge; 0 means defaultRefineSweeps. Sweeps stop
	// early under the same δ·k·n rule as NNDescent (Options.Delta), so
	// the bound only matters on data where refinement keeps finding work.
	RefineSweeps int
	// NoRefine skips the refinement sweeps entirely.
	NoRefine bool
}

// defaultRefineSweeps caps the refinement loop. The cluster scan already
// starts the graph close to converged — three reverse-augmented sweeps
// recover the cross-cluster edges (measured recall at n=100k matches
// NNDescent's; the benchmark tracks it as knn.cc_recall) — so unlike
// NNDescent's 30-iteration default from a random start, a small cap is
// the speed lever here: further sweeps buy tenths of a percent for ~15%
// more build time each.
const defaultRefineSweeps = 3

// ClusterConquer builds an approximate KNN graph with the
// Cluster-and-Conquer strategy (Giakkoupis, Kermarrec, Ruas,
// arXiv:2010.11497): bucket users into t overlapping cluster views with
// cheap fingerprint-derived min-wise hashes (internal/cluster), run the
// packed-corpus brute-force kernel independently inside every cluster,
// merge the t per-view candidate sets per user, and finish with
// NNDescent-style refinement sweeps over neighbors-of-neighbors until
// the graph goes update-dry (the δ·k·n rule). Total
// similarity work is near-linear — Σ clusterSize²/2 per view instead of
// n²/2 — which is what makes it the first builder here that keeps
// scaling past the quadratic wall at n=100k+.
//
// Phases and contract match the other builders: "bucket", "scan",
// "merge", "refine" duration histograms plus progress gauges via
// Options.Obs; cancellation via Options.Ctx between work units with a
// partial-but-valid graph returned; fully deterministic output for a
// fixed (provider, k, Seed, config) regardless of worker count.
func ClusterConquer(p Provider, k int, opts Options) (*Graph, Stats) {
	g, _, st := ClusterConquerWith(p, k, opts, ClusterConfig{})
	return g, st
}

// ClusterConquerWith is ClusterConquer with explicit tuning, additionally
// returning the cluster assignment so callers (the service's query path)
// can reuse the same hashes for search entry-point seeding.
func ClusterConquerWith(p Provider, k int, opts Options, cfg ClusterConfig) (*Graph, *cluster.Assignment, Stats) {
	n := p.NumUsers()
	g := &Graph{K: k, Neighbors: make([][]Neighbor, n)}
	if n == 0 {
		return g, &cluster.Assignment{}, Stats{}
	}
	kCap := min(k, n-1)
	if kCap <= 0 {
		for u := range g.Neighbors {
			g.Neighbors[u] = []Neighbor{}
		}
		return g, &cluster.Assignment{}, Stats{}
	}

	workers := opts.workers()
	ctx := opts.ctx()
	m := opts.metrics()

	bucketHist := m.phase("bucket")
	bucketStart := time.Now()
	asn := cluster.Assign(clusterSource(p, workers), cluster.Config{
		Views:   cfg.Views,
		MaxSize: cfg.MaxClusterSize,
		Seed:    opts.Seed,
		Workers: workers,
		Ctx:     ctx,
	})
	bucketHist.ObserveSince(bucketStart)

	// Flatten the (view, cluster) pairs into one work list; singleton
	// clusters contribute no pairs and are skipped outright.
	type workItem struct{ view, cl int32 }
	var items []workItem
	for vi := range asn.Views {
		for ci, members := range asn.Views[vi].Clusters {
			if len(members) >= 2 {
				items = append(items, workItem{int32(vi), int32(ci)})
			}
		}
	}
	sweeps := cfg.RefineSweeps
	if sweeps <= 0 {
		sweeps = defaultRefineSweeps
	}
	if cfg.NoRefine {
		sweeps = 0
	}
	// Progress total is an upper bound: refinement usually converges and
	// stops before exhausting its sweep budget, exactly like NNDescent's
	// iteration gauge.
	refineBlocks := (n + refineRowBlock - 1) / refineRowBlock
	m.startProgress(int64(len(items) + sweeps*refineBlocks))

	// One candidate array per view. Within a view every user belongs to
	// exactly one cluster, and every cluster is scanned by exactly one
	// work item, so concurrent items of the same view touch disjoint rows
	// of the view's array — no locks, no atomics, and the per-row insert
	// order is fixed by the cluster's single scanner, which is what makes
	// the output worker-count independent.
	locals := make([]*bruteLocal, len(asn.Views))
	for vi := range locals {
		locals[vi] = &bruteLocal{
			nbrs:     make([]Neighbor, n*kCap),
			cnt:      make([]int32, n),
			worstPos: make([]int32, n),
			kCap:     kCap,
		}
	}

	scanHist := m.phase("scan")
	scanStart := time.Now()
	// Workers accumulate each cluster into a dense scratch sized to the
	// largest cluster (≤ MaxSize rows — L2-resident) and fold the finished
	// rows into the view's n-row array once per cluster: the per-pair
	// inserts all hit the small scratch instead of scattering across a
	// multi-megabyte array, which is where the scan's cache misses were.
	maxClusterLen := 0
	for _, it := range items {
		if l := len(asn.Views[it.view].Clusters[it.cl]); l > maxClusterLen {
			maxClusterLen = l
		}
	}
	var comparisons, updates atomic.Int64
	var cursor atomic.Int64
	var wg sync.WaitGroup
	scanWorkers := min(workers, max(len(items), 1))
	for w := 0; w < scanWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]float64, bruteColTile)
			dense := &bruteLocal{
				nbrs:     make([]Neighbor, maxClusterLen*kCap),
				cnt:      make([]int32, maxClusterLen),
				worstPos: make([]int32, maxClusterLen),
				kCap:     kCap,
			}
			lc := obs.Local{C: m.comparisons}
			defer lc.Flush()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(cursor.Add(1)) - 1
				if i >= len(items) {
					return
				}
				it := items[i]
				comps, ups := scanCluster(p, asn.Views[it.view].Clusters[it.cl], locals[it.view], dense, buf)
				comparisons.Add(comps)
				updates.Add(ups)
				lc.Add(comps)
				lc.Flush()
				m.progressDone.Add(1)
			}
		}()
	}
	wg.Wait()
	scanHist.ObserveSince(scanStart)

	mergeHist := m.phase("merge")
	mergeStart := time.Now()
	mergeViews(g, locals, kCap, workers)
	mergeHist.ObserveSince(mergeStart)

	st := Stats{Comparisons: comparisons.Load(), Updates: updates.Load()}
	if sweeps > 0 && ctx.Err() == nil {
		refineHist := m.phase("refine")
		refineStart := time.Now()
		threshold := int64(opts.delta() * float64(kCap) * float64(n))
		order := refineOrder(asn, n)
		var changed []bool
		for s := 0; s < sweeps && ctx.Err() == nil; s++ {
			var rc, ru int64
			rc, ru, changed = refineSweep(p, g, order, kCap, workers, opts, m, changed)
			st.Comparisons += rc
			st.Updates += ru
			st.Iterations++
			if ru <= threshold {
				break
			}
		}
		refineHist.ObserveSince(refineStart)
	}
	return g, asn, st
}

// scanCluster runs the tiled lower-triangle brute-force scan over one
// cluster's members. The subset provider keeps the batched one-vs-many
// kernel: for SHF providers the members' rows are gathered into a dense
// mini-corpus first, so the inner loop streams contiguous memory exactly
// like the full BruteForce does. Pairs are inserted under *dense* cluster
// indices into the worker's scratch — small enough to stay in cache across
// the whole O(size²) scan — and the finished rows are remapped to global
// user ids and copied into the view's array once at the end. The copy is
// safe lock-free: within a view every user belongs to exactly one cluster,
// so no other work item touches these rows.
func scanCluster(p Provider, members []int32, l, dense *bruteLocal, buf []float64) (comps, ups int64) {
	sub := subsetOf(p, members)
	batch, _ := sub.(BatchProvider)
	mn := len(members)
	clear(dense.cnt[:mn])
	for i := 0; i < mn; i++ {
		for jlo := i + 1; jlo < mn; jlo += bruteColTile {
			jhi := min(jlo+bruteColTile, mn)
			tile := buf[:jhi-jlo]
			if batch != nil {
				batch.SimilarityRange(i, jlo, jhi, tile)
			} else {
				for j := jlo; j < jhi; j++ {
					tile[j-jlo] = sub.Similarity(i, j)
				}
			}
			for j := jlo; j < jhi; j++ {
				s := tile[j-jlo]
				if dense.insert(i, int32(j), s) {
					ups++
				}
				if dense.insert(j, int32(i), s) {
					ups++
				}
			}
		}
		comps += int64(mn - i - 1)
	}
	kCap := dense.kCap
	for i := 0; i < mn; i++ {
		c := int(dense.cnt[i])
		src := dense.nbrs[i*kCap : i*kCap+c]
		dst := l.nbrs[int(members[i])*kCap:]
		for x, e := range src {
			dst[x] = Neighbor{ID: members[e.ID], Sim: e.Sim}
		}
		l.cnt[members[i]] = int32(c)
	}
	return comps, ups
}

// mergeViews folds the t per-view candidate arrays into final sorted
// neighbor lists. Unlike mergeLocals, the same pair can appear in several
// views, so candidates already selected are skipped by id; a candidate
// whose duplicate was previously evicted re-ranks identically (same sim,
// same id under the strict total order) and is rejected by the worst-entry
// comparison, so the output carries no duplicates either way.
func mergeViews(g *Graph, locals []*bruteLocal, kCap, workers int) {
	n := len(g.Neighbors)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			sel := make([]Neighbor, 0, kCap)
			for x := lo; x < hi; x++ {
				sel = sel[:0]
				worst := 0
				for _, l := range locals {
					base := x * kCap
					for _, cand := range l.nbrs[base : base+int(l.cnt[x])] {
						if hasNeighborID(sel, cand.ID) {
							continue
						}
						if len(sel) < kCap {
							sel = append(sel, cand)
							if len(sel) == kCap {
								worst = findWorst(sel)
							}
							continue
						}
						if ranksBelow(sel[worst], cand) {
							sel[worst] = cand
							worst = findWorst(sel)
						}
					}
				}
				out := make([]Neighbor, len(sel))
				copy(out, sel)
				slices.SortFunc(out, compareRank)
				g.Neighbors[x] = out
			}
		}(lo, hi)
	}
	wg.Wait()
}

// hasNeighborID reports whether id already occurs in nb. Linear — nb is
// at most k entries.
func hasNeighborID(nb []Neighbor, id int32) bool {
	for i := range nb {
		if nb[i].ID == id {
			return true
		}
	}
	return false
}

// refineRowBlock is the number of users a refine worker claims per cursor
// bump.
const refineRowBlock = 256

// refineMaxReverse returns the cap on the reverse-neighbor list a refine
// sweep considers per user (2k): Zipf hub users accumulate thousands of
// in-edges, and scoring all of them would turn one hub row into a partial
// scan. Oversized lists are stride-sampled deterministically, mirroring
// NNDescent's ρ-sampling of reverse lists (but without its RNG, to keep
// the sweep worker-count independent).
func refineMaxReverse(kCap int) int { return 2 * kCap }

// refineOrder is the order refinement visits users in: view 0's clusters
// one after another. Members of a cluster share most of their
// neighbors-of-neighbors, so consecutive rows find their candidates' rows
// and lists still in cache. Without a complete view it is id order.
func refineOrder(asn *cluster.Assignment, n int) []int32 {
	order := make([]int32, 0, n)
	if len(asn.Views) > 0 {
		for _, members := range asn.Views[0].Clusters {
			order = append(order, members...)
		}
	}
	if len(order) != n {
		order = order[:0]
		for u := range n {
			order = append(order, int32(u))
		}
	}
	return order
}

// refineSweep runs one NNDescent-style pass over the graph: every user
// rescores the union of its neighbors, its reverse neighbors, and both
// sets' neighbors against itself, and keeps the top k. The reverse lists
// matter: sweep workers write only their own users' rows (that is what
// keeps the sweep lock-free), so a true edge u→v whose reverse v→u the
// cluster scan missed can only ever be found by v looking *backwards* —
// forward-only expansion would never converge past the clusters' blind
// spots. Workers read an immutable snapshot of the pre-sweep rows, so
// the sweep is deterministic, whatever order (a permutation of the users)
// the rows are claimed in, block by block; cancellation between row blocks
// leaves the untouched users on their previous rows — still valid.
//
// changedPrev (nil on the first sweep) marks the rows the previous sweep
// rewrote: a user whose row and whose candidate sources' rows are all
// unchanged cannot select differently and is skipped outright, which is
// what makes the convergence tail cheap. Returns this sweep's changed
// marks for the next one.
func refineSweep(p Provider, g *Graph, order []int32, kCap, workers int, opts Options, m buildMetrics, changedPrev []bool) (int64, int64, []bool) {
	n := len(g.Neighbors)
	// Rows are never mutated in place (each refined row is a fresh
	// slice), so copying the headers snapshots the pre-sweep graph.
	base := make([][]Neighbor, n)
	copy(base, g.Neighbors)
	ctx := opts.ctx()

	// Reverse adjacency of the snapshot, built sequentially so list order
	// (and with it the stride sample and the output) is deterministic.
	rev := make([][]int32, n)
	for u := 0; u < n; u++ {
		for _, nb := range base[u] {
			rev[nb.ID] = append(rev[nb.ID], int32(u))
		}
	}
	maxRev := refineMaxReverse(kCap)
	for v := range rev {
		if len(rev[v]) > maxRev {
			sampled := make([]int32, maxRev)
			for i := range sampled {
				sampled[i] = rev[v][i*len(rev[v])/maxRev]
			}
			rev[v] = sampled
		}
	}

	changed := make([]bool, n)
	numBlocks := (n + refineRowBlock - 1) / refineRowBlock
	// The candidate list is scattered by construction (neighbors of
	// neighbors), so the batched range kernel never applies here — the
	// gather kernel is what keeps u's row in registers across the list.
	gather, hasGather := p.(GatherProvider)
	var comparisons, updates atomic.Int64
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, numBlocks); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lc := obs.Local{C: m.comparisons}
			defer lc.Flush()
			// Epoch-stamped visited marks: one int32 per user beats a
			// map rebuild per row, and a worker processes at most n rows
			// so the epoch cannot wrap.
			stamp := make([]int32, n)
			epoch := int32(0)
			sel := make([]Neighbor, 0, kCap)
			cands := make([]int32, 0, (kCap+maxRev)*(kCap+1))
			sims := make([]float64, 0, cap(cands))
			for {
				if ctx.Err() != nil {
					return
				}
				b := int(cursor.Add(1)) - 1
				lo := b * refineRowBlock
				if lo >= n {
					return
				}
				hi := min(lo+refineRowBlock, n)
				var comps, ups int64
				for _, row := range order[lo:hi] {
					u := int(row)
					if len(base[u]) == 0 {
						continue
					}
					if changedPrev != nil && !refineRowDirty(u, base, rev, changedPrev) {
						continue
					}
					epoch++
					stamp[u] = epoch
					cands = cands[:0]
					for _, nb := range base[u] {
						if stamp[nb.ID] != epoch {
							stamp[nb.ID] = epoch
							cands = append(cands, nb.ID)
						}
						for _, nb2 := range base[nb.ID] {
							if stamp[nb2.ID] != epoch {
								stamp[nb2.ID] = epoch
								cands = append(cands, nb2.ID)
							}
						}
					}
					for _, r := range rev[u] {
						if stamp[r] != epoch {
							stamp[r] = epoch
							cands = append(cands, r)
						}
						for _, nb2 := range base[r] {
							if stamp[nb2.ID] != epoch {
								stamp[nb2.ID] = epoch
								cands = append(cands, nb2.ID)
							}
						}
					}
					if hasGather {
						if cap(sims) < len(cands) {
							sims = make([]float64, 0, len(cands)*2)
						}
						sims = sims[:len(cands)]
						gather.SimilarityGather(u, cands, sims)
					}
					sel = sel[:0]
					worst := 0
					for x, id := range cands {
						var cand Neighbor
						if hasGather {
							cand = Neighbor{ID: id, Sim: sims[x]}
						} else {
							cand = Neighbor{ID: id, Sim: p.Similarity(u, int(id))}
						}
						comps++
						if len(sel) < kCap {
							sel = append(sel, cand)
							if len(sel) == kCap {
								worst = findWorst(sel)
							}
							continue
						}
						if ranksBelow(sel[worst], cand) {
							sel[worst] = cand
							worst = findWorst(sel)
						}
					}
					out := make([]Neighbor, len(sel))
					copy(out, sel)
					slices.SortFunc(out, compareRank)
					rowUps := int64(0)
					for i := range out {
						if !hasNeighborID(base[u], out[i].ID) {
							rowUps++
						}
					}
					ups += rowUps
					if rowUps > 0 || !sameNeighborIDs(out, base[u]) {
						changed[u] = true
					}
					g.Neighbors[u] = out
				}
				comparisons.Add(comps)
				updates.Add(ups)
				lc.Add(comps)
				lc.Flush()
				m.progressDone.Add(1)
			}
		}()
	}
	wg.Wait()
	return comparisons.Load(), updates.Load(), changed
}

// refineRowDirty reports whether u's refine inputs moved since the last
// sweep: its own row, a forward neighbor's row, or a reverse neighbor's
// row. (A reverse neighbor's row change also covers the second-hop lists
// it contributes, because the contribution itself changed.)
func refineRowDirty(u int, base [][]Neighbor, rev [][]int32, changedPrev []bool) bool {
	if changedPrev[u] {
		return true
	}
	for _, nb := range base[u] {
		if changedPrev[nb.ID] {
			return true
		}
	}
	for _, r := range rev[u] {
		if changedPrev[r] {
			return true
		}
	}
	return false
}

// sameNeighborIDs reports whether two sorted neighbor lists select the
// same id set.
func sameNeighborIDs(a, b []Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			return false
		}
	}
	return true
}

// clusterSignatureBits is the fingerprint length of the signature corpus
// derived for providers that do not already carry packed SHF rows.
const clusterSignatureBits = 256

// clusterSource picks the bit rows the clustering hashes read. SHF
// providers expose their packed corpus directly — deriving the hashes
// costs no extra pass over raw profiles. Profile-backed providers get a
// one-off small signature corpus (the bucketing only needs a locality
// signal, not the full similarity estimator), and unknown providers fall
// back to index-derived pseudo-random rows, which degrades the clustering
// to random buckets but keeps the builder's contract intact.
func clusterSource(p Provider, workers int) cluster.Source {
	switch q := p.(type) {
	case *SHFProvider:
		if c := q.corpus(); c != nil {
			return c
		}
	case *SHFCosineProvider:
		if c := q.corpus(); c != nil {
			return c
		}
	case *CountingProvider:
		return clusterSource(q.Inner, workers)
	case *ExplicitProvider:
		return profileSource(q.Profiles, workers)
	case *FuncProvider:
		return profileSource(q.Profiles, workers)
	}
	return newIndexSource(p.NumUsers())
}

// profileSource fingerprints profiles into a small signature corpus under
// a fixed scheme, so explicit-profile builds cluster by real profile
// locality. The scheme seed is a constant: the clustering hashes are
// already seeded per build (Options.Seed), and a fixed scheme keeps
// signatures reproducible across builds of the same data.
func profileSource(profiles []profile.Profile, workers int) cluster.Source {
	return core.MustScheme(clusterSignatureBits, 0x5f1c_a99e).PackProfiles(profiles, workers)
}

// indexSource supplies pseudo-random 64-bit rows for providers with no
// inspectable profile or fingerprint data.
type indexSource struct{ words []uint64 }

func newIndexSource(n int) *indexSource {
	s := &indexSource{words: make([]uint64, n)}
	x := uint64(0x9e3779b97f4a7c15)
	for i := range s.words {
		x += 0x9e3779b97f4a7c15
		z := x
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		s.words[i] = z | 1 // nonzero so no row hits the empty-row sentinel
	}
	return s
}

func (s *indexSource) NumUsers() int { return len(s.words) }
func (s *indexSource) NumBits() int  { return 64 }
func (s *indexSource) Row(i int) []uint64 {
	return s.words[i : i+1 : i+1]
}
