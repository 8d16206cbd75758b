package knn

import (
	"context"
	"sort"
	"sync"

	"goldfinger/internal/cow"
)

// This file implements graph-navigated top-k search: instead of scanning
// the whole corpus (TopK), a query descends the already-built KNN graph
// greedily — the FINGER observation (arXiv:2206.11408) that a navigable
// graph plus a cheap approximate distance bound skips almost all exact
// similarity computations. The SHF analogue of FINGER's low-rank residual
// bound is the prefix-popcount bound in bitset.AndCountAbandon, surfaced
// here through SearchOracle.ScoreAbove.

// SearchOracle scores graph nodes against one implicit query. It is the
// distance oracle of GraphSearch; core.PackedCorpus.NewQueryScorer builds
// the production implementation over the packed AND+popcount kernels.
type SearchOracle interface {
	// Score returns the similarity of node v to the query.
	Score(v int32) float64
	// ScoreAbove returns the similarity of node v provided it can reach
	// floor: ok=false means the oracle proved sim(v) < floor without
	// computing it exactly (the early-abandon path) and the returned value
	// is meaningless. ok=true returns the exact similarity, which may
	// still be below floor. floor <= 0 must behave like Score.
	ScoreAbove(v int32, floor float64) (sim float64, ok bool)
}

// OracleFunc adapts a plain scoring function into a SearchOracle with no
// early-abandon capability (every call is exact).
type OracleFunc func(v int32) float64

// Score implements SearchOracle.
func (f OracleFunc) Score(v int32) float64 { return f(v) }

// ScoreAbove implements SearchOracle; it always scores exactly.
func (f OracleFunc) ScoreAbove(v int32, _ float64) (float64, bool) { return f(v), true }

// SearchOptions configures GraphSearch. The zero value selects sensible
// defaults for the paper's scales (k = 10..30).
type SearchOptions struct {
	// Ef is the beam width: the search maintains the ef best nodes seen so
	// far and keeps expanding until no candidate can improve them. Larger
	// ef trades latency for recall. 0 means max(64, 16k) — sized on the
	// synthetic ML10M shape, where it holds recall@10 ≥ 0.9 on an
	// NNDescent-built Navigable graph at both 10k and 100k while keeping
	// the p50 well under the exact scan's (see TestGraphScanParity10k and
	// BENCH_knn.json's query section); values below k are raised to k,
	// values above n clamp to n (at which point the "search" degenerates
	// into a scan — expected for tiny corpora).
	Ef int
	// NumSeeds is the number of evenly-spread entry points when Seeds is
	// nil. Multiple seeds hedge against greedy descent starting in the
	// wrong cluster of a directed KNN graph (which, unlike an HNSW, has no
	// long-range links): a cluster no seed lands in is unreachable, so the
	// default scales with the corpus, max(8, n/64). Seeding stays cheap —
	// once the beam fills, extra seeds are mostly rejected by the oracle's
	// early-abandon bound without a full similarity computation.
	NumSeeds int
	// Seeds overrides the entry points (node ids; out-of-range ids are
	// ignored).
	Seeds []int32
	// Exclude, when non-nil, marks nodes that must never appear in the
	// result: tombstoned (deleted) users of an online-maintained graph.
	// Excluded nodes are still scored and traversed — a dead hub keeps
	// bridging the regions its edges connect until lazy repair rewires
	// them — they just never enter the result beam.
	Exclude func(v int32) bool
	// Ctx cancels a running search: it is polled once per seed and once
	// per hop, and a canceled search returns ctx.Err() and no partial
	// result. Nil means never cancel.
	Ctx context.Context
}

// DefaultSeeds appends GraphSearch's default entry points for an n-node
// graph — max(8, n/64) evenly-spread node ids — to dst and returns it.
// Callers that pass explicit SearchOptions.Seeds (e.g. cluster-bucket
// warm starts) should layer them on top of this spread: explicit seeds
// replace the default entirely, and a directed KNN graph keeps whole
// regions reachable only from some entry points, so shrinking the spread
// to a handful of warm seeds costs far more recall than the warm starts
// buy back.
func DefaultSeeds(dst []int32, n int) []int32 {
	return appendSpreadSeeds(dst, n, 0)
}

// appendSpreadSeeds appends ns (0 means max(8, n/64)) evenly-spread node
// ids to dst.
func appendSpreadSeeds(dst []int32, n, ns int) []int32 {
	if ns <= 0 {
		ns = max(8, n/64)
	}
	if ns > n {
		ns = n
	}
	for i := 0; i < ns; i++ {
		id := int32(0)
		if ns > 1 {
			id = int32(i * (n - 1) / (ns - 1))
		}
		dst = append(dst, id)
	}
	return dst
}

// SearchStats reports how one GraphSearch unfolded.
type SearchStats struct {
	// Hops is the number of nodes expanded (beam iterations).
	Hops int
	// Scored is the number of exact similarity computations.
	Scored int
	// Abandoned is the number of candidates rejected by the oracle's
	// early-abandon bound without an exact computation.
	Abandoned int
}

// Navigable returns the copy of g used for query navigation: every
// directed KNN edge u→v is mirrored as v→u (Jaccard is symmetric),
// adjacency is deduplicated, and each list is reduced to at most
// max(64, 4K) diverse edges, sorted best-first. A directed KNN graph is a
// poor search structure — popular "hub" nodes accumulate in-edges that the
// descent cannot traverse backwards, so whole regions become unreachable
// from any entry point (measured on the synthetic ML10M shape, recall@10
// plateaus near 0.65 however large the beam). Reverse edges restore those
// paths but create the opposite problem: the same hubs now carry thousands
// of forward edges and one expansion of one hub degenerates into a partial
// scan (measured: ~27k of 100k rows scored per query, erasing the
// speedup).
//
// The degree cap therefore has to choose which edges survive, and simply
// keeping the strongest ones fails badly: a node's best edges are
// near-duplicates of each other, so a best-first cap keeps one tight
// clique and severs the longer-range links navigation depends on
// (measured: recall@10 collapses to 0.36 at n=100k). When p is non-nil,
// Navigable instead applies the classic diversity heuristic of
// HNSW/Vamana: walking candidates best-first, an edge u→v is kept only if
// v is closer to u than to every already-kept neighbor — redundant
// near-duplicates are rejected and weaker long-range edges take their
// slots — then any remaining capacity is refilled with the best rejected
// candidates so degree never drops below the cap. With p == nil the cap
// falls back to plain best-first truncation (acceptable for tiny or
// synthetic graphs; measurably worse for real search).
//
// The result shares no slices with g.
func (g *Graph) Navigable(p Provider) *Graph {
	if g == nil {
		return nil
	}
	out := &Graph{K: g.K, Neighbors: make([][]Neighbor, len(g.Neighbors))}
	deg := make([]int, len(g.Neighbors))
	for u, nbrs := range g.Neighbors {
		deg[u] += len(nbrs)
		for _, nb := range nbrs {
			if int(nb.ID) < len(deg) {
				deg[nb.ID]++
			}
		}
	}
	for u := range out.Neighbors {
		out.Neighbors[u] = make([]Neighbor, 0, deg[u])
	}
	for u, nbrs := range g.Neighbors {
		out.Neighbors[u] = append(out.Neighbors[u], nbrs...)
		for _, nb := range nbrs {
			if int(nb.ID) < len(out.Neighbors) {
				out.Neighbors[nb.ID] = append(out.Neighbors[nb.ID], Neighbor{ID: int32(u), Sim: nb.Sim})
			}
		}
	}
	maxDeg := max(64, 4*g.K)
	var rejected []Neighbor
	for u := range out.Neighbors {
		nbrs := out.Neighbors[u]
		sort.Slice(nbrs, func(i, j int) bool { return ranksAbove(nbrs[i], nbrs[j]) })
		// Dedup in place (mirroring doubles edges that were already
		// reciprocal); the sort groups duplicates.
		uniq := nbrs[:0]
		for i, nb := range nbrs {
			if i > 0 && nb.ID == nbrs[i-1].ID {
				continue
			}
			uniq = append(uniq, nb)
		}
		if len(uniq) <= maxDeg {
			out.Neighbors[u] = uniq
			continue
		}
		if p == nil {
			out.Neighbors[u] = uniq[:maxDeg]
			continue
		}
		kept := make([]Neighbor, 0, maxDeg)
		rejected = rejected[:0]
		for _, nb := range uniq {
			if len(kept) == maxDeg {
				break
			}
			diverse := true
			for _, w := range kept {
				if p.Similarity(int(nb.ID), int(w.ID)) > nb.Sim {
					diverse = false
					break
				}
			}
			if diverse {
				kept = append(kept, nb)
			} else {
				rejected = append(rejected, nb)
			}
		}
		for _, nb := range rejected {
			if len(kept) == maxDeg {
				break
			}
			kept = append(kept, nb)
		}
		sort.Slice(kept, func(i, j int) bool { return ranksAbove(kept[i], kept[j]) })
		out.Neighbors[u] = kept
	}
	return out
}

// searchState is the pooled per-query scratch: an epoch-stamped visited
// array (no clearing between queries), the candidate max-heap, the bounded
// result heap and the seed buffer. Pooling makes a steady query load
// allocation-free regardless of corpus size.
type searchState struct {
	marks []uint32
	stamp uint32
	cand  []Neighbor // max-heap under ranksAbove (root = best unexpanded)
	res   []Neighbor // min-heap under ranksBelow (root = worst kept)
	seeds []int32
}

var searchPool = sync.Pool{New: func() any { return new(searchState) }}

// reset prepares the state for a graph of n nodes: grows the visited array
// if needed and advances the visit stamp so no per-query clearing happens
// (the array is wiped only on the 2³²-th reuse, when the stamp wraps).
func (st *searchState) reset(n int) {
	if len(st.marks) < n {
		// With headroom: an online graph gains a node per insert, and an
		// exact-size array would be reallocated — all n entries of it — by
		// the first search after every one.
		st.marks = make([]uint32, n+n/4)
		st.stamp = 0
	}
	st.stamp++
	if st.stamp == 0 {
		clear(st.marks)
		st.stamp = 1
	}
	st.cand = st.cand[:0]
	st.res = st.res[:0]
	st.seeds = st.seeds[:0]
}

// visit marks v and reports whether it was already marked this query.
func (st *searchState) visit(v int32) bool {
	if st.marks[v] == st.stamp {
		return true
	}
	st.marks[v] = st.stamp
	return false
}

// ranksAbove is the strict (sim desc, id asc) total order, the complement
// of ranksBelow: a ranks above b when it would sort strictly earlier in a
// TopK result. Heaps ordered by a total order make the kept set — and with
// it the whole search — deterministic at every tie.
func ranksAbove(a, b Neighbor) bool {
	if a.Sim != b.Sim {
		return a.Sim > b.Sim
	}
	return a.ID < b.ID
}

// heapUp/heapDown are textbook sift operations under an arbitrary
// "ahead" order (ahead(a, b) = a belongs nearer the root).
func heapUp(h []Neighbor, i int, ahead func(a, b Neighbor) bool) {
	for i > 0 {
		p := (i - 1) / 2
		if !ahead(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func heapDown(h []Neighbor, ahead func(a, b Neighbor) bool) {
	i := 0
	for {
		best, l, r := i, 2*i+1, 2*i+2
		if l < len(h) && ahead(h[l], h[best]) {
			best = l
		}
		if r < len(h) && ahead(h[r], h[best]) {
			best = r
		}
		if best == i {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

// consider scores node v (already marked visited) and inserts it into the
// beam when it improves it. ef bounds the result heap. An excluded node
// never enters the result heap but still joins the candidate heap when its
// similarity clears the floor — it can lead somewhere even though it may
// not be an answer.
func (st *searchState) consider(v int32, oracle SearchOracle, ef int, excluded bool, stats *SearchStats) {
	floor := -1.0
	if len(st.res) == ef {
		floor = st.res[0].Sim
	}
	sim, ok := oracle.ScoreAbove(v, floor)
	if !ok {
		stats.Abandoned++
		return
	}
	stats.Scored++
	cand := Neighbor{ID: v, Sim: sim}
	if !excluded {
		if len(st.res) == ef {
			if !ranksAbove(cand, st.res[0]) {
				return
			}
			st.res[0] = cand
			heapDown(st.res, ranksBelow)
		} else {
			st.res = append(st.res, cand)
			heapUp(st.res, len(st.res)-1, ranksBelow)
		}
	} else if len(st.res) == ef && !ranksAbove(cand, st.res[0]) {
		// Below the full beam's floor: not worth traversing either.
		return
	}
	st.cand = append(st.cand, cand)
	heapUp(st.cand, len(st.cand)-1, ranksAbove)
}

// GraphSearch returns the (at most) k best nodes of g for the oracle's
// query via greedy best-first descent over the graph's edges, with an
// ef-bounded beam and multi-seed entry points. The result is sorted by
// decreasing similarity with ties broken by increasing id — the same order
// as TopK — and is fully deterministic for a fixed (graph, oracle, opts),
// but approximate: unlike TopK's total scan it can miss true neighbors the
// descent never reaches (isolated nodes, disconnected clusters), so a
// result shorter than min(k, n) signals the caller to fall back to a scan.
// Pass g.Navigable(p) rather than a raw directed KNN graph — without the
// mirrored edges, recall degrades badly (see Navigable).
//
// A canceled Ctx aborts within one hop and returns (nil, stats, ctx.Err())
// — never a partial result. GraphSearch is safe for concurrent use as long
// as the oracle is; per-query scratch comes from an internal pool, so a
// steady query load allocates only the returned slice.
func GraphSearch(g *Graph, oracle SearchOracle, k int, opts SearchOptions) ([]Neighbor, SearchStats, error) {
	if g == nil {
		return nil, SearchStats{}, nil
	}
	return graphSearch(g, oracle, k, opts)
}

// adjacency is the graph a search descends: a node count and each node's
// out-edges. The descent asks once per hop, so the indirection is noise
// beside the ~20 similarity computations a hop triggers.
type adjacency interface {
	numNodes() int
	neighborsOf(v int32) []Neighbor
}

func (g *Graph) numNodes() int                  { return len(g.Neighbors) }
func (g *Graph) neighborsOf(v int32) []Neighbor { return g.Neighbors[v] }

// pagedAdjacency is an online-maintained adjacency: the maintainer's own
// working state, or a published snapshot of it. It wraps a pointer so the
// interface conversion does not allocate.
type pagedAdjacency struct{ nodes *cow.View[node] }

func (a pagedAdjacency) numNodes() int                  { return a.nodes.Len() }
func (a pagedAdjacency) neighborsOf(v int32) []Neighbor { return a.nodes.At(int(v)).nav }

func graphSearch(g adjacency, oracle SearchOracle, k int, opts SearchOptions) ([]Neighbor, SearchStats, error) {
	var stats SearchStats
	n := g.numNodes()
	if n == 0 || k <= 0 {
		return nil, stats, nil
	}
	if k > n {
		k = n
	}
	ef := opts.Ef
	if ef <= 0 {
		ef = max(64, 16*k)
	}
	if ef < k {
		ef = k
	}
	if ef > n {
		ef = n
	}
	ctx := opts.Ctx
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
	}

	st := searchPool.Get().(*searchState)
	defer searchPool.Put(st)
	st.reset(n)

	excl := opts.Exclude
	if excl == nil {
		excl = func(int32) bool { return false }
	}
	seeds := opts.Seeds
	if len(seeds) == 0 {
		st.seeds = appendSpreadSeeds(st.seeds, n, opts.NumSeeds)
		seeds = st.seeds
	}
	for _, v := range seeds {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, stats, err
			}
		}
		if v < 0 || int(v) >= n || st.visit(v) {
			continue
		}
		st.consider(v, oracle, ef, excl(v), &stats)
	}

	for len(st.cand) > 0 {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, stats, err
			}
		}
		// Pop the best unexpanded candidate; once it cannot beat the worst
		// kept result the greedy frontier is exhausted (ties keep
		// expanding — equal-similarity nodes can lead to better ones).
		c := st.cand[0]
		last := len(st.cand) - 1
		st.cand[0] = st.cand[last]
		st.cand = st.cand[:last]
		heapDown(st.cand, ranksAbove)
		if len(st.res) == ef && c.Sim < st.res[0].Sim {
			break
		}
		stats.Hops++
		for _, nb := range g.neighborsOf(c.ID) {
			v := nb.ID
			if v < 0 || int(v) >= n || st.visit(v) {
				continue
			}
			st.consider(v, oracle, ef, excl(v), &stats)
		}
	}

	out := make([]Neighbor, len(st.res))
	copy(out, st.res)
	sort.Slice(out, func(i, j int) bool { return ranksAbove(out[i], out[j]) })
	if len(out) > k {
		out = out[:k]
	}
	return out, stats, nil
}
