package knn

import (
	"context"
	"slices"
	"sync"

	"goldfinger/internal/cow"
)

// This file implements graph-navigated top-k search: instead of scanning
// the whole corpus (TopK), a query descends the already-built KNN graph
// greedily. FINGER (arXiv:2206.11408) bounds distances cheaply because
// distance evaluations dominate such a descent; an SHF similarity is
// already an AND+popcount, its bound (ScoreAbove) fired on under 4 % of the
// rows a query scored at n=100k, and the loop around the kernel took most
// of the time. So the loop keeps its bookkeeping cheap: ids are scored a
// batch at a time, seeds are admitted by selection, and the visited set is
// a bitmap small enough to stay in L1 (DESIGN.md §12).

// SearchOracle scores graph nodes against one implicit query. It is the
// distance oracle of GraphSearch; core.PackedCorpus.NewQueryScorer builds
// the production implementation over the packed AND+popcount kernels; an
// oracle that, like it, also has ScoreBatch is scored through that instead.
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
	// default scales with the corpus, max(8, n/64): at n=100k, recall@10 is
	// 0.995 with n/64 seeds, 0.916 with 400 and 0.757 with 8. Seeding stays
	// cheap because seeds are scored in batches and admitted by one
	// selection, not one beam insertion each.
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
	// Ctx cancels a running search: it is polled once per seed batch (up
	// to 256 seeds) and once per hop, and a canceled search returns
	// ctx.Err() and no partial result. Nil means never cancel.
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
// ids, i·(n-1)/(ns-1) for i in [0, ns), to dst. The quotient/remainder
// accumulator yields exactly that floor without a division per seed (and
// without the product, so no n overflows it).
func appendSpreadSeeds(dst []int32, n, ns int) []int32 {
	if ns <= 0 {
		ns = max(8, n/64)
	}
	ns = min(ns, n)
	den := max(ns-1, 1)
	step, rem := (n-1)/den, (n-1)%den
	dst = slices.Grow(dst, max(ns, 0))
	for i, id, acc := 0, 0, 0; i < ns; i++ {
		dst = append(dst, int32(id))
		id += step
		if acc += rem; acc >= den {
			acc -= den
			id++
		}
	}
	return dst
}

// SearchStats reports how one GraphSearch unfolded.
type SearchStats struct {
	// Hops is the number of nodes expanded (beam iterations).
	Hops int
	// Scored is the number of exact similarity computations: every row a
	// batch oracle (core.QueryScorer) was handed, every ScoreAbove call of
	// a per-node oracle that returned a similarity.
	Scored int
	// Abandoned is the number of ScoreAbove calls in which a per-node
	// oracle proved a node below the beam's floor instead. The batch path
	// abandons nothing: 0 for a core.QueryScorer passed directly.
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
		slices.SortFunc(nbrs, compareRank)
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
		slices.SortFunc(kept, compareRank)
		out.Neighbors[u] = kept
	}
	return out
}

// searchState is the pooled per-query scratch; pooling makes a steady
// query load allocation-free regardless of corpus size.
type searchState struct {
	visited []uint64   // one bit per node, cleared per query
	cand    []Neighbor // max-heap (root = best unexpanded)
	res     []Neighbor // the beam, a min-heap (root = worst kept)
	ids     []int32    // the batch being scored ...
	sims    []float64  // ... and its similarities, index-aligned
	seeds   []int32
}

var searchPool = sync.Pool{New: func() any { return new(searchState) }}

// seedBatch is how many seeds one oracle call scores: a packed-corpus tile.
const seedBatch = 256

// reset prepares the state for a graph of n nodes. The bitmap is n/8 bytes
// — L1-resident at n=100k, where 4-byte visit stamps were 400 KB probed
// ~10 000 times a query — so it is cleared per query (0.2 µs at 100k), and
// clearing exactly the bits in use, up front, keeps a pooled state sound
// across graphs of different sizes.
func (st *searchState) reset(n int) {
	words := (n + 63) / 64
	if len(st.visited) < words {
		// With headroom: an online graph gains a node per insert.
		st.visited = make([]uint64, words+words/4)
	}
	clear(st.visited[:words])
	st.cand, st.res, st.seeds = st.cand[:0], st.res[:0], st.seeds[:0]
}

// visit marks v and reports whether it was already marked this query.
func (st *searchState) visit(v int32) bool {
	w, bit := &st.visited[v>>6], uint64(1)<<(v&63)
	seen := *w&bit != 0
	*w |= bit
	return seen
}

// batchOracle is the optional fast path of a SearchOracle: one call scores
// a whole id list exactly (core.QueryScorer.ScoreBatch).
type batchOracle interface {
	ScoreBatch(ids []int32, sims []float64)
}

// score leaves the similarity of every st.ids[i] in st.sims[i]. A batch
// oracle scores every row; a per-node one is handed floor (the beam's worst
// similarity as the batch was collected, or -1) and the ids it proves below
// it are dropped from both slices.
func (st *searchState) score(oracle SearchOracle, batch batchOracle, floor float64, stats *SearchStats) {
	st.sims = slices.Grow(st.sims[:0], len(st.ids))[:len(st.ids)]
	if batch != nil {
		batch.ScoreBatch(st.ids, st.sims)
	} else {
		kept := 0
		for _, v := range st.ids {
			if sim, ok := oracle.ScoreAbove(v, floor); ok {
				st.ids[kept], st.sims[kept] = v, sim
				kept++
			}
		}
		stats.Abandoned += len(st.ids) - kept
		st.ids, st.sims = st.ids[:kept], st.sims[:kept]
	}
	stats.Scored += len(st.ids)
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

// heapUp/heapDown sift a heap of distinct nodes whose root ranks below
// every entry (worst: the beam) or above (the candidates). The order is
// compared in place: through func values the sifts were a fifth of a query.
func heapUp(h []Neighbor, i int, worst bool) {
	for i > 0 {
		p := (i - 1) / 2
		if ranksAbove(h[i], h[p]) == worst {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func heapDown(h []Neighbor, i int, worst bool) {
	for {
		top, l, r := i, 2*i+1, 2*i+2
		if l < len(h) && ranksAbove(h[l], h[top]) != worst {
			top = l
		}
		if r < len(h) && ranksAbove(h[r], h[top]) != worst {
			top = r
		}
		if top == i {
			return
		}
		h[i], h[top] = h[top], h[i]
		i = top
	}
}

// selectTop rearranges s so that its k highest-ranked entries occupy s[:k]
// in no particular order (Hoare quickselect); the order is total over
// distinct ids, so the selected set is unique. Any k is allowed.
func selectTop(s []Neighbor, k int) {
	for lo, hi := 0, len(s)-1; lo < hi; {
		p, i, j := s[lo+(hi-lo)/2], lo, hi
		for i <= j {
			for ranksAbove(s[i], p) {
				i++
			}
			for ranksAbove(p, s[j]) {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		if k-1 <= j {
			hi = j
		} else if k-1 >= i {
			lo = i
		} else {
			return
		}
	}
}

// admitSeeds turns the scored seeds in st.cand into the starting beam and
// candidate heap by selection, not ~ef·ln(seeds/ef) sifts: the beam is the
// ef best non-excluded seeds, the candidates are that set plus every
// excluded seed ranking above the beam's floor (every seed while the beam
// is short). Offering the seeds one by one differed only at the floor: it
// also kept, as candidates, seeds tying the floor's similarity that had
// been in the beam before being displaced.
func (st *searchState) admitSeeds(ef int, excl func(int32) bool) {
	s := st.cand
	live := len(s) // s[:live] are the non-excluded seeds
	for i := 0; excl != nil && i < live; {
		if excl(s[i].ID) {
			live--
			s[i], s[live] = s[live], s[i]
		} else {
			i++
		}
	}
	selectTop(s[:live], ef)
	kept := min(live, ef)
	st.res = append(st.res, s[:kept]...)
	for i := kept/2 - 1; i >= 0; i-- {
		heapDown(st.res, i, true)
	}
	for _, c := range s[live:] {
		if len(st.res) < ef || ranksAbove(c, st.res[0]) {
			s[kept] = c
			kept++
		}
	}
	st.cand = s[:kept]
	for i := kept/2 - 1; i >= 0; i-- {
		heapDown(st.cand, i, false)
	}
}

// admit offers a scored node to the beam. An excluded node never enters
// the beam but still becomes a candidate when it clears the floor — it can
// lead somewhere even though it may not be an answer.
func (st *searchState) admit(c Neighbor, ef int, excluded bool) {
	full := len(st.res) == ef
	if full && !ranksAbove(c, st.res[0]) {
		return
	}
	if !excluded {
		if full {
			st.res[0] = c
			heapDown(st.res, 0, true)
		} else {
			st.res = append(st.res, c)
			heapUp(st.res, len(st.res)-1, true)
		}
	}
	st.cand = append(st.cand, c)
	heapUp(st.cand, len(st.cand)-1, false)
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
// A canceled Ctx aborts within one seed batch or hop and returns (nil,
// stats, ctx.Err()) — never a partial result. GraphSearch is safe for
// concurrent use as long as the oracle is; per-query scratch comes from an
// internal pool, so a steady query load allocates only the returned slice.
func GraphSearch(g *Graph, oracle SearchOracle, k int, opts SearchOptions) ([]Neighbor, SearchStats, error) {
	if g == nil {
		return nil, SearchStats{}, nil
	}
	return graphSearch(g, oracle, k, opts)
}

// adjacency is the graph a search descends: a node count and each node's
// out-edges. The descent asks once per hop, so the indirection is noise
// beside the scan of the ~64 edges it returns.
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
	k = min(k, n)
	ef := opts.Ef
	if ef <= 0 {
		ef = max(64, 16*k)
	}
	ef = min(max(ef, k), n)
	ctx, excl := opts.Ctx, opts.Exclude
	batch, _ := oracle.(batchOracle)

	st := searchPool.Get().(*searchState)
	defer searchPool.Put(st)
	st.reset(n)

	// Seed phase: every distinct in-range seed is scored, a batch at a
	// time, then all are admitted by one selection.
	seeds := opts.Seeds
	if len(seeds) == 0 {
		st.seeds = appendSpreadSeeds(st.seeds, n, opts.NumSeeds)
		seeds = st.seeds
	}
	for len(seeds) > 0 {
		if ctx != nil && ctx.Err() != nil {
			return nil, stats, ctx.Err()
		}
		st.ids = st.ids[:0]
		for ; len(seeds) > 0 && len(st.ids) < seedBatch; seeds = seeds[1:] {
			if v := seeds[0]; v >= 0 && int(v) < n && !st.visit(v) {
				st.ids = append(st.ids, v)
			}
		}
		st.score(oracle, batch, -1, &stats)
		for i, v := range st.ids {
			st.cand = append(st.cand, Neighbor{ID: v, Sim: st.sims[i]})
		}
	}
	st.admitSeeds(ef, excl)

	for len(st.cand) > 0 {
		if ctx != nil && ctx.Err() != nil {
			return nil, stats, ctx.Err()
		}
		// Pop the best unexpanded candidate; once it cannot beat the worst
		// kept result the greedy frontier is exhausted (ties keep
		// expanding — equal-similarity nodes can lead to better ones).
		c, last := st.cand[0], len(st.cand)-1
		st.cand[0] = st.cand[last]
		st.cand = st.cand[:last]
		heapDown(st.cand, 0, false)
		floor := -1.0
		if len(st.res) == ef {
			if floor = st.res[0].Sim; c.Sim < floor {
				break
			}
		}
		stats.Hops++
		// The hop's unvisited neighbors are scored in one call, then
		// offered to the beam in list order.
		st.ids = st.ids[:0]
		for _, nb := range g.neighborsOf(c.ID) {
			if v := nb.ID; v >= 0 && int(v) < n && !st.visit(v) {
				st.ids = append(st.ids, v)
			}
		}
		st.score(oracle, batch, floor, &stats)
		for i, v := range st.ids {
			st.admit(Neighbor{ID: v, Sim: st.sims[i]}, ef, excl != nil && excl(v))
		}
	}
	selectTop(st.res, k) // order only the k that are returned
	out := slices.Clone(st.res[:min(k, len(st.res))])
	slices.SortFunc(out, compareRank)
	return out, stats, nil
}
