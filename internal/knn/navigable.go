package knn

import (
	"runtime"
	"sync"
	"sync/atomic"
)

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
// An edge to an id outside [0, n) stays in its owner's list and is never
// mirrored. The work is spread over GOMAXPROCS goroutines, so p must be
// safe for concurrent use (as every Provider is); the output does not
// depend on the worker count. The result shares no slices with g, and each
// of its lists has exactly the capacity it uses.
func (g *Graph) Navigable(p Provider) *Graph {
	if g == nil {
		return nil
	}
	n := len(g.Neighbors)
	workers := max(1, min(runtime.GOMAXPROCS(0), n))
	out := &Graph{K: g.K, Neighbors: g.mirror(workers)}
	maxDeg := max(64, 4*g.K)
	// Every node's list is finished on its own, so nodes are handed out in
	// blocks to whichever worker is free: a hub's diversity walk costs
	// hundreds of times a typical node's sort.
	var cursor atomic.Int64
	parallel(workers, func(int) {
		var s navScratch
		for {
			lo := int(cursor.Add(navBlock)) - navBlock
			if lo >= n {
				return
			}
			for u := lo; u < min(lo+navBlock, n); u++ {
				out.Neighbors[u] = s.finish(out.Neighbors[u], maxDeg, p)
			}
		}
	})
	return out
}

// navBlock is how many nodes a Navigable worker claims at a time.
const navBlock = 64

// parallel runs f(0), …, f(workers-1) concurrently and waits for them all.
func parallel(workers int, f func(w int)) {
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(w)
		}()
	}
	f(0)
	wg.Wait()
}

// mirror returns every node's candidate list: its own edges, then its
// in-edges in source order, in an allocation of exactly that size. Each
// worker owns a contiguous range of nodes and scans every edge in source
// order, counting and then appending only the in-edges of the nodes it
// owns, so the lists are the same for any number of workers. Edges to ids
// outside [0, n) are never mirrored.
func (g *Graph) mirror(workers int) [][]Neighbor {
	n := len(g.Neighbors)
	lists := make([][]Neighbor, n)
	parallel(workers, func(w int) {
		lo, hi := w*n/workers, (w+1)*n/workers
		deg := make([]int, hi-lo)
		for _, nbrs := range g.Neighbors {
			for _, nb := range nbrs {
				if v := int(nb.ID); lo <= v && v < hi {
					deg[v-lo]++
				}
			}
		}
		for u := lo; u < hi; u++ {
			lists[u] = append(make([]Neighbor, 0, len(g.Neighbors[u])+deg[u-lo]), g.Neighbors[u]...)
		}
		for u, nbrs := range g.Neighbors {
			for _, nb := range nbrs {
				if v := int(nb.ID); lo <= v && v < hi {
					lists[v] = append(lists[v], Neighbor{ID: int32(u), Sim: nb.Sim})
				}
			}
		}
	})
	return lists
}

// navScratch is one Navigable worker's reusable state for long lists.
type navScratch struct {
	heap []Neighbor // the unconsumed rest of a long list, a max-heap
	pre  []Neighbor // the distinct entries popped so far, best first
	kept []Neighbor // the diversity walk's kept edges, in walk order
	keep []bool     // keep[i]: pre[i] is in the output
}

// finish turns one node's candidate list, which it reorders in place, into
// its navigable adjacency: sorted best-first, adjacent duplicate ids
// dropped — mirroring doubles every reciprocal edge, with a bit-identical
// similarity when both directions were scored by the same provider — and
// capped at maxDeg. A list within the cap is insertion-sorted whole and
// returned as is when nothing was dropped. A longer one is heapified and
// popped best-first only as far as the cap and the diversity walk read, so
// a hub's thousands of mirrored edges are never fully sorted. ranksAbove is
// a total order over distinct entries, so either way the result is what
// sorting the whole list first would give. Whatever is returned has
// exactly the capacity it uses.
func (s *navScratch) finish(c []Neighbor, maxDeg int, p Provider) []Neighbor {
	if len(c) <= maxDeg {
		for i := 1; i < len(c); i++ {
			x, j := c[i], i
			for ; j > 0 && ranksAbove(x, c[j-1]); j-- {
				c[j] = c[j-1]
			}
			c[j] = x
		}
		uniq := c[:0]
		for _, nb := range c {
			if len(uniq) == 0 || uniq[len(uniq)-1].ID != nb.ID {
				uniq = append(uniq, nb)
			}
		}
		if len(uniq) == len(c) {
			return c
		}
		return append(make([]Neighbor, 0, len(uniq)), uniq...)
	}

	s.heap, s.pre = c, s.pre[:0]
	for i := len(c)/2 - 1; i >= 0; i-- {
		heapDown(c, i, false)
	}
	for len(s.pre) <= maxDeg && s.popDistinct() {
	}
	switch {
	case len(s.pre) <= maxDeg: // the duplicates brought it within the cap
		return append(make([]Neighbor, 0, len(s.pre)), s.pre...)
	case p == nil:
		return append(make([]Neighbor, 0, maxDeg), s.pre[:maxDeg]...)
	}

	// The diversity walk: an entry is kept unless some already-kept edge's
	// endpoint is closer to it than u is.
	s.kept, s.keep = s.kept[:0], s.keep[:0]
	walked := 0
	for ; len(s.kept) < maxDeg && (walked < len(s.pre) || s.popDistinct()); walked++ {
		nb, diverse := s.pre[walked], true
		for _, w := range s.kept {
			if p.Similarity(int(nb.ID), int(w.ID)) > nb.Sim {
				diverse = false
				break
			}
		}
		if diverse {
			s.kept = append(s.kept, nb)
		}
		s.keep = append(s.keep, diverse)
	}
	// Spare capacity goes to the best rejected entries; the output lists
	// the kept ones in walk order, which is best-first.
	for i, room := 0, maxDeg-len(s.kept); room > 0 && i < walked; i++ {
		if !s.keep[i] {
			s.keep[i] = true
			room--
		}
	}
	out := make([]Neighbor, 0, maxDeg)
	for i, keep := range s.keep {
		if keep {
			out = append(out, s.pre[i])
		}
	}
	return out
}

// popDistinct moves the best remaining heap entry whose id differs from the
// last one popped onto s.pre; it reports false once the heap is empty.
func (s *navScratch) popDistinct() bool {
	for len(s.heap) > 0 {
		top, last := s.heap[0], len(s.heap)-1
		s.heap[0] = s.heap[last]
		s.heap = s.heap[:last]
		heapDown(s.heap, 0, false)
		if len(s.pre) == 0 || s.pre[len(s.pre)-1].ID != top.ID {
			s.pre = append(s.pre, top)
			return true
		}
	}
	return false
}
