package knn

import (
	"cmp"
	"context"
	"slices"
	"sync"
	"sync/atomic"
)

// ranksAbove is the strict (sim desc, id asc) total order of every top-k
// selection in this package: a ranks above b when it would sort strictly
// earlier in a TopK result. A total order makes the selected set unique,
// so selections, heaps and the whole search are deterministic at every
// tie.
func ranksAbove(a, b Neighbor) bool {
	if a.Sim != b.Sim {
		return a.Sim > b.Sim
	}
	return a.ID < b.ID
}

// compareRank is the same order as a slices.SortFunc comparison: best first.
func compareRank(a, b Neighbor) int {
	if c := cmp.Compare(b.Sim, a.Sim); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// topkSet is n bounded top-k sets under ranksAbove — the one selection
// under the exact scan, both builders' pair scans, the per-view merge and
// the refinement sweep. Row i is a flat slot of k entries with a fill
// count and the cached position of its worst entry. No locking: each row
// has one writer at a time, by construction of every caller.
type topkSet struct {
	nbrs     []Neighbor
	cnt      []int32
	worstPos []int32 // index of the row's minimum entry; valid once cnt == k
	k        int
}

func newTopkSet(n, k int) *topkSet {
	return &topkSet{
		nbrs:     make([]Neighbor, n*k),
		cnt:      make([]int32, n),
		worstPos: make([]int32, n),
		k:        k,
	}
}

// insert offers (id, sim) to row i and reports whether the row changed.
// There is no duplicate check: callers offer each id to a row at most
// once, or (mergeViews) skip the ids already kept.
//
// The cached worst position makes the reject — the overwhelmingly common
// case once the row is full — one load and compare (admits); the O(k)
// rescan runs only on an accepted candidate. insert is one call with no
// nested call under it: a helper below it exceeds Go's inlining budget
// and costs the pair scans a second call per pair.
func (s *topkSet) insert(i int, id int32, sim float64) bool {
	if !s.admits(i, id, sim) {
		return false
	}
	base := i * s.k
	c := int(s.cnt[i])
	if c < s.k {
		s.nbrs[base+c] = Neighbor{ID: id, Sim: sim}
		s.cnt[i] = int32(c + 1)
		if c+1 == s.k {
			s.worstPos[i] = int32(findWorst(s.nbrs[base : base+s.k]))
		}
		return true
	}
	s.nbrs[base+int(s.worstPos[i])] = Neighbor{ID: id, Sim: sim}
	s.worstPos[i] = int32(findWorst(s.nbrs[base : base+s.k]))
	return true
}

// admits reports whether insert would take (id, sim) into row i: the row
// is not full, or the candidate ranks above its worst entry. It inlines,
// so a loop over one row's candidates (the exact scan, the refinement
// sweep, the merge) tests it first and pays insert's call only on an
// accept.
func (s *topkSet) admits(i int, id int32, sim float64) bool {
	return int(s.cnt[i]) < s.k || ranksAbove(Neighbor{ID: id, Sim: sim}, s.nbrs[i*s.k+int(s.worstPos[i])])
}

// findWorst returns the index of the minimum entry under ranksAbove.
func findWorst(nb []Neighbor) int {
	worst := 0
	for i := 1; i < len(nb); i++ {
		if ranksAbove(nb[worst], nb[i]) {
			worst = i
		}
	}
	return worst
}

// row returns row i's kept entries, unordered, aliasing the set.
func (s *topkSet) row(i int) []Neighbor {
	return s.nbrs[i*s.k : i*s.k+int(s.cnt[i])]
}

// sorted returns a fresh, exactly sized copy of row i, best first.
func (s *topkSet) sorted(i int) []Neighbor {
	out := make([]Neighbor, s.cnt[i])
	copy(out, s.row(i))
	slices.SortFunc(out, compareRank)
	return out
}

// reset empties row i.
func (s *topkSet) reset(i int) { s.cnt[i] = 0 }

// TopK returns the (at most) k candidates among 0..n-1 with the highest
// similarity under sim, through the same bounded top-k set as the
// BruteForce and Cluster-and-Conquer pair scans (topkSet: one compare per
// rejected candidate, an O(k) rescan per accepted one, allocation-free
// per tile). Candidates are scanned by `workers` goroutines (0 means
// GOMAXPROCS) over contiguous index shards, so sim must be safe for
// concurrent use.
//
// The result is sorted by decreasing similarity with ties broken by
// increasing id, and the selection at the k-th-place boundary also prefers
// lower ids — the output is therefore fully deterministic and independent
// of the worker count.
func TopK(n, k, workers int, sim func(i int) float64) []Neighbor {
	return TopKRange(n, k, workers, func(lo, hi int, out []float64) {
		for i := lo; i < hi; i++ {
			out[i-lo] = sim(i)
		}
	})
}

// TopKCtx is TopK under a context: the scan polls ctx once per tile
// (topkColTile candidates) and aborts within one tile of a cancellation,
// returning ctx.Err() and no result. A disconnected or deadline-expired
// caller therefore stops burning the corpus almost immediately instead of
// finishing a full scan whose answer nobody reads.
func TopKCtx(ctx context.Context, n, k, workers int, sim func(i int) float64) ([]Neighbor, error) {
	return TopKRangeCtx(ctx, n, k, workers, func(lo, hi int, out []float64) {
		for i := lo; i < hi; i++ {
			out[i-lo] = sim(i)
		}
	})
}

// topkColTile is the candidate-range width per batched kernel call; it
// matches the packed-corpus tile so one call streams an L1-resident block.
const topkColTile = 256

// TopKRange is TopK over a range-batched similarity kernel: sim fills
// out[0:hi-lo] with the similarities of candidates [lo, hi). A kernel
// backed by core.PackedCorpus (e.g. JaccardQueryInto) streams one
// contiguous buffer per tile instead of dispatching a closure per
// candidate. Selection, tie rules, and determinism are identical to TopK —
// the two return the same result whenever the kernels agree pointwise.
func TopKRange(n, k, workers int, sim func(lo, hi int, out []float64)) []Neighbor {
	// nil ctx: the workers skip the per-tile poll entirely, so the
	// uncancellable path pays nothing for cancellability existing.
	res, _ := topKRange(nil, n, k, workers, sim)
	return res
}

// TopKRangeCtx is TopKRange under a context, polled once per tile; see
// TopKCtx for the cancellation contract. Returns (nil, ctx.Err()) on
// cancellation — partial selections are discarded, never returned.
func TopKRangeCtx(ctx context.Context, n, k, workers int, sim func(lo, hi int, out []float64)) ([]Neighbor, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Refuse work that is already dead — the common case for a request
	// whose deadline expired in the admission queue.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return topKRange(ctx, n, k, workers, sim)
}

func topKRange(ctx context.Context, n, k, workers int, sim func(lo, hi int, out []float64)) ([]Neighbor, error) {
	if n <= 0 || k <= 0 {
		return nil, nil
	}
	// At most n results are possible, so clamping is behavior-preserving —
	// and it keeps a caller-supplied huge k (e.g. straight from a query
	// parameter) from panicking the cap-k preallocations below.
	if k > n {
		k = n
	}
	if workers <= 0 {
		workers = defaultWorkers()
	}
	if workers > n {
		workers = n
	}

	// Each worker selects its shard-local top-k under the total order;
	// the union of shard winners contains every global winner. A canceled
	// context flips stopped once; the other workers see the cheap atomic
	// and bail at their next tile without each re-checking the context.
	locals := make([][]Neighbor, workers)
	var stopped atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			sel := newTopkSet(1, k)
			buf := make([]float64, topkColTile)
			for tlo := lo; tlo < hi; tlo += topkColTile {
				if ctx != nil {
					if stopped.Load() {
						return
					}
					if ctx.Err() != nil {
						stopped.Store(true)
						return
					}
				}
				thi := min(tlo+topkColTile, hi)
				tile := buf[:thi-tlo]
				sim(tlo, thi, tile)
				for i, s := range tile {
					if id := int32(tlo + i); sel.admits(0, id, s) {
						sel.insert(0, id, s)
					}
				}
			}
			locals[w] = sel.row(0)
		}(w, lo, hi)
	}
	wg.Wait()
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}

	merged := make([]Neighbor, 0, workers*k)
	for _, l := range locals {
		merged = append(merged, l...)
	}
	slices.SortFunc(merged, compareRank)
	if len(merged) > k {
		merged = merged[:k]
	}
	return merged, nil
}
