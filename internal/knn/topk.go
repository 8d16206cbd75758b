package knn

import (
	"cmp"
	"context"
	"sort"
	"sync"
	"sync/atomic"
)

// ranksBelow is the strict (sim desc, id asc) total order of TopK: a ranks
// below b when its similarity is lower, or equal with a higher id. Unlike
// neighborhood.insert — whose tie handling is free to be arbitrary because
// the graph builders only need *some* top-k set — a total order makes the
// selected set unique, so TopK is deterministic at the k-th-place boundary.
func ranksBelow(a, b Neighbor) bool {
	if a.Sim != b.Sim {
		return a.Sim < b.Sim
	}
	return a.ID > b.ID
}

// compareRank is the same order as a slices.SortFunc comparison: best first.
func compareRank(a, b Neighbor) int {
	if c := cmp.Compare(b.Sim, a.Sim); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// TopK returns the (at most) k candidates among 0..n-1 with the highest
// similarity under sim, using the same bounded linear-scan selection as
// the graph builders' neighborhoods (O(k) per candidate, allocation-free
// per shard). Candidates are scanned by `workers` goroutines (0 means
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
			nh := make([]Neighbor, 0, k)
			// worst caches the index of nh's minimum under the total order
			// (valid once nh is full), so the common reject is one compare
			// and the O(k) rescan only runs on an accepted candidate.
			worst := 0
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
				for i := tlo; i < thi; i++ {
					cand := Neighbor{ID: int32(i), Sim: tile[i-tlo]}
					if len(nh) < k {
						nh = append(nh, cand)
						if len(nh) == k {
							worst = findWorst(nh)
						}
						continue
					}
					if ranksBelow(nh[worst], cand) {
						nh[worst] = cand
						worst = findWorst(nh)
					}
				}
			}
			locals[w] = nh
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
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Sim != merged[j].Sim {
			return merged[i].Sim > merged[j].Sim
		}
		return merged[i].ID < merged[j].ID
	})
	if len(merged) > k {
		merged = merged[:k]
	}
	return merged, nil
}
