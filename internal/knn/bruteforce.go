package knn

import (
	"sync"
	"sync/atomic"
	"time"

	"goldfinger/internal/obs"
)

const (
	// bruteRowBlock is the number of rows a worker claims per cursor bump:
	// large enough that the shared atomic cursor is touched ~n/64 times
	// total, small enough to load-balance the triangle's uneven row costs.
	bruteRowBlock = 64
	// bruteColTile is the number of columns computed per kernel call. It
	// matches the packed corpus tile: 256 rows × 128 bytes (b = 1024)
	// stream 32 KB per call, and the similarity buffer stays small enough
	// to be cache-resident between the kernel and the insertion loop.
	bruteColTile = 256
)

// BruteForce computes the exact KNN graph with an exhaustive lower-triangle
// scan: exactly n(n−1)/2 similarity computations, each updating both
// endpoints' neighborhoods.
//
// Work is handed out as row blocks through an atomic cursor; within a block
// each row is computed in column tiles, through BatchProvider.SimilarityRange
// when the provider supports it (one blocked kernel call per tile) and
// per-pair Similarity otherwise. Every worker accumulates candidates into
// its own n-row topkSet and its own comparison/update counters — there are
// no per-pair atomics and no per-neighborhood mutexes anywhere on the hot
// path; counters fold into the shared totals once per block and the
// per-worker sets merge once at the end, through mergeViews (each pair is
// scanned by one worker, so no id repeats across the sets).
//
// Selection uses the strict (sim desc, id asc) total order of TopK, which
// makes the result graph fully deterministic and independent of the worker
// count and of whether the batched or the per-pair path ran — the per-worker
// local top-k sets always cover the unique global top-k.
//
// Cancellation (Options.Ctx) is checked once per row-block claim — one
// context poll per 64 rows, invisible next to the kernel work — so a cancel
// or deadline stops the scan within one block. The partial graph is still
// merged and returned (structurally valid, possibly incomplete); callers
// that care must inspect Options.Ctx.Err().
func BruteForce(p Provider, k int, opts Options) (*Graph, Stats) {
	n := p.NumUsers()
	g := &Graph{K: k, Neighbors: make([][]Neighbor, n)}
	if n == 0 {
		return g, Stats{}
	}
	kCap := min(k, n-1)
	if kCap <= 0 {
		for u := range g.Neighbors {
			g.Neighbors[u] = []Neighbor{}
		}
		return g, Stats{}
	}

	workers := opts.workers()
	numBlocks := (n + bruteRowBlock - 1) / bruteRowBlock
	if workers > numBlocks {
		workers = numBlocks
	}
	batch, _ := p.(BatchProvider)
	ctx := opts.ctx()
	m := opts.metrics()
	m.startProgress(int64(numBlocks))
	scanHist := m.phase("scan")
	scanStart := time.Now()

	locals := make([]*topkSet, workers)
	var comparisons, updates atomic.Int64
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		locals[w] = newTopkSet(n, kCap)
		wg.Add(1)
		go func(l *topkSet) {
			defer wg.Done()
			buf := make([]float64, bruteColTile)
			lc := obs.Local{C: m.comparisons}
			defer lc.Flush()
			for {
				if ctx.Err() != nil {
					return
				}
				b := int(cursor.Add(1)) - 1
				lo := b * bruteRowBlock
				if lo >= n {
					return
				}
				hi := min(lo+bruteRowBlock, n)
				var comps, ups int64
				for u := lo; u < hi; u++ {
					for vlo := u + 1; vlo < n; vlo += bruteColTile {
						vhi := min(vlo+bruteColTile, n)
						tile := buf[:vhi-vlo]
						if batch != nil {
							batch.SimilarityRange(u, vlo, vhi, tile)
						} else {
							for v := vlo; v < vhi; v++ {
								tile[v-vlo] = p.Similarity(u, v)
							}
						}
						for v := vlo; v < vhi; v++ {
							s := tile[v-vlo]
							if l.insert(u, int32(v), s) {
								ups++
							}
							if l.insert(v, int32(u), s) {
								ups++
							}
						}
					}
					comps += int64(n - u - 1)
				}
				// Fold the block's counters into the shared totals in one
				// atomic each, instead of one atomic per pair/insert.
				comparisons.Add(comps)
				updates.Add(ups)
				lc.Add(comps)
				lc.Flush()
				m.progressDone.Add(1)
			}
		}(locals[w])
	}
	wg.Wait()
	scanHist.ObserveSince(scanStart)

	mergeHist := m.phase("merge")
	mergeStart := time.Now()
	mergeViews(g, locals, kCap, workers)
	mergeHist.ObserveSince(mergeStart)
	return g, Stats{Comparisons: comparisons.Load(), Updates: updates.Load()}
}

// LegacyBruteForce is the pre-packed-corpus implementation: a per-row work
// channel, one Provider.Similarity interface call and one CountingProvider
// atomic per pair, and a mutex around every neighborhood insert. It is
// retained only as the tests' reference: the equivalence tests compare
// BruteForce against it, and the packed-corpus benchmarks measure it as
// the baseline. New code should call BruteForce.
func LegacyBruteForce(p Provider, k int, opts Options) (*Graph, Stats) {
	n := p.NumUsers()
	nhs := make([]*neighborhood, n)
	for u := range nhs {
		nhs[u] = newNeighborhood(k)
	}

	cp := NewCountingProvider(p)
	workers := opts.workers()
	var updates atomic.Int64
	var wg sync.WaitGroup
	next := make(chan int, workers)
	go func() {
		for u := 0; u < n; u++ {
			next <- u
		}
		close(next)
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range next {
				for v := u + 1; v < n; v++ {
					s := cp.Similarity(u, v)
					if nhs[u].insert(int32(v), s) {
						updates.Add(1)
					}
					if nhs[v].insert(int32(u), s) {
						updates.Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()

	return finalize(k, nhs), Stats{Comparisons: cp.Comparisons(), Updates: updates.Load()}
}
