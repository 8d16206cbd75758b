package knn

import (
	"sort"
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
// its own flat neighborhood array and its own comparison/update counters —
// there are no per-pair atomics and no per-neighborhood mutexes anywhere on
// the hot path; counters fold into the shared totals once per block and the
// per-worker neighborhoods merge once at the end.
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

	locals := make([]*bruteLocal, workers)
	var comparisons, updates atomic.Int64
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		locals[w] = &bruteLocal{
			nbrs:     make([]Neighbor, n*kCap),
			cnt:      make([]int32, n),
			worstPos: make([]int32, n),
			kCap:     kCap,
		}
		wg.Add(1)
		go func(l *bruteLocal) {
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
	mergeLocals(g, locals, kCap, workers)
	mergeHist.ObserveSince(mergeStart)
	return g, Stats{Comparisons: comparisons.Load(), Updates: updates.Load()}
}

// bruteLocal is one worker's private candidate state: a flat n×kCap
// neighbor array plus fill counts and the cached position of each node's
// worst entry. No locking — only its owner touches it during the scan, and
// the merge runs after the barrier.
type bruteLocal struct {
	nbrs     []Neighbor
	cnt      []int32
	worstPos []int32 // index of the minimum entry per node; valid once cnt[node] == kCap
	kCap     int
}

// insert adds (id, sim) to node's bounded candidate set under the strict
// (sim desc, id asc) total order. The lower-triangle scan computes each
// unordered pair exactly once, so no duplicate check is needed. It reports
// whether the set changed.
//
// The cached worst position makes the reject path — the overwhelmingly
// common case once the set is full — a single load and compare; the O(kCap)
// rescan runs only on the rare accepted insert, so the amortized cost per
// candidate is O(1) instead of the per-candidate worst-scan the mutex-based
// neighborhood pays.
func (l *bruteLocal) insert(node int, id int32, sim float64) bool {
	base := node * l.kCap
	c := int(l.cnt[node])
	if c < l.kCap {
		l.nbrs[base+c] = Neighbor{ID: id, Sim: sim}
		l.cnt[node] = int32(c + 1)
		if c+1 == l.kCap {
			l.worstPos[node] = int32(findWorst(l.nbrs[base : base+l.kCap]))
		}
		return true
	}
	wp := base + int(l.worstPos[node])
	cand := Neighbor{ID: id, Sim: sim}
	if !ranksBelow(l.nbrs[wp], cand) {
		return false
	}
	l.nbrs[wp] = cand
	l.worstPos[node] = int32(findWorst(l.nbrs[base : base+l.kCap]))
	return true
}

// findWorst returns the index of the minimum entry under the strict
// (sim desc, id asc) total order.
func findWorst(nb []Neighbor) int {
	worst := 0
	for i := 1; i < len(nb); i++ {
		if ranksBelow(nb[i], nb[worst]) {
			worst = i
		}
	}
	return worst
}

// mergeLocals selects, for every node, the top-kCap candidates across all
// workers' local sets (ids are disjoint between workers, since each pair is
// computed once) and writes the sorted neighbor lists into g. The merge is
// parallelized over node ranges; each node's selection is independent.
func mergeLocals(g *Graph, locals []*bruteLocal, kCap, workers int) {
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
				sort.Slice(out, func(i, j int) bool {
					if out[i].Sim != out[j].Sim {
						return out[i].Sim > out[j].Sim
					}
					return out[i].ID < out[j].ID
				})
				g.Neighbors[x] = out
			}
		}(lo, hi)
	}
	wg.Wait()
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
