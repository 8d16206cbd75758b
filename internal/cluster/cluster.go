// Package cluster buckets users into small overlapping clusters using
// cheap hashes derived from their fingerprint bit rows — the grouping
// stage of Cluster-and-Conquer KNN construction (Giakkoupis, Kermarrec,
// Ruas, arXiv:2010.11497). Each of t independent views assigns every user
// to exactly one cluster via a min-wise hash of the user's set bits: two
// users whose SHFs share set bits collide with probability close to the
// Jaccard similarity of their bit sets, so a similar pair lands in the
// same cluster in at least one view with high probability while cluster
// sizes stay bounded. The per-view all-pairs work is then
// Σ cᵢ²/2 ≈ n·maxSize/2 instead of n²/2 — near-linear in n.
//
// Hashes read only the packed bit rows (no pass over raw profiles), so
// assignment costs O(n · set bits) per view and is trivially parallel.
// Buckets larger than the configured maximum are split recursively with
// fresh hash functions; buckets whose members are indistinguishable (bit
// identical or empty rows) fall back to deterministic chunking so the
// size bound always holds.
package cluster

import (
	"context"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"
)

// Source is the bit-row view hashes are derived from. core.PackedCorpus
// implements it directly; rows must not be mutated while Assign runs.
type Source interface {
	NumUsers() int
	NumBits() int
	// Row returns user i's packed bit row. Only bit positions below
	// NumBits() may be set.
	Row(i int) []uint64
}

// Config tunes Assign. The zero value selects the defaults the
// Cluster-and-Conquer builder ships with.
type Config struct {
	// Views is t, the number of independent cluster views; every user is
	// assigned to one cluster per view. 0 means DefaultViews.
	Views int
	// MaxSize bounds every cluster's member count; oversized buckets are
	// split recursively. 0 means DefaultMaxSize.
	MaxSize int
	// Buckets is the number of top-level buckets per view: min-hash
	// positions are folded modulo Buckets, so it controls the expected
	// cluster occupancy n/Buckets. 0 derives it from the corpus size as
	// clamp(n/(MaxSize/4), 1, NumBits()) — tiny corpora collapse into a
	// single (exact) cluster, large ones target an average occupancy of
	// MaxSize/4 with the oversize split absorbing the skew.
	Buckets int
	// Seed derives every hash function. Assignments are fully
	// deterministic for a fixed (Source, Config) regardless of Workers.
	Seed int64
	// Workers parallelizes the per-user key computation; 0 means
	// GOMAXPROCS.
	Workers int
	// Ctx cancels an assignment in progress: it is polled between views
	// and between key-computation chunks, and a canceled Assign returns
	// only the views that finished completely — each returned view is
	// still a full partition of the users. Nil means never cancel.
	Ctx context.Context
}

// DefaultViews is the default number of independent cluster views (t).
// Six views tuned against the synthetic ML10M shape at n=100k: going
// 4 → 6 buys ~0.07 recall for ~30% more (near-linear) scan work, still
// ~4× faster end to end than NNDescent at that scale; past 6 the views
// mostly rediscover the same pairs.
const DefaultViews = 6

// DefaultMaxSize is the default cluster size cap.
const DefaultMaxSize = 512

func (c Config) views() int {
	if c.Views <= 0 {
		return DefaultViews
	}
	return c.Views
}

func (c Config) maxSize() int {
	if c.MaxSize <= 0 {
		return DefaultMaxSize
	}
	return c.MaxSize
}

// buckets resolves the per-view top-level bucket count for n users over
// nbits-bit rows.
func (c Config) buckets(n, nbits int) int {
	if c.Buckets > 0 {
		return c.Buckets
	}
	target := c.maxSize() / 4
	if target < 1 {
		target = 1
	}
	b := n / target
	if b < 1 {
		b = 1
	}
	if nbits >= 1 && b > nbits {
		b = nbits
	}
	return b
}

func (c Config) workers() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

func (c Config) ctx() context.Context {
	if c.Ctx == nil {
		return context.Background()
	}
	return c.Ctx
}

// View is one independent clustering: a partition of all users into
// clusters of at most MaxSize members each.
type View struct {
	// Clusters lists every cluster's members in ascending user order.
	// Each user appears in exactly one cluster.
	Clusters [][]int32
	// ClustersOfKey maps a top-level bucket key (see Key) to the indices
	// of the clusters split from that bucket. Length NumBuckets()+1; key
	// NumBuckets() collects users with empty rows.
	ClustersOfKey [][]int32

	hash    mixer
	bits    int
	buckets int
}

// NumBuckets returns the view's top-level bucket count.
func (v *View) NumBuckets() int { return v.buckets }

// Key returns the view's top-level bucket key for an arbitrary packed bit
// row of the same length the view was built over: the set-bit position
// that minimizes the view's hash, folded modulo NumBuckets(), or
// NumBuckets() for an empty row. Rows that collide here were bucketed
// together before any oversize split — the cheap lookup query seeding
// uses.
func (v *View) Key(row []uint64) int {
	pos := v.hash.key(row, v.bits)
	if int(pos) == v.bits {
		return v.buckets
	}
	return int(pos) % v.buckets
}

// Assignment is the result of Assign: t independent views over one
// corpus.
type Assignment struct {
	// Bits is the row length the hashes were derived over.
	Bits  int
	Views []View
}

// Seeds returns up to max member ids drawn from the clusters the row's
// per-view bucket keys map to — the users most likely to be similar to
// the row under the same hashes that built the clustering. Results are
// deduplicated and deterministic; the slice is empty when every mapped
// bucket is empty (e.g. an empty row in a corpus with no empty rows).
func (a *Assignment) Seeds(row []uint64, max int) []int32 {
	if max <= 0 || len(a.Views) == 0 {
		return nil
	}
	// Deduplicated by scanning out: at most max (a few dozen) ids, where a
	// map cost an allocation per query.
	out := make([]int32, 0, max)
	perView := (max + len(a.Views) - 1) / len(a.Views)
	for vi := range a.Views {
		v := &a.Views[vi]
		key := v.Key(row)
		if key < 0 || key >= len(v.ClustersOfKey) {
			continue
		}
		took := 0
		// Round-robin across the key's clusters so seeds spread over the
		// split pieces instead of all landing in the first chunk.
		for rank := 0; took < perView; rank++ {
			advanced := false
			for _, ci := range v.ClustersOfKey[key] {
				members := v.Clusters[ci]
				if rank >= len(members) {
					continue
				}
				advanced = true
				id := members[rank]
				if !slices.Contains(out, id) {
					out = append(out, id)
					took++
					if took >= perView || len(out) >= max {
						break
					}
				}
			}
			if !advanced || len(out) >= max {
				break
			}
		}
		if len(out) >= max {
			break
		}
	}
	return out
}

// mixer is one cheap min-wise hash over set-bit positions: the key of a
// row is the set position whose mixed value is smallest. Two rows agree
// on the key with probability ≈ Jaccard of their bit sets (the classic
// min-hash argument), which is exactly the locality the clustering needs.
type mixer struct{ seed uint64 }

// mix64 is the splitmix64 finalizer — cheap, and avalanches every input
// bit into every output bit.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// key returns the min-hash bucket of row: a set-bit position in
// [0, bits), or bits when the row is empty.
func (m mixer) key(row []uint64, nbits int) int32 {
	best := ^uint64(0)
	pos := int32(nbits)
	for w, word := range row {
		base := w << 6
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			p := base + b
			if v := mix64(m.seed ^ (uint64(p) * 0x9e3779b97f4a7c15)); v < best {
				best = v
				pos = int32(p)
			}
		}
	}
	return pos
}

// table materializes the mixer's hash of every bit position: tab[p] is the
// value key compares at position p. A position's hash never changes under
// a fixed mixer, and the bucket pass keys t·n rows with hundreds of set
// bits each — one b-entry table (8 KB at b=1024, L1-resident) replaces a
// splitmix round per set bit per row with a load.
func (m mixer) table(nbits int) []uint64 {
	tab := make([]uint64, nbits)
	for p := range tab {
		tab[p] = mix64(m.seed ^ (uint64(p) * 0x9e3779b97f4a7c15))
	}
	return tab
}

// keyTable is mixer.key evaluated against a precomputed table; it must
// agree with key bit for bit.
func keyTable(tab []uint64, row []uint64, nbits int) int32 {
	best := ^uint64(0)
	pos := int32(nbits)
	for w, word := range row {
		base := w << 6
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			p := base + b
			if v := tab[p]; v < best {
				best = v
				pos = int32(p)
			}
		}
	}
	return pos
}

// viewMixer derives the hash for (view, level, attempt): level 0 is the
// top-level bucketing, deeper levels re-key oversized buckets.
func viewMixer(seed int64, view, level, attempt int) mixer {
	return mixer{seed: mix64(uint64(seed) ^
		uint64(view)<<40 ^ uint64(level)<<16 ^ uint64(attempt) ^ 0xc2b2ae3d27d4eb4f)}
}

// maxSplitLevels bounds the recursive re-hashing depth; a bucket still
// oversized after this many fresh hashes is chunked deterministically.
const maxSplitLevels = 64

// splitAttempts is how many fresh hash functions one level tries before
// concluding the members are indistinguishable and chunking them.
const splitAttempts = 4

// Assign buckets every user of src into one cluster per view. The result
// is deterministic for a fixed (src, cfg) and independent of
// cfg.Workers. A canceled cfg.Ctx returns the fully-finished views only.
func Assign(src Source, cfg Config) *Assignment {
	n := src.NumUsers()
	nbits := src.NumBits()
	t := cfg.views()
	maxSize := cfg.maxSize()
	nbuckets := cfg.buckets(n, nbits)
	workers := cfg.workers()
	ctx := cfg.ctx()

	a := &Assignment{Bits: nbits}
	keys := make([]int32, n)
	for vi := 0; vi < t; vi++ {
		if ctx.Err() != nil {
			return a
		}
		top := viewMixer(cfg.Seed, vi, 0, 0)
		tab := top.table(nbits)

		// Key every user under the view's top-level hash, in parallel
		// chunks; a canceled context abandons the view before grouping so
		// a returned view is never a partial partition.
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
				for u := lo; u < hi; u++ {
					if u&1023 == 0 && ctx.Err() != nil {
						return
					}
					if pos := keyTable(tab, src.Row(u), nbits); int(pos) == nbits {
						keys[u] = int32(nbuckets)
					} else {
						keys[u] = pos % int32(nbuckets)
					}
				}
			}(lo, hi)
		}
		wg.Wait()
		if ctx.Err() != nil {
			return a
		}

		// Group by key (ascending user order falls out of the scan), then
		// split oversized buckets.
		byKey := make([][]int32, nbuckets+1)
		for u := 0; u < n; u++ {
			byKey[keys[u]] = append(byKey[keys[u]], int32(u))
		}
		v := View{hash: top, bits: nbits, buckets: nbuckets, ClustersOfKey: make([][]int32, nbuckets+1)}
		sp := splitter{src: src, seed: cfg.Seed, view: vi, maxSize: maxSize, nbits: nbits}
		for key, members := range byKey {
			if len(members) == 0 {
				continue
			}
			start := len(v.Clusters)
			v.Clusters = sp.split(v.Clusters, members, 1)
			for ci := start; ci < len(v.Clusters); ci++ {
				v.ClustersOfKey[key] = append(v.ClustersOfKey[key], int32(ci))
			}
		}
		a.Views = append(a.Views, v)
	}
	return a
}

// splitter recursively splits oversized buckets with fresh hashes.
type splitter struct {
	src     Source
	seed    int64
	view    int
	maxSize int
	nbits   int
}

// split appends members to out as one or more clusters of at most
// maxSize users each, re-hashing oversized groups. Members must be in
// ascending order; every emitted cluster preserves it.
func (s *splitter) split(out [][]int32, members []int32, level int) [][]int32 {
	if len(members) <= s.maxSize {
		return append(out, members)
	}
	if level < maxSplitLevels {
		for attempt := 0; attempt < splitAttempts; attempt++ {
			h := viewMixer(s.seed, s.view, level, attempt)
			tab := h.table(s.nbits)
			groups := map[int32][]int32{}
			for _, u := range members {
				k := keyTable(tab, s.src.Row(int(u)), s.nbits)
				groups[k] = append(groups[k], u)
			}
			if len(groups) < 2 {
				continue // indistinguishable under this hash; try a fresh one
			}
			keys := make([]int32, 0, len(groups))
			for k := range groups {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			for _, k := range keys {
				out = s.split(out, groups[k], level+1)
			}
			return out
		}
	}
	// Members are bit-identical (or the level budget ran out): no hash
	// can separate them, so chunk deterministically. All-pairs work
	// inside such a bucket would be wasted anyway — identical rows score
	// identically against everything.
	for lo := 0; lo < len(members); lo += s.maxSize {
		out = append(out, members[lo:min(lo+s.maxSize, len(members))])
	}
	return out
}
