package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"goldfinger/internal/bitset"
	"goldfinger/internal/cow"
	"goldfinger/internal/profile"
)

// PackedCorpus stores n fingerprints as fixed-stride rows of 64-bit words
// plus a cardinality per row. Per-pair similarity over []Fingerprint chases
// a heap pointer per fingerprint (each *bitset.Set is a separate
// allocation); the packed layout lets the brute-force scan and the query
// path stream sequential rows instead, which is what the blocked kernels
// (bitset.AndCountInto) are written against.
//
// Memory layout: rows live in pages of pageRows = 1024 rows (cow.View),
// page p holding rows [p*pageRows, (p+1)*pageRows) back to back with
// stride = ceil(bits/64) words each; at the paper's default b = 1024 a row
// is 16 words (128 bytes, two cache lines) and a page 128 KB. Cardinalities
// live in pages of the same row count so the denominator of Eq. 4 is one
// load, not a struct field behind a pointer. pageRows is a multiple of
// packTile: a range kernel call covers at most one tile, a tile that starts
// on a tile boundary never straddles two pages, and such a scan issues
// exactly the calls it would over one flat array. Reaching a single row
// (Row, ScoreAbove, the gather kernel) costs one extra load from the page
// table. The page size is set by that load: two tables of n/pageRows slice
// headers (2×2.3 KB at n = 100k) stay L1-resident beside the rows streaming
// through, where 256-row pages (2×9.4 KB) measurably did not (ScoreAbove
// +14 % against +3 %); the price is a 128 KB copy per overwritten row,
// microseconds beside the graph repair the same overwrite triggers.
//
// Pages are what make the corpus cheap to change: a PackedCorpus is
// immutable and safe for concurrent reads, and Append and WithRow return a
// successor that shares every page they do not touch, so publishing one
// changed row costs one page copy and one table copy — an appended row
// that fits the last page, nothing — never a repack.
type PackedCorpus struct {
	bits   int
	stride int              // words per row, ceil(bits/64)
	rows   cow.View[uint64] // stride words per slot
	cards  cow.View[int32]  // one cardinality per slot
}

// pageShift fixes pageRows = 4·packTile rows per page.
const (
	pageShift = 10
	pageRows  = 1 << pageShift
	pageMask  = pageRows - 1
)

// corpusWriter is a corpus under construction: the row and cardinality
// vectors, written together and published together.
type corpusWriter struct {
	bits, stride int
	rows         *cow.Vec[uint64]
	cards        *cow.Vec[int32]
}

// newCorpusWriter returns a writer for an n-row corpus, every row zero and
// writable in place.
func newCorpusWriter(bits, n int) corpusWriter {
	stride := bitset.WordsFor(bits)
	w := corpusWriter{bits, stride, cow.New[uint64](pageShift, stride), cow.New[int32](pageShift, 1)}
	w.rows.Grow(n)
	w.cards.Grow(n)
	return w
}

// set stores row i, growing the corpus to hold it.
func (w corpusWriter) set(i int, words []uint64, card int32) {
	w.rows.Grow(i + 1)
	w.cards.Grow(i + 1)
	copy(w.rows.Mut(i), words)
	w.cards.Set(i, card)
}

func (w corpusWriter) publish() *PackedCorpus {
	return &PackedCorpus{bits: w.bits, stride: w.stride, rows: w.rows.Publish(), cards: w.cards.Publish()}
}

// checkFingerprint rejects fingerprints a corpus of the given length cannot
// hold: zero values (no bit array to copy) and other lengths.
func checkFingerprint(bits, i int, f Fingerprint) error {
	if f.bits == nil {
		return fmt.Errorf("core: fingerprint %d is a zero value", i)
	}
	if f.NumBits() != bits {
		return fmt.Errorf("core: fingerprint %d has %d bits, corpus uses %d", i, f.NumBits(), bits)
	}
	return nil
}

// NewPackedCorpus packs existing fingerprints into a new corpus. Every
// fingerprint must have exactly the given length; zero-value fingerprints
// are rejected (they have no bit array to copy).
func NewPackedCorpus(bits int, fps []Fingerprint) (*PackedCorpus, error) {
	if bits <= 0 {
		return nil, fmt.Errorf("core: fingerprint length must be positive, got %d", bits)
	}
	w := newCorpusWriter(bits, len(fps))
	for i, f := range fps {
		if err := checkFingerprint(bits, i, f); err != nil {
			return nil, err
		}
		w.set(i, f.bits.Words(), int32(f.card))
	}
	return w.publish(), nil
}

// Append returns a corpus with f added as row NumUsers(), sharing every
// page but the last with c.
func (c *PackedCorpus) Append(f Fingerprint) (*PackedCorpus, error) {
	return c.with(c.NumUsers(), f)
}

// WithRow returns a corpus whose row i is f, sharing every page but row
// i's with c. It panics if i is out of range, like any slice index.
func (c *PackedCorpus) WithRow(i int, f Fingerprint) (*PackedCorpus, error) {
	if i < 0 || i >= c.NumUsers() {
		panic(fmt.Sprintf("core: row %d out of range [0,%d)", i, c.NumUsers()))
	}
	return c.with(i, f)
}

func (c *PackedCorpus) with(i int, f Fingerprint) (*PackedCorpus, error) {
	if err := checkFingerprint(c.bits, i, f); err != nil {
		return nil, err
	}
	w := corpusWriter{c.bits, c.stride, c.rows.Edit(), c.cards.Edit()}
	w.set(i, f.bits.Words(), int32(f.card))
	return w.publish(), nil
}

// ChangedRows returns, in increasing order, the rows below
// min(c.NumUsers(), old.NumUsers()) whose bits differ between c and old.
// Pages the two corpora share are skipped without being read, so between a
// corpus and a successor reached through Append and WithRow the cost is
// proportional to the pages touched in between, not to n.
func (c *PackedCorpus) ChangedRows(old *PackedCorpus) []int32 {
	var changed []int32
	n := min(c.NumUsers(), old.NumUsers())
	for p := 0; p<<pageShift < n; p++ {
		if c.rows.SharesPage(old.rows, p) {
			continue
		}
		for i := p << pageShift; i < min((p+1)<<pageShift, n); i++ {
			if !slices.Equal(c.Row(i), old.Row(i)) {
				changed = append(changed, int32(i))
			}
		}
	}
	return changed
}

// PackProfiles fingerprints every profile directly into a packed corpus,
// spread over workers goroutines (0 means GOMAXPROCS). Unlike
// FingerprintAll, no per-user *bitset.Set is ever allocated: each worker
// sets bits straight into its rows of the corpus pages (rows are disjoint,
// so no synchronization beyond the final join is needed).
func (s *Scheme) PackProfiles(profiles []profile.Profile, workers int) *PackedCorpus {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := len(profiles)
	w := newCorpusWriter(s.bits, n)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for worker := 0; worker < workers; worker++ {
		lo := worker * chunk
		if lo >= n {
			break
		}
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				row := w.rows.Mut(i)
				for _, item := range profiles[i] {
					pos := s.BitOf(item)
					row[pos>>6] |= 1 << uint(pos&63)
				}
				w.cards.Set(i, int32(bitset.AndCountWords4(row, row)))
			}
		}(lo, hi)
	}
	wg.Wait()
	return w.publish()
}

// NumUsers returns the number of fingerprints in the corpus.
func (c *PackedCorpus) NumUsers() int { return c.cards.Len() }

// NumBits returns b, the fingerprint length in bits.
func (c *PackedCorpus) NumBits() int { return c.bits }

// Stride returns the number of 64-bit words per row.
func (c *PackedCorpus) Stride() int { return c.stride }

// Row returns fingerprint i's bit-array words as a slice of the shared
// storage. Callers must not mutate it.
func (c *PackedCorpus) Row(i int) []uint64 {
	off := (i & pageMask) * c.stride
	return c.rows.Pages()[i>>pageShift][off : off+c.stride : off+c.stride]
}

// card returns c_i as stored.
func (c *PackedCorpus) card(i int) int32 { return c.cards.Pages()[i>>pageShift][i&pageMask] }

// Cardinality returns c_i, the number of set bits of fingerprint i.
func (c *PackedCorpus) Cardinality(i int) int { return int(c.card(i)) }

// Fingerprint returns a zero-copy Fingerprint view of row i, usable with
// every per-pair API (Jaccard, the codec, the service). The view shares the
// corpus storage; since the corpus is immutable this is safe.
func (c *PackedCorpus) Fingerprint(i int) Fingerprint {
	return Fingerprint{bits: bitset.View(c.Row(i), c.bits), card: int(c.card(i))}
}

// SizeBytes returns the in-memory footprint of the packed payload.
func (c *PackedCorpus) SizeBytes() int { return c.NumUsers() * (c.stride*8 + 4) }

// Gather copies the given rows, in order, into a new corpus. The
// cluster-and-conquer builder uses it to turn a cluster's scattered member
// rows into a dense mini-corpus the one-vs-many kernels can stream;
// out-of-range ids panic like any slice index.
func (c *PackedCorpus) Gather(ids []int32) *PackedCorpus {
	w := newCorpusWriter(c.bits, len(ids))
	for i, id := range ids {
		w.set(i, c.Row(int(id)), c.card(int(id)))
	}
	return w.publish()
}

// Jaccard estimates Jaccard's index between rows u and v (paper Eq. 4).
// It is bit-for-bit identical to core.Jaccard on the unpacked fingerprints.
func (c *PackedCorpus) Jaccard(u, v int) float64 {
	inter := bitset.AndCountWords4(c.Row(u), c.Row(v))
	union := int(c.card(u)) + int(c.card(v)) - inter
	if union <= 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// Cosine estimates the binary cosine similarity between rows u and v,
// bit-for-bit identical to core.Cosine on the unpacked fingerprints.
func (c *PackedCorpus) Cosine(u, v int) float64 {
	cu, cv := c.card(u), c.card(v)
	if cu == 0 || cv == 0 {
		return 0
	}
	inter := bitset.AndCountWords4(c.Row(u), c.Row(v))
	return float64(inter) / math.Sqrt(float64(cu)*float64(cv))
}

// packTile is the number of rows each blocked-kernel call covers before the
// intersection counts are converted to similarities: 256 rows × 128 bytes
// (at b=1024) streams 32 KB per tile — L1-resident — while the int32
// scratch stays on the stack. It divides the page size (pageRows).
const packTile = 256

// tile returns the words and cardinalities of rows [start, end) — all in
// start's page — where end is hi, start+packTile or the page's end,
// whichever comes first.
func (c *PackedCorpus) tile(start, hi int) (end int, words []uint64, cards []int32) {
	p, off := start>>pageShift, start&pageMask
	end = min(hi, start+packTile, start-off+pageRows)
	return end, c.rows.Pages()[p][off*c.stride : (off+end-start)*c.stride], c.cards.Pages()[p][off : off+end-start]
}

// jaccardInto writes Ĵ(query, row v) for v in [lo, hi) into out[0:hi-lo].
func (c *PackedCorpus) jaccardInto(query []uint64, qcard int32, lo, hi int, out []float64) {
	var inter [packTile]int32
	for start := lo; start < hi; {
		end, words, cards := c.tile(start, hi)
		bitset.AndCountInto(query, words, c.stride, inter[:end-start])
		for j, card := range cards {
			in := int(inter[j])
			union := int(qcard) + int(card) - in
			if union <= 0 {
				out[start-lo+j] = 0
			} else {
				out[start-lo+j] = float64(in) / float64(union)
			}
		}
		start = end
	}
}

// cosineInto is jaccardInto for the binary cosine estimator.
func (c *PackedCorpus) cosineInto(query []uint64, qcard int32, lo, hi int, out []float64) {
	if qcard == 0 {
		for j := lo; j < hi; j++ {
			out[j-lo] = 0
		}
		return
	}
	var inter [packTile]int32
	for start := lo; start < hi; {
		end, words, cards := c.tile(start, hi)
		bitset.AndCountInto(query, words, c.stride, inter[:end-start])
		for j, card := range cards {
			if card == 0 {
				out[start-lo+j] = 0
			} else {
				out[start-lo+j] = float64(inter[j]) / math.Sqrt(float64(qcard)*float64(card))
			}
		}
		start = end
	}
}

// JaccardRangeInto writes Ĵ(u, v) for v in [lo, hi) into out[0:hi-lo],
// streaming the corpus once — the one-vs-many kernel behind BatchProvider.
func (c *PackedCorpus) JaccardRangeInto(u, lo, hi int, out []float64) {
	c.jaccardInto(c.Row(u), c.card(u), lo, hi, out)
}

// JaccardGatherInto estimates Ĵ(u, ids[i]) into out[i] for a scattered
// candidate list, bit-for-bit identical to per-pair Jaccard. It feeds the
// gather kernel (bitset.AndCountGatherPaged) in tile-sized chunks so the
// intersection scratch stays on the stack.
func (c *PackedCorpus) JaccardGatherInto(u int, ids []int32, out []float64) {
	jaccardGather(c.Row(u), int(c.card(u)), c.rows.Pages(), c.cards.Pages(), c.stride, ids, out)
}

// jaccardGather estimates Ĵ(query, ids[i]) into out[i] over a corpus's
// page tables, for a query row of cardinality qcard.
func jaccardGather(query []uint64, qcard int, rows [][]uint64, cards [][]int32, stride int, ids []int32, out []float64) {
	var inter [packTile]int32
	out = out[:len(ids)]
	for start := 0; start < len(ids); start += packTile {
		chunk := ids[start:min(start+packTile, len(ids))]
		bitset.AndCountGatherPaged(query, rows, pageShift, stride, chunk, inter[:len(chunk)])
		for j, id := range chunk {
			in := int(inter[j])
			union := qcard + int(cards[id>>pageShift][id&pageMask]) - in
			if union <= 0 {
				out[start+j] = 0
			} else {
				out[start+j] = float64(in) / float64(union)
			}
		}
	}
}

// JaccardQueryInto is JaccardRangeInto for an external query fingerprint
// (the service's /query path). It panics if the query length differs from
// the corpus length, matching core.Jaccard's mixed-scheme behavior.
func (c *PackedCorpus) JaccardQueryInto(q Fingerprint, lo, hi int, out []float64) {
	if q.NumBits() != c.bits {
		panic(fmt.Sprintf("core: query has %d bits, corpus uses %d", q.NumBits(), c.bits))
	}
	c.jaccardInto(q.bits.Words(), int32(q.card), lo, hi, out)
}

// CosineRangeInto writes the cosine estimate of (u, v) for v in [lo, hi)
// into out[0:hi-lo].
func (c *PackedCorpus) CosineRangeInto(u, lo, hi int, out []float64) {
	c.cosineInto(c.Row(u), c.card(u), lo, hi, out)
}

// QueryScorer scores individual corpus rows against one external query
// fingerprint — the per-node distance oracle of the graph-navigated search
// path, where candidates arrive one at a time (by graph edge) instead of as
// a contiguous range. Construction precomputes the query's suffix
// popcounts once so every ScoreAbove call can abandon a row mid-scan the
// moment the prefix-popcount bound proves the similarity cannot reach the
// caller's floor. A QueryScorer is read-only and safe for concurrent use.
type QueryScorer struct {
	// The corpus's page tables and stride, copied here so that reaching a
	// row is the same chain of dependent loads that indexing one flat
	// array behind a corpus pointer was (holding the corpus header by
	// value instead measured 10 % slower per scored row).
	rows   [][]uint64
	cards  [][]int32
	stride int
	n      int
	words  []uint64
	card   int32
	suffix []int32 // suffix[i] = popcount(words[i:])
}

// NewQueryScorer builds the per-node oracle for q against the corpus. It
// panics if the query length differs from the corpus length, matching
// JaccardQueryInto.
func (c *PackedCorpus) NewQueryScorer(q Fingerprint) *QueryScorer {
	if q.NumBits() != c.bits {
		panic(fmt.Sprintf("core: query has %d bits, corpus uses %d", q.NumBits(), c.bits))
	}
	words := q.bits.Words()
	return &QueryScorer{
		rows: c.rows.Pages(), cards: c.cards.Pages(), stride: c.stride, n: c.NumUsers(),
		words: words, card: int32(q.card), suffix: bitset.SuffixCounts(words),
	}
}

// NumUsers returns the number of scorable rows.
func (s *QueryScorer) NumUsers() int { return s.n }

// row and cardOf are PackedCorpus.Row and card on the scorer's own tables.
func (s *QueryScorer) row(v int32) []uint64 {
	off := int(v&pageMask) * s.stride
	return s.rows[v>>pageShift][off : off+s.stride : off+s.stride]
}

func (s *QueryScorer) cardOf(v int32) int32 { return s.cards[v>>pageShift][v&pageMask] }

// Score returns Ĵ(query, v), bit-for-bit identical to JaccardQueryInto on
// the same row.
func (s *QueryScorer) Score(v int32) float64 {
	inter := bitset.AndCountWords4(s.words, s.row(v))
	union := int(s.card) + int(s.cardOf(v)) - inter
	if union <= 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// ScoreBatch writes Ĵ(query, ids[i]) into sims[i] for a scattered id list,
// bit for bit what Score returns for each id, through the gather kernel
// that hoists the query words across the whole list. It is the batch path
// of the graph-navigated search, which collects a seed batch's or a hop's
// unvisited ids before scoring any; nothing is abandoned here, and
// len(sims) must be at least len(ids).
func (s *QueryScorer) ScoreBatch(ids []int32, sims []float64) {
	jaccardGather(s.words, int(s.card), s.rows, s.cards, s.stride, ids, sims)
}

// ScoreAbove returns Ĵ(query, v) when it might reach floor. ok=false means
// the similarity is provably below floor and was not computed exactly (the
// returned value is meaningless); ok=true returns the exact estimate, which
// can still be below floor — the bounds prove impossibility, not
// attainment. Two bounds apply before and during the row scan:
//
//   - cardinality prefilter: the intersection can never exceed
//     min(|query|, |row|), so rows whose cardinality caps the similarity
//     under floor are rejected without touching their words;
//   - prefix-popcount abandon: mid-scan, the remaining intersection is
//     bounded by the query bits not yet scanned (bitset.AndCountAbandon).
//
// Both derive from Ĵ ≥ floor ⟺ inter ≥ floor·(|q|+|v|)/(1+floor).
func (s *QueryScorer) ScoreAbove(v int32, floor float64) (float64, bool) {
	cv := s.cardOf(v)
	if floor <= 0 {
		return s.Score(v), true
	}
	// Smallest integer intersection that reaches floor.
	need := int32(math.Ceil(floor * float64(int(s.card)+int(cv)) / (1 + floor)))
	if need < 1 {
		need = 1 // floor > 0 needs at least one common bit
	}
	if s.card < need || cv < need {
		return 0, false
	}
	inter, done := bitset.AndCountAbandon(s.words, s.row(v), s.suffix, need)
	if !done {
		return 0, false
	}
	union := int(s.card) + int(cv) - int(inter)
	if union <= 0 {
		return 0, false // zero-similarity convention; floor > 0 here
	}
	return float64(inter) / float64(union), true
}
