package bitset

import (
	"fmt"
	"math/bits"
)

// This file holds the raw word-slice kernels behind the packed fingerprint
// corpus (core.PackedCorpus): AND+popcount over contiguous []uint64 rows,
// with no *Set indirection in the inner loops. The slicing patterns are
// chosen so the compiler can prove bounds once per row and eliminate
// per-word checks.

// AndCountWords returns popcount(a AND b) over two word slices of equal
// length — Eq. 4's numerator on raw storage. It panics if the lengths
// differ.
func AndCountWords(a, b []uint64) int {
	if len(a) != len(b) {
		panic(fmt.Sprintf("bitset: word-slice length mismatch %d != %d", len(a), len(b)))
	}
	b = b[:len(a)] // bounds-check elimination for b[i]
	n := 0
	for i := range a {
		n += bits.OnesCount64(a[i] & b[i])
	}
	return n
}

// AndCountWords4 is AndCountWords with a 4-way unrolled inner loop: four
// independent popcount accumulators expose instruction-level parallelism
// that a single serial accumulator chain hides. At b = 1024 (16 words per
// fingerprint) the unrolled body covers the whole row in four iterations.
// It panics if the lengths differ.
func AndCountWords4(a, b []uint64) int {
	if len(a) != len(b) {
		panic(fmt.Sprintf("bitset: word-slice length mismatch %d != %d", len(a), len(b)))
	}
	b = b[:len(a)]
	var n0, n1, n2, n3 int
	i := 0
	for ; i+4 <= len(a); i += 4 {
		n0 += bits.OnesCount64(a[i] & b[i])
		n1 += bits.OnesCount64(a[i+1] & b[i+1])
		n2 += bits.OnesCount64(a[i+2] & b[i+2])
		n3 += bits.OnesCount64(a[i+3] & b[i+3])
	}
	for ; i < len(a); i++ {
		n0 += bits.OnesCount64(a[i] & b[i])
	}
	return n0 + n1 + n2 + n3
}

// SuffixCounts returns suf of length len(words)+1 with
// suf[i] = popcount(words[i:]) and suf[len(words)] = 0. A query's suffix
// counts turn a partial AND+popcount into a provable upper bound on the
// full intersection — the remaining intersection can never exceed the
// query bits not yet scanned — which is what AndCountAbandon prunes with.
func SuffixCounts(words []uint64) []int32 {
	suf := make([]int32, len(words)+1)
	for i := len(words) - 1; i >= 0; i-- {
		suf[i] = suf[i+1] + int32(bits.OnesCount64(words[i]))
	}
	return suf
}

// AndCountAbandon computes popcount(query AND row) like AndCountWords, but
// abandons the scan as soon as the running count plus qsuffix[i] — the
// query bits in the words not yet scanned — cannot reach need. It returns
// (count, true) when the scan completed (count is exact, and may still be
// below need: the bound only proves impossibility, not attainment), or
// (partial, false) when it proved count would end below need. qsuffix must
// be SuffixCounts(query); the bound is checked once per 4-word block so
// the unrolled inner loop keeps its instruction-level parallelism. It
// panics if the lengths differ.
func AndCountAbandon(query, row []uint64, qsuffix []int32, need int32) (int32, bool) {
	if len(query) != len(row) {
		panic(fmt.Sprintf("bitset: word-slice length mismatch %d != %d", len(query), len(row)))
	}
	row = row[:len(query)]
	var n int32
	i := 0
	for ; i+4 <= len(query); i += 4 {
		if n+qsuffix[i] < need {
			return n, false
		}
		n += int32(bits.OnesCount64(query[i]&row[i])) +
			int32(bits.OnesCount64(query[i+1]&row[i+1])) +
			int32(bits.OnesCount64(query[i+2]&row[i+2])) +
			int32(bits.OnesCount64(query[i+3]&row[i+3]))
	}
	if i < len(query) {
		if n+qsuffix[i] < need {
			return n, false
		}
		for ; i < len(query); i++ {
			n += int32(bits.OnesCount64(query[i] & row[i]))
		}
	}
	return n, true
}

// AndCountInto is the one-vs-many block kernel: corpus holds len(out)
// fixed-stride rows back to back, and out[r] receives
// popcount(query AND corpus[r*stride : r*stride+len(query)]). The query is
// read once per row while the corpus streams sequentially — the access
// pattern the packed layout exists for. len(query) may be smaller than
// stride (trailing pad words are ignored); it panics if the geometry is
// inconsistent.
func AndCountInto(query, corpus []uint64, stride int, out []int32) {
	rows := len(out)
	if rows == 0 {
		return
	}
	if stride < len(query) {
		panic(fmt.Sprintf("bitset: stride %d shorter than query length %d", stride, len(query)))
	}
	if len(corpus) < rows*stride {
		panic(fmt.Sprintf("bitset: corpus of %d words cannot hold %d rows of stride %d", len(corpus), rows, stride))
	}
	q := len(query)
	if q == 16 && stride == 16 {
		andCountInto16(query, corpus, out)
		return
	}
	for r := 0; r < rows; r++ {
		row := corpus[r*stride : r*stride+q : r*stride+q]
		var n0, n1, n2, n3 int
		i := 0
		for ; i+4 <= q; i += 4 {
			n0 += bits.OnesCount64(query[i] & row[i])
			n1 += bits.OnesCount64(query[i+1] & row[i+1])
			n2 += bits.OnesCount64(query[i+2] & row[i+2])
			n3 += bits.OnesCount64(query[i+3] & row[i+3])
		}
		for ; i < q; i++ {
			n0 += bits.OnesCount64(query[i] & row[i])
		}
		out[r] = int32(n0 + n1 + n2 + n3)
	}
}

// andCountInto16 is AndCountInto specialized for the paper's default
// geometry, b = 1024 (16 words per row, stride 16): the row loop body is
// fully unrolled with four independent accumulator chains and no inner
// loop control, and the query words are loaded into locals once so the
// compiler keeps them in registers across the whole block instead of
// re-reading the slice every row.
func andCountInto16(query, corpus []uint64, out []int32) {
	q := query[:16:16]
	q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
	q4, q5, q6, q7 := q[4], q[5], q[6], q[7]
	q8, q9, q10, q11 := q[8], q[9], q[10], q[11]
	q12, q13, q14, q15 := q[12], q[13], q[14], q[15]
	for r := range out {
		row := corpus[r*16 : r*16+16 : r*16+16]
		n0 := bits.OnesCount64(q0&row[0]) + bits.OnesCount64(q4&row[4]) +
			bits.OnesCount64(q8&row[8]) + bits.OnesCount64(q12&row[12])
		n1 := bits.OnesCount64(q1&row[1]) + bits.OnesCount64(q5&row[5]) +
			bits.OnesCount64(q9&row[9]) + bits.OnesCount64(q13&row[13])
		n2 := bits.OnesCount64(q2&row[2]) + bits.OnesCount64(q6&row[6]) +
			bits.OnesCount64(q10&row[10]) + bits.OnesCount64(q14&row[14])
		n3 := bits.OnesCount64(q3&row[3]) + bits.OnesCount64(q7&row[7]) +
			bits.OnesCount64(q11&row[11]) + bits.OnesCount64(q15&row[15])
		out[r] = int32(n0 + n1 + n2 + n3)
	}
}

// AndCountGather is the one-vs-scattered kernel: out[i] receives
// popcount(query AND corpus[ids[i]*stride : ids[i]*stride+len(query)]).
// Candidate scoring in the refinement sweep picks a few hundred rows by id
// per user — there is no contiguous range to stream, but hoisting the
// query words into locals across the whole id list amortizes the query
// loads exactly like the tiled kernel does per block. len(query) may be
// smaller than stride (trailing pad words are ignored); it panics if the
// geometry is inconsistent. Row ids are bounds-checked by the row slicing.
func AndCountGather(query, corpus []uint64, stride int, ids []int32, out []int32) {
	if len(ids) != len(out) {
		panic(fmt.Sprintf("bitset: %d gather ids but %d outputs", len(ids), len(out)))
	}
	if stride < len(query) {
		panic(fmt.Sprintf("bitset: stride %d shorter than query length %d", stride, len(query)))
	}
	q := len(query)
	if q == 16 && stride == 16 {
		andCountGather16(query, corpus, ids, out)
		return
	}
	for i, id := range ids {
		base := int(id) * stride
		row := corpus[base : base+q : base+q]
		var n0, n1, n2, n3 int
		w := 0
		for ; w+4 <= q; w += 4 {
			n0 += bits.OnesCount64(query[w] & row[w])
			n1 += bits.OnesCount64(query[w+1] & row[w+1])
			n2 += bits.OnesCount64(query[w+2] & row[w+2])
			n3 += bits.OnesCount64(query[w+3] & row[w+3])
		}
		for ; w < q; w++ {
			n0 += bits.OnesCount64(query[w] & row[w])
		}
		out[i] = int32(n0 + n1 + n2 + n3)
	}
}

// andCountGather16 is AndCountGather specialized for the paper's default
// geometry exactly like andCountInto16: fully unrolled row body, four
// independent accumulator chains, query words pinned in registers across
// the whole id list.
func andCountGather16(query, corpus []uint64, ids []int32, out []int32) {
	q := query[:16:16]
	q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
	q4, q5, q6, q7 := q[4], q[5], q[6], q[7]
	q8, q9, q10, q11 := q[8], q[9], q[10], q[11]
	q12, q13, q14, q15 := q[12], q[13], q[14], q[15]
	for i, id := range ids {
		base := int(id) * 16
		row := corpus[base : base+16 : base+16]
		n0 := bits.OnesCount64(q0&row[0]) + bits.OnesCount64(q4&row[4]) +
			bits.OnesCount64(q8&row[8]) + bits.OnesCount64(q12&row[12])
		n1 := bits.OnesCount64(q1&row[1]) + bits.OnesCount64(q5&row[5]) +
			bits.OnesCount64(q9&row[9]) + bits.OnesCount64(q13&row[13])
		n2 := bits.OnesCount64(q2&row[2]) + bits.OnesCount64(q6&row[6]) +
			bits.OnesCount64(q10&row[10]) + bits.OnesCount64(q14&row[14])
		n3 := bits.OnesCount64(q3&row[3]) + bits.OnesCount64(q7&row[7]) +
			bits.OnesCount64(q11&row[11]) + bits.OnesCount64(q15&row[15])
		out[i] = int32(n0 + n1 + n2 + n3)
	}
}

// AndCountGatherPaged is AndCountGather over a paged corpus: row id lives
// in pages[id>>shift] at row (id mod 1<<shift) of that page, every page
// holding its rows back to back at the given stride. The only cost over the
// flat kernel is one load from the page table per row — a table of n>>shift
// slice headers that stays cache-resident across the id list. It panics if
// the geometry is inconsistent; row ids are bounds-checked by the page
// index and the row slicing.
func AndCountGatherPaged(query []uint64, pages [][]uint64, shift uint, stride int, ids []int32, out []int32) {
	if len(ids) != len(out) {
		panic(fmt.Sprintf("bitset: %d gather ids but %d outputs", len(ids), len(out)))
	}
	if stride < len(query) {
		panic(fmt.Sprintf("bitset: stride %d shorter than query length %d", stride, len(query)))
	}
	mask := 1<<shift - 1
	q := len(query)
	if q == 16 && stride == 16 {
		andCountGatherPaged16(query, pages, shift, ids, out)
		return
	}
	for i, id := range ids {
		base := (int(id) & mask) * stride
		row := pages[int(id)>>shift][base : base+q : base+q]
		var n0, n1, n2, n3 int
		w := 0
		for ; w+4 <= q; w += 4 {
			n0 += bits.OnesCount64(query[w] & row[w])
			n1 += bits.OnesCount64(query[w+1] & row[w+1])
			n2 += bits.OnesCount64(query[w+2] & row[w+2])
			n3 += bits.OnesCount64(query[w+3] & row[w+3])
		}
		for ; w < q; w++ {
			n0 += bits.OnesCount64(query[w] & row[w])
		}
		out[i] = int32(n0 + n1 + n2 + n3)
	}
}

// andCountGatherPaged16 is AndCountGatherPaged at the paper's default
// geometry, unrolled exactly like andCountGather16.
func andCountGatherPaged16(query []uint64, pages [][]uint64, shift uint, ids []int32, out []int32) {
	mask := 1<<shift - 1
	q := query[:16:16]
	q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
	q4, q5, q6, q7 := q[4], q[5], q[6], q[7]
	q8, q9, q10, q11 := q[8], q[9], q[10], q[11]
	q12, q13, q14, q15 := q[12], q[13], q[14], q[15]
	for i, id := range ids {
		base := (int(id) & mask) * 16
		row := pages[int(id)>>shift][base : base+16 : base+16]
		n0 := bits.OnesCount64(q0&row[0]) + bits.OnesCount64(q4&row[4]) +
			bits.OnesCount64(q8&row[8]) + bits.OnesCount64(q12&row[12])
		n1 := bits.OnesCount64(q1&row[1]) + bits.OnesCount64(q5&row[5]) +
			bits.OnesCount64(q9&row[9]) + bits.OnesCount64(q13&row[13])
		n2 := bits.OnesCount64(q2&row[2]) + bits.OnesCount64(q6&row[6]) +
			bits.OnesCount64(q10&row[10]) + bits.OnesCount64(q14&row[14])
		n3 := bits.OnesCount64(q3&row[3]) + bits.OnesCount64(q7&row[7]) +
			bits.OnesCount64(q11&row[11]) + bits.OnesCount64(q15&row[15])
		out[i] = int32(n0 + n1 + n2 + n3)
	}
}
