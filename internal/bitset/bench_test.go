package bitset

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchPair(nbits int) (*Set, *Set) {
	r := rand.New(rand.NewSource(int64(nbits)))
	a, b := New(nbits), New(nbits)
	for i := 0; i < nbits/10+1; i++ {
		a.Set(r.Intn(nbits))
		b.Set(r.Intn(nbits))
	}
	return a, b
}

func BenchmarkAndCount(b *testing.B) {
	for _, nbits := range []int{64, 256, 1024, 4096, 8192} {
		x, y := benchPair(nbits)
		b.Run(fmt.Sprintf("bits=%d", nbits), func(b *testing.B) {
			var sink int
			for i := 0; i < b.N; i++ {
				sink += AndCount(x, y)
			}
			_ = sink
		})
	}
}

func BenchmarkCount(b *testing.B) {
	x, _ := benchPair(1024)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += x.Count()
	}
	_ = sink
}

func BenchmarkSet(b *testing.B) {
	s := New(1024)
	for i := 0; i < b.N; i++ {
		s.Set(i & 1023)
	}
}

func BenchmarkOnes(b *testing.B) {
	// Density sweep: the single-pass extraction loop must win at every
	// fill level over the old Count()+NextSet double walk.
	for _, fill := range []int{8, 102, 512} {
		x := New(1024)
		r := rand.New(rand.NewSource(int64(fill)))
		for i := 0; i < fill; i++ {
			x.Set(r.Intn(1024))
		}
		b.Run(fmt.Sprintf("fill=%d", fill), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x.Ones()
			}
		})
	}
}

func BenchmarkOnesNextSetWalk(b *testing.B) {
	// The pre-optimization Ones implementation, kept as the baseline the
	// BenchmarkOnes numbers are read against.
	x, _ := benchPair(1024)
	for i := 0; i < b.N; i++ {
		out := make([]int, 0, x.Count())
		for j := x.NextSet(0); j >= 0; j = x.NextSet(j + 1) {
			out = append(out, j)
		}
	}
}

func BenchmarkAndCountWords(b *testing.B) {
	for _, nbits := range []int{1024, 8192} {
		x, y := benchPair(nbits)
		xw, yw := x.Words(), y.Words()
		b.Run(fmt.Sprintf("plain/bits=%d", nbits), func(b *testing.B) {
			var sink int
			for i := 0; i < b.N; i++ {
				sink += AndCountWords(xw, yw)
			}
			_ = sink
		})
		b.Run(fmt.Sprintf("unrolled4/bits=%d", nbits), func(b *testing.B) {
			var sink int
			for i := 0; i < b.N; i++ {
				sink += AndCountWords4(xw, yw)
			}
			_ = sink
		})
	}
}

func BenchmarkAndCountInto(b *testing.B) {
	// One query against a packed block of rows — the inner loop of the
	// brute-force scan. Compared against the same work done through the
	// per-pair *Set kernel.
	const nbits, rows = 1024, 256
	stride := WordsFor(nbits)
	r := rand.New(rand.NewSource(7))
	corpus := make([]uint64, rows*stride)
	sets := make([]*Set, rows)
	for i := range sets {
		s := New(nbits)
		for j := 0; j < nbits/10; j++ {
			s.Set(r.Intn(nbits))
		}
		sets[i] = s
		copy(corpus[i*stride:], s.Words())
	}
	q, _ := benchPair(nbits)
	out := make([]int32, rows)
	b.Run("block", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			AndCountInto(q.Words(), corpus, stride, out)
		}
	})
	b.Run("per-pair", func(b *testing.B) {
		var sink int
		for i := 0; i < b.N; i++ {
			for j := 0; j < rows; j++ {
				sink += AndCount(q, sets[j])
			}
		}
		_ = sink
	})
}

func BenchmarkAndCountGatherPaged(b *testing.B) {
	// One query against 2 000 random rows of a 100k-row corpus in
	// 1024-row pages — the candidate scoring of the graph search and the
	// refinement sweep — with the rows L1-resident (in=256: the ids
	// repeat 256 rows) and scattered over 12.8 MB (in=100000).
	const nbits, n, shift = 1024, 100_000, 10
	stride := WordsFor(nbits)
	r := rand.New(rand.NewSource(9))
	corpus := make([]uint64, n*stride)
	for i := range corpus {
		corpus[i] = r.Uint64() & r.Uint64()
	}
	var pages [][]uint64
	for lo := 0; lo < n; lo += 1 << shift {
		pages = append(pages, corpus[lo*stride:min(lo+1<<shift, n)*stride])
	}
	q, _ := benchPair(nbits)
	out := make([]int32, 2000)
	for _, in := range []int{256, n} {
		ids := make([]int32, len(out))
		for i := range ids {
			ids[i] = int32(r.Intn(in))
		}
		b.Run(fmt.Sprintf("in=%d", in), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				AndCountGatherPaged(q.Words(), pages, shift, stride, ids, out)
			}
		})
	}
}
