package bitset

import (
	"math/rand"
	"testing"
)

// andCountRef is the obvious per-word reference the kernels are checked
// against.
func andCountRef(a, b []uint64) int {
	n := 0
	for i := range a {
		x := a[i] & b[i]
		for x != 0 {
			n++
			x &= x - 1
		}
	}
	return n
}

func randomWords(rng *rand.Rand, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		switch rng.Intn(4) {
		case 0:
			out[i] = 0
		case 1:
			out[i] = ^uint64(0)
		default:
			out[i] = rng.Uint64()
		}
	}
	return out
}

func TestAndCountWordsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Lengths around the unroll boundary and typical fingerprint strides
	// (b = 100 → 2 words, b = 1000 → 16, b = 1024 → 16, b = 8192 → 128).
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 64, 128} {
		for trial := 0; trial < 20; trial++ {
			a, b := randomWords(rng, n), randomWords(rng, n)
			want := andCountRef(a, b)
			if got := AndCountWords(a, b); got != want {
				t.Fatalf("AndCountWords(len %d) = %d, want %d", n, got, want)
			}
			if got := AndCountWords4(a, b); got != want {
				t.Fatalf("AndCountWords4(len %d) = %d, want %d", n, got, want)
			}
		}
	}
}

func TestAndCountWordsLengthMismatchPanics(t *testing.T) {
	for name, f := range map[string]func([]uint64, []uint64) int{
		"AndCountWords": AndCountWords, "AndCountWords4": AndCountWords4,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted mismatched lengths", name)
				}
			}()
			f(make([]uint64, 3), make([]uint64, 4))
		}()
	}
}

func TestAndCountIntoMatchesPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, tc := range []struct{ qwords, stride, rows int }{
		{0, 0, 0},    // empty everything
		{1, 1, 1},    // single word, single row
		{2, 2, 7},    // b=100 geometry
		{16, 16, 33}, // b=1024 geometry: the fully-unrolled fast path
		{16, 17, 5},  // q=16 but padded stride: must stay on the generic path
		{5, 8, 10},   // query shorter than stride (padded rows)
	} {
		query := randomWords(rng, tc.qwords)
		corpus := randomWords(rng, tc.rows*tc.stride)
		out := make([]int32, tc.rows)
		AndCountInto(query, corpus, tc.stride, out)
		for r := 0; r < tc.rows; r++ {
			want := int32(andCountRef(query, corpus[r*tc.stride:r*tc.stride+tc.qwords]))
			if out[r] != want {
				t.Fatalf("geometry %+v row %d: got %d, want %d", tc, r, out[r], want)
			}
		}
	}
}

func TestAndCountGatherMatchesPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct{ qwords, stride, rows int }{
		{1, 1, 4},    // single word rows
		{2, 2, 9},    // b=100 geometry
		{16, 16, 40}, // b=1024 geometry: the fully-unrolled fast path
		{16, 17, 6},  // q=16 but padded stride: must stay on the generic path
		{5, 8, 10},   // query shorter than stride (padded rows)
	} {
		query := randomWords(rng, tc.qwords)
		corpus := randomWords(rng, tc.rows*tc.stride)
		// Scattered ids, out of order and with repeats.
		ids := make([]int32, 0, 2*tc.rows)
		for r := tc.rows - 1; r >= 0; r-- {
			ids = append(ids, int32(r), int32((r*7+3)%tc.rows))
		}
		out := make([]int32, len(ids))
		AndCountGather(query, corpus, tc.stride, ids, out)
		for i, id := range ids {
			want := int32(andCountRef(query, corpus[int(id)*tc.stride:int(id)*tc.stride+tc.qwords]))
			if out[i] != want {
				t.Fatalf("geometry %+v id %d: got %d, want %d", tc, id, out[i], want)
			}
		}
		// The paged kernel over the same rows cut into 4-row pages (the
		// last one partial) must agree with the flat one.
		const shift = 2
		var pages [][]uint64
		for lo := 0; lo < tc.rows; lo += 1 << shift {
			hi := min(lo+1<<shift, tc.rows)
			pages = append(pages, corpus[lo*tc.stride:hi*tc.stride])
		}
		paged := make([]int32, len(ids))
		AndCountGatherPaged(query, pages, shift, tc.stride, ids, paged)
		for i := range ids {
			if paged[i] != out[i] {
				t.Fatalf("geometry %+v id %d: paged %d, flat %d", tc, ids[i], paged[i], out[i])
			}
		}
	}
}

func TestAndCountGatherBadGeometryPanics(t *testing.T) {
	assertPanics := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	assertPanics("stride<query", func() {
		AndCountGather(make([]uint64, 4), make([]uint64, 8), 2, []int32{0}, make([]int32, 1))
	})
	assertPanics("ids/out mismatch", func() {
		AndCountGather(make([]uint64, 2), make([]uint64, 8), 2, []int32{0, 1}, make([]int32, 1))
	})
	assertPanics("id out of range", func() {
		AndCountGather(make([]uint64, 2), make([]uint64, 4), 2, []int32{2}, make([]int32, 1))
	})
}

func TestAndCountIntoBadGeometryPanics(t *testing.T) {
	assertPanics := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	assertPanics("stride<query", func() {
		AndCountInto(make([]uint64, 4), make([]uint64, 8), 2, make([]int32, 2))
	})
	assertPanics("corpus too short", func() {
		AndCountInto(make([]uint64, 2), make([]uint64, 5), 2, make([]int32, 3))
	})
}

func TestAndCountIntoAgreesWithSetKernel(t *testing.T) {
	// The raw kernel and the *Set kernel must agree bit for bit on real
	// fingerprint-shaped vectors, including non-multiple-of-64 lengths.
	rng := rand.New(rand.NewSource(3))
	for _, nbits := range []int{1, 63, 64, 100, 1000, 1024} {
		stride := WordsFor(nbits)
		const rows = 9
		corpus := make([]uint64, rows*stride)
		sets := make([]*Set, rows)
		for r := range sets {
			s := New(nbits)
			for i := 0; i < nbits/7+1; i++ {
				s.Set(rng.Intn(nbits))
			}
			sets[r] = s
			copy(corpus[r*stride:], s.Words())
		}
		q := New(nbits)
		for i := 0; i < nbits/5+1; i++ {
			q.Set(rng.Intn(nbits))
		}
		out := make([]int32, rows)
		AndCountInto(q.Words(), corpus, stride, out)
		for r := range sets {
			if want := AndCount(q, sets[r]); int(out[r]) != want {
				t.Fatalf("nbits=%d row %d: kernel %d, AndCount %d", nbits, r, out[r], want)
			}
		}
	}
}

func TestViewSharesStorage(t *testing.T) {
	s := New(100)
	s.Set(3)
	s.Set(99)
	v := View(s.Words(), 100)
	if !v.Equal(s) {
		t.Fatal("view differs from original")
	}
	s.Set(50)
	if !v.Test(50) {
		t.Fatal("view did not observe mutation of the shared storage")
	}
	if v.Count() != 3 {
		t.Fatalf("view Count = %d, want 3", v.Count())
	}
}

func TestViewLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("View accepted a mismatched word count")
		}
	}()
	View(make([]uint64, 3), 100) // needs exactly 2 words
}

func TestOnesSinglePassMatchesNextSetWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, nbits := range []int{0, 1, 64, 100, 129, 1024} {
		for trial := 0; trial < 10; trial++ {
			s := New(nbits)
			for i := 0; nbits > 0 && i < rng.Intn(nbits+1); i++ {
				s.Set(rng.Intn(nbits))
			}
			var want []int
			for i := s.NextSet(0); i >= 0; i = s.NextSet(i + 1) {
				want = append(want, i)
			}
			got := s.Ones()
			if len(got) != len(want) {
				t.Fatalf("nbits=%d: Ones len %d, walk len %d", nbits, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("nbits=%d: Ones[%d]=%d, walk=%d", nbits, i, got[i], want[i])
				}
			}
		}
	}
}
