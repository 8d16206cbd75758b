package bitset

import (
	"bytes"
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

// rows16 returns n 16-word rows back to back, cycling through random,
// all-zero and all-ones rows so every run holds all three.
func rows16(rng *rand.Rand, n int) []uint64 {
	out := make([]uint64, 16*n)
	for r := 0; r < n; r++ {
		row := out[16*r : 16*r+16]
		switch r % 3 {
		case 0:
			copy(row, randomWords(rng, 16))
		case 2:
			for i := range row {
				row[i] = ^uint64(0)
			}
		}
	}
	return out
}

// queries16 are the 16-word queries the assembly parity checks run: one
// random, all-zero and all-ones.
func queries16(rng *rand.Rand) [][]uint64 {
	ones := make([]uint64, 16)
	for i := range ones {
		ones[i] = ^uint64(0)
	}
	return [][]uint64{randomWords(rng, 16), make([]uint64, 16), ones}
}

// needAsm skips the assembly half of a parity test on CPUs without AVX-512
// VPOPCNTQ, where every entry point runs the Go kernels.
func needAsm(t *testing.T) {
	t.Helper()
	if !hasVPOPCNTQ {
		t.Skip("no AVX-512 VPOPCNTQ: the entry points run the Go kernels")
	}
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
	t.Run("asm16", func(t *testing.T) {
		needAsm(t)
		rows := rows16(rng, 30)
		for _, q := range queries16(rng) {
			for r := 0; r < 30; r++ {
				row := rows[16*r : 16*r+16]
				want := AndCountWords(q, row) // the plain Go loop
				if got := andCount16Asm(q, row); got != want {
					t.Fatalf("row %d: asm %d, Go %d", r, got, want)
				}
				if got := AndCountWords4(q, row); got != want {
					t.Fatalf("row %d: AndCountWords4 %d, Go %d", r, got, want)
				}
			}
		}
	})
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
	t.Run("asm16", func(t *testing.T) {
		needAsm(t)
		// 0 rows, one chunk, exactly one and more than one 256-row chunk.
		for _, rows := range []int{0, 1, 255, 256, 257, 700} {
			corpus := rows16(rng, rows)
			for _, q := range queries16(rng) {
				goOut, asmOut, pubOut := make([]int32, rows), make([]int32, rows), make([]int32, rows)
				andCountInto16(q, corpus, goOut)
				andCountInto16Asm(q, corpus, asmOut)
				AndCountInto(q, corpus, 16, pubOut)
				for r := range goOut {
					if want := int32(andCountRef(q, corpus[16*r:16*r+16])); goOut[r] != want {
						t.Fatalf("%d rows, row %d: Go %d, reference %d", rows, r, goOut[r], want)
					}
					if asmOut[r] != goOut[r] || pubOut[r] != goOut[r] {
						t.Fatalf("%d rows, row %d: asm %d, AndCountInto %d, Go %d", rows, r, asmOut[r], pubOut[r], goOut[r])
					}
				}
			}
		}
	})
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
	t.Run("asm16", func(t *testing.T) {
		needAsm(t)
		// 2500 rows in 1024-row pages, the last one partial, as
		// core.PackedCorpus pages them.
		const n, shift = 2500, 10
		corpus := rows16(rng, n)
		pages := [][]uint64{corpus[:1024*16], corpus[1024*16 : 2048*16], corpus[2048*16:]}
		edges := []int32{0, 1023, 1024, n - 1}
		many := make([]int32, 700)
		for i := range many {
			many[i] = int32(rng.Intn(n))
		}
		copy(many[250:], edges) // page edges straddling the first chunk boundary
		for _, ids := range [][]int32{nil, edges, many} {
			for _, q := range queries16(rng) {
				goOut, asmOut := make([]int32, len(ids)), make([]int32, len(ids))
				andCountGatherPaged16(q, pages, shift, ids, goOut)
				andCountGatherPaged16Asm(q, pages, shift, ids, asmOut)
				for i, id := range ids {
					if want := int32(andCountRef(q, corpus[16*int(id):16*int(id)+16])); goOut[i] != want {
						t.Fatalf("id %d: Go %d, reference %d", id, goOut[i], want)
					}
					if asmOut[i] != goOut[i] {
						t.Fatalf("%d ids, id %d: asm %d, Go %d", len(ids), id, asmOut[i], goOut[i])
					}
				}
				flat := make([]int32, len(ids))
				AndCountGather(q, corpus, 16, ids, flat)
				for i := range ids {
					if flat[i] != goOut[i] {
						t.Fatalf("flat corpus, id %d: AndCountGather %d, Go %d", ids[i], flat[i], goOut[i])
					}
				}
			}
		}
		// An id off the table must panic before the assembly reads
		// anything: the chunk holding it stays unwritten.
		for _, bad := range []int32{-1, n, 3 << shift} {
			ids := []int32{0, 1, bad}
			out := []int32{-1, -1, -1}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("id %d: no panic", bad)
					}
				}()
				andCountGatherPaged16Asm(corpus[:16], pages, shift, ids, out)
			}()
			if out[0] != -1 || out[1] != -1 {
				t.Errorf("id %d: the assembly ran before the panic (out %v)", bad, out)
			}
		}
	})
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

// FuzzAndCountKernels checks the 16-word entry points — the assembly path
// on CPUs with AVX-512 VPOPCNTQ — against the Go kernels and the per-word
// reference on rows, ids and page sizes the fuzzer picks. The first 128
// bytes of data are the query, the rest the rows; ids index the rows
// modulo their count.
func FuzzAndCountKernels(f *testing.F) {
	f.Add([]byte{}, []byte{0, 1, 2}, uint8(0))
	f.Add(bytes.Repeat([]byte{0xff}, 128*5), []byte{4, 0, 3, 3}, uint8(1))
	f.Add(bytes.Repeat([]byte{0x5a, 0x0f, 0}, 128*3), bytes.Repeat([]byte{7, 200, 31}, 120), uint8(2))
	f.Fuzz(func(t *testing.T, data, idBytes []byte, shift uint8) {
		words := make([]uint64, max(2, (len(data)+127)/128)*16)
		for i, b := range data {
			words[i/8] |= uint64(b) << (8 * (i % 8))
		}
		query, corpus := words[:16], words[16:]
		n := len(corpus) / 16
		ids := make([]int32, len(idBytes))
		for i, b := range idBytes {
			ids[i] = int32(int(b)+i) % int32(n)
		}
		sh := uint(shift % 5)
		var pages [][]uint64
		for lo := 0; lo < n; lo += 1 << sh {
			pages = append(pages, corpus[16*lo:16*min(lo+1<<sh, n)])
		}

		goInto, into := make([]int32, n), make([]int32, n)
		andCountInto16(query, corpus, goInto)
		AndCountInto(query, corpus, 16, into)
		for r := range into {
			row := corpus[16*r : 16*r+16]
			want := andCountRef(query, row)
			if int(goInto[r]) != want || int(into[r]) != want {
				t.Fatalf("row %d: AndCountInto %d, Go %d, reference %d", r, into[r], goInto[r], want)
			}
			if got := AndCountWords4(query, row); got != want {
				t.Fatalf("row %d: AndCountWords4 %d, reference %d", r, got, want)
			}
		}
		goGather, gather, flat := make([]int32, len(ids)), make([]int32, len(ids)), make([]int32, len(ids))
		andCountGatherPaged16(query, pages, sh, ids, goGather)
		AndCountGatherPaged(query, pages, sh, 16, ids, gather)
		AndCountGather(query, corpus, 16, ids, flat)
		for i, id := range ids {
			if gather[i] != into[id] || flat[i] != into[id] || goGather[i] != into[id] {
				t.Fatalf("id %d: paged %d, flat %d, Go %d, want %d", id, gather[i], flat[i], goGather[i], into[id])
			}
		}
	})
}
