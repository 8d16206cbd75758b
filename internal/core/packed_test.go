package core

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"goldfinger/internal/profile"
)

// packedFixture builds a corpus three ways — explicit fingerprints, a pack
// of those fingerprints, and a direct parallel pack from the profiles — so
// the tests can assert all three agree.
func packedFixture(t *testing.T, bits int, seed int64, n int) ([]profile.Profile, []Fingerprint, *PackedCorpus, *PackedCorpus) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := MustScheme(bits, uint64(seed))
	profiles := make([]profile.Profile, n)
	for i := range profiles {
		switch rng.Intn(5) {
		case 0: // empty profile → empty fingerprint
			profiles[i] = profile.New()
		case 1: // singleton
			profiles[i] = profile.New(profile.ItemID(rng.Intn(1000)))
		default:
			profiles[i] = randomProfile(rng, 1+rng.Intn(120), 2000)
		}
	}
	fps := s.FingerprintAll(profiles)
	packed, err := NewPackedCorpus(bits, fps)
	if err != nil {
		t.Fatal(err)
	}
	direct := s.PackProfiles(profiles, 4)
	return profiles, fps, packed, direct
}

// TestPackedJaccardEquivalence is the core correctness property of the
// packed layout: every similarity computed through the packed kernels is
// bit-for-bit identical to core.Jaccard / core.Cosine on the unpacked
// fingerprints, for lengths that are and are not multiples of 64 and for
// corpora containing empty fingerprints.
func TestPackedJaccardEquivalence(t *testing.T) {
	for _, bits := range []int{64, 100, 1000, 1024} {
		_, fps, packed, direct := packedFixture(t, bits, int64(bits), 47)
		n := packed.NumUsers()
		out := make([]float64, n)
		for u := 0; u < n; u++ {
			packed.JaccardRangeInto(u, 0, n, out)
			for v := 0; v < n; v++ {
				want := Jaccard(fps[u], fps[v])
				if got := packed.Jaccard(u, v); got != want {
					t.Fatalf("bits=%d (%d,%d): packed %v, core %v", bits, u, v, got, want)
				}
				if got := direct.Jaccard(u, v); got != want {
					t.Fatalf("bits=%d (%d,%d): direct-pack %v, core %v", bits, u, v, got, want)
				}
				if out[v] != want {
					t.Fatalf("bits=%d (%d,%d): JaccardRangeInto %v, core %v", bits, u, v, out[v], want)
				}
				if got, want := packed.Cosine(u, v), Cosine(fps[u], fps[v]); got != want {
					t.Fatalf("bits=%d (%d,%d): packed cosine %v, core %v", bits, u, v, got, want)
				}
			}
			packed.CosineRangeInto(u, 0, n, out)
			for v := 0; v < n; v++ {
				if want := Cosine(fps[u], fps[v]); out[v] != want {
					t.Fatalf("bits=%d (%d,%d): CosineRangeInto %v, core %v", bits, u, v, out[v], want)
				}
			}
		}
	}
}

// TestPackedMatchesEstimatorSemantics pins the estimator conventions: two
// empty fingerprints estimate 0 through every path, exactly like
// profile.Jaccard on two empty profiles.
func TestPackedMatchesEstimatorSemantics(t *testing.T) {
	s := MustScheme(100, 9)
	empty, other := profile.New(), profile.New(1, 2, 3)
	if got := profile.Jaccard(empty, empty); got != 0 {
		t.Fatalf("profile.Jaccard(∅,∅) = %v", got)
	}
	c := s.PackProfiles([]profile.Profile{empty, empty, other}, 0)
	if got := c.Jaccard(0, 1); got != 0 {
		t.Fatalf("packed Jaccard(∅,∅) = %v, want 0", got)
	}
	if got := c.Cosine(0, 2); got != 0 {
		t.Fatalf("packed Cosine(∅,P) = %v, want 0", got)
	}
	out := make([]float64, 3)
	c.JaccardQueryInto(s.Fingerprint(empty), 0, 3, out)
	for i, v := range out {
		if v != 0 {
			t.Fatalf("empty query sim[%d] = %v, want 0", i, v)
		}
	}
}

func TestPackedQueryIntoMatchesPerPair(t *testing.T) {
	for _, bits := range []int{100, 1024} {
		rng := rand.New(rand.NewSource(int64(bits) + 1))
		s := MustScheme(bits, 11)
		_, fps, packed, _ := packedFixture(t, bits, 3, 33)
		for trial := 0; trial < 10; trial++ {
			q := s.Fingerprint(randomProfile(rng, 1+rng.Intn(80), 2000))
			// Sub-ranges exercise the tile boundaries of the blocked kernel.
			lo := rng.Intn(packed.NumUsers())
			hi := lo + rng.Intn(packed.NumUsers()-lo)
			out := make([]float64, hi-lo)
			packed.JaccardQueryInto(q, lo, hi, out)
			for v := lo; v < hi; v++ {
				if want := Jaccard(q, fps[v]); out[v-lo] != want {
					t.Fatalf("bits=%d v=%d: query-into %v, core %v", bits, v, out[v-lo], want)
				}
			}
		}
	}
}

func TestPackedGatherIntoMatchesPerPair(t *testing.T) {
	for _, bits := range []int{100, 1024} {
		rng := rand.New(rand.NewSource(int64(bits) + 7))
		_, _, packed, _ := packedFixture(t, bits, 3, 400)
		n := packed.NumUsers()
		for trial := 0; trial < 10; trial++ {
			u := rng.Intn(n)
			// Scattered, unordered, with repeats; lengths cross the tile
			// boundary of the chunked kernel.
			ids := make([]int32, 1+rng.Intn(300))
			for i := range ids {
				ids[i] = int32(rng.Intn(n))
			}
			out := make([]float64, len(ids))
			packed.JaccardGatherInto(u, ids, out)
			for i, id := range ids {
				if want := packed.Jaccard(u, int(id)); out[i] != want {
					t.Fatalf("bits=%d u=%d id=%d: gather %v, per-pair %v", bits, u, id, out[i], want)
				}
			}
		}
	}
}

// TestPackedFingerprintViews checks the zero-copy views: they compare,
// serialize, and measure exactly like the fingerprints they were packed
// from.
func TestPackedFingerprintViews(t *testing.T) {
	_, fps, packed, _ := packedFixture(t, 1000, 5, 20)
	for i, orig := range fps {
		view := packed.Fingerprint(i)
		if view.Cardinality() != orig.Cardinality() || view.NumBits() != orig.NumBits() {
			t.Fatalf("view %d metadata mismatch", i)
		}
		if !view.Bits().Equal(orig.Bits()) {
			t.Fatalf("view %d bits differ from original", i)
		}
		var a, b bytes.Buffer
		if err := WriteFingerprint(&a, view); err != nil {
			t.Fatal(err)
		}
		if err := WriteFingerprint(&b, orig); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("view %d serializes differently from original", i)
		}
		if got := Jaccard(view, orig); got != 1 && orig.Cardinality() > 0 {
			t.Fatalf("view %d vs original Jaccard = %v", i, got)
		}
	}
}

func TestPackedCorpusValidation(t *testing.T) {
	s := MustScheme(128, 1)
	f := s.Fingerprint(profile.New(1, 2, 3))
	if _, err := NewPackedCorpus(0, nil); err == nil {
		t.Error("bits=0 accepted")
	}
	if _, err := NewPackedCorpus(64, []Fingerprint{f}); err == nil {
		t.Error("mixed lengths accepted")
	}
	if _, err := NewPackedCorpus(128, []Fingerprint{{}}); err == nil {
		t.Error("zero-value fingerprint accepted")
	}
	c, err := NewPackedCorpus(128, nil)
	if err != nil || c.NumUsers() != 0 {
		t.Fatalf("empty corpus: %v, n=%d", err, c.NumUsers())
	}
}

func TestPackedQueryLengthMismatchPanics(t *testing.T) {
	_, _, packed, _ := packedFixture(t, 1024, 7, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("mixed-scheme query accepted")
		}
	}()
	q := MustScheme(512, 7).Fingerprint(profile.New(1))
	packed.JaccardQueryInto(q, 0, 4, make([]float64, 4))
}

func TestPackProfilesParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := MustScheme(1024, 8)
	profiles := make([]profile.Profile, 201)
	for i := range profiles {
		profiles[i] = randomProfile(rng, 1+rng.Intn(60), 3000)
	}
	serial := s.PackProfiles(profiles, 1)
	parallel := s.PackProfiles(profiles, 7)
	for i := range profiles {
		if serial.Cardinality(i) != parallel.Cardinality(i) {
			t.Fatalf("row %d cardinality differs", i)
		}
		if !serial.Fingerprint(i).Bits().Equal(parallel.Fingerprint(i).Bits()) {
			t.Fatalf("row %d bits differ between worker counts", i)
		}
	}
}

// FuzzPackedJaccard feeds arbitrary item bytes through both the packed and
// the per-pair estimator and requires bitwise agreement, at a length that
// is not a multiple of 64.
func FuzzPackedJaccard(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{3, 4})
	f.Add([]byte{}, []byte{0})
	f.Add([]byte{255, 254, 253, 1, 1, 1}, []byte{})
	f.Fuzz(func(t *testing.T, raw1, raw2 []byte) {
		toProfile := func(raw []byte) profile.Profile {
			items := make([]profile.ItemID, len(raw))
			for i, b := range raw {
				items[i] = profile.ItemID(b)
			}
			return profile.New(items...)
		}
		s := MustScheme(100, 99)
		p1, p2 := toProfile(raw1), toProfile(raw2)
		f1, f2 := s.Fingerprint(p1), s.Fingerprint(p2)
		c, err := NewPackedCorpus(100, []Fingerprint{f1, f2})
		if err != nil {
			t.Fatal(err)
		}
		direct := s.PackProfiles([]profile.Profile{p1, p2}, 2)
		want := Jaccard(f1, f2)
		if got := c.Jaccard(0, 1); got != want {
			t.Fatalf("packed %v, core %v", got, want)
		}
		if got := direct.Jaccard(0, 1); got != want {
			t.Fatalf("direct %v, core %v", got, want)
		}
		var out [2]float64
		c.JaccardQueryInto(f1, 0, 2, out[:])
		if out[1] != want {
			t.Fatalf("query-into %v, core %v", out[1], want)
		}
	})
}

// TestPackedHistoryMatchesRepack is the differential property of the
// persistent corpus: after a seeded random history of Append and WithRow —
// long enough to cross page boundaries and to rewrite rows of full, partial
// and freshly appended pages — the corpus equals NewPackedCorpus of the
// current fingerprints row for row, its range, gather, batch and
// early-abandon kernels are bit-identical to per-pair core.Jaccard on the
// unpacked fingerprints, every corpus kept along the way still holds the
// rows it was published with, and ChangedRows names exactly the rows that
// differ.
func TestPackedHistoryMatchesRepack(t *testing.T) {
	for _, bits := range []int{100, 1024} {
		rng := rand.New(rand.NewSource(int64(bits) + 13))
		s := MustScheme(bits, 17)
		next := func() Fingerprint { return s.Fingerprint(randomProfile(rng, rng.Intn(90), 2000)) }

		var fps []Fingerprint
		for i := 0; i < 3*pageRows-5; i++ { // the history starts five rows short of a page boundary
			fps = append(fps, next())
		}
		c, err := NewPackedCorpus(bits, fps)
		if err != nil {
			t.Fatal(err)
		}
		type kept struct {
			c   *PackedCorpus
			fps []Fingerprint
		}
		history := []kept{{c, append([]Fingerprint(nil), fps...)}}
		for step := 0; step < 600; step++ {
			fp := next()
			if rng.Intn(3) == 0 {
				fps = append(fps, fp)
				c, err = c.Append(fp)
			} else {
				i := rng.Intn(len(fps))
				fps[i] = fp
				c, err = c.WithRow(i, fp)
			}
			if err != nil {
				t.Fatal(err)
			}
			if step%40 == 0 {
				history = append(history, kept{c, append([]Fingerprint(nil), fps...)})
			}
		}
		history = append(history, kept{c, fps})

		for h, k := range history {
			fresh, err := NewPackedCorpus(bits, k.fps)
			if err != nil {
				t.Fatal(err)
			}
			n := k.c.NumUsers()
			if n != len(k.fps) || n != fresh.NumUsers() {
				t.Fatalf("bits=%d corpus %d: %d rows, want %d", bits, h, n, len(k.fps))
			}
			for i := 0; i < n; i++ {
				if !slices.Equal(k.c.Row(i), fresh.Row(i)) || k.c.Cardinality(i) != fresh.Cardinality(i) {
					t.Fatalf("bits=%d corpus %d: row %d differs from a fresh pack", bits, h, i)
				}
			}
			if h > 0 {
				prev := history[h-1]
				var want []int32
				for i := range prev.fps {
					if !prev.fps[i].Bits().Equal(k.fps[i].Bits()) {
						want = append(want, int32(i))
					}
				}
				if got := k.c.ChangedRows(prev.c); !slices.Equal(got, want) {
					t.Fatalf("bits=%d corpus %d: ChangedRows %v, want %v", bits, h, got, want)
				}
			}
		}

		n := c.NumUsers()
		out := make([]float64, n)
		ids := make([]int32, 2*packTile+9)
		for trial := 0; trial < 8; trial++ {
			q := next()
			lo := rng.Intn(n)
			hi := lo + rng.Intn(n-lo)
			c.JaccardQueryInto(q, lo, hi, out)
			for v := lo; v < hi; v++ {
				if want := Jaccard(q, fps[v]); out[v-lo] != want {
					t.Fatalf("bits=%d v=%d: query-into %v, core %v", bits, v, out[v-lo], want)
				}
			}
			scorer := c.NewQueryScorer(q)
			for v := 0; v < n; v++ {
				want := Jaccard(q, fps[v])
				floor := rng.Float64() * 0.2
				if got, ok := scorer.ScoreAbove(int32(v), floor); ok && got != want {
					t.Fatalf("bits=%d v=%d: ScoreAbove %v, core %v", bits, v, got, want)
				} else if !ok && want >= floor {
					t.Fatalf("bits=%d v=%d: ScoreAbove abandoned a row at %v ≥ floor %v", bits, v, want, floor)
				}
			}
			u := rng.Intn(n)
			for i := range ids {
				ids[i] = int32(rng.Intn(n))
			}
			c.JaccardGatherInto(u, ids, out[:len(ids)])
			for i, id := range ids {
				if want := Jaccard(fps[u], fps[id]); out[i] != want {
					t.Fatalf("bits=%d u=%d id=%d: gather %v, core %v", bits, u, id, out[i], want)
				}
			}
			// The batch method of the search oracle is Score, bit for bit,
			// over an id list longer than one tile (and over none).
			scorer.ScoreBatch(ids, out[:len(ids)])
			for i, id := range ids {
				if want := scorer.Score(id); out[i] != want || want != Jaccard(q, fps[id]) {
					t.Fatalf("bits=%d id=%d: ScoreBatch %v, Score %v", bits, id, out[i], want)
				}
			}
			scorer.ScoreBatch(nil, nil)
		}
	}
}
