package knn

import (
	"math/rand"
	"testing"

	"goldfinger/internal/core"
	"goldfinger/internal/profile"
)

// Synthetic bench corpus: fingerprint-shaped profiles at the paper's
// defaults (b = 1024). n is kept moderate so `make test`
// (-benchtime=1x) stays fast; the benchmark's knn.brute_s is the
// acceptance-scale n = 10k measurement.
func benchCorpus(n int) ([]profile.Profile, *core.Scheme) {
	rng := rand.New(rand.NewSource(97))
	profiles := make([]profile.Profile, n)
	for i := range profiles {
		items := make([]profile.ItemID, 0, 60)
		for j := 0; j < 60; j++ {
			items = append(items, profile.ItemID(rng.Intn(5000)))
		}
		profiles[i] = profile.New(items...)
	}
	return profiles, core.MustScheme(1024, 97)
}

// BenchmarkBruteForceSHF compares the three brute-force paths on the same
// SHF corpus: the packed BatchProvider kernel, the tiled per-pair fallback,
// and the retained legacy (channel + atomics + mutex) implementation.
func BenchmarkBruteForceSHF(b *testing.B) {
	profiles, scheme := benchCorpus(2000)
	shf := NewSHFProvider(scheme, profiles)
	const k = 10
	b.Run("packed-batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			BruteForce(shf, k, Options{})
		}
	})
	b.Run("tiled-generic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			BruteForce(hideBatchBench{shf}, k, Options{})
		}
	})
	b.Run("legacy-provider", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			LegacyBruteForce(shf, k, Options{})
		}
	})
}

type hideBatchBench struct{ inner Provider }

func (h hideBatchBench) NumUsers() int               { return h.inner.NumUsers() }
func (h hideBatchBench) Similarity(u, v int) float64 { return h.inner.Similarity(u, v) }

// BenchmarkTopKQuerySHF measures one /query-shaped top-k scan: a fresh
// fingerprint against the packed corpus, batched kernel vs per-pair
// closure.
func BenchmarkTopKQuerySHF(b *testing.B) {
	profiles, scheme := benchCorpus(20000)
	corpus := scheme.PackProfiles(profiles, 0)
	q := scheme.Fingerprint(profiles[0])
	n := corpus.NumUsers()
	const k = 10
	b.Run("packed-range", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			TopKRange(n, k, 0, func(lo, hi int, out []float64) {
				corpus.JaccardQueryInto(q, lo, hi, out)
			})
		}
	})
	fps := make([]core.Fingerprint, n)
	for i := range fps {
		fps[i] = corpus.Fingerprint(i)
	}
	b.Run("per-pair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			TopK(n, k, 0, func(i int) float64 { return core.Jaccard(q, fps[i]) })
		}
	})
}

// BenchmarkPackCorpus measures corpus construction: packing an existing
// fingerprint slice vs fingerprinting profiles straight into packed rows.
func BenchmarkPackCorpus(b *testing.B) {
	profiles, scheme := benchCorpus(5000)
	fps := scheme.FingerprintAll(profiles)
	b.Run("from-fingerprints", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.NewPackedCorpus(1024, fps); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("from-profiles", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scheme.PackProfiles(profiles, 0)
		}
	})
}
