package knn

import (
	"fmt"
	"math/rand"
	"testing"

	"goldfinger/internal/core"
	"goldfinger/internal/dataset"
)

// hideBatch wraps a provider so only the generic per-pair interface is
// visible, forcing BruteForce onto its fallback path.
type hideBatch struct{ inner Provider }

func (h hideBatch) NumUsers() int               { return h.inner.NumUsers() }
func (h hideBatch) Similarity(u, v int) float64 { return h.inner.Similarity(u, v) }

func graphsIdentical(t *testing.T, a, b *Graph, label string) {
	t.Helper()
	if len(a.Neighbors) != len(b.Neighbors) {
		t.Fatalf("%s: node counts differ (%d vs %d)", label, len(a.Neighbors), len(b.Neighbors))
	}
	for u := range a.Neighbors {
		if len(a.Neighbors[u]) != len(b.Neighbors[u]) {
			t.Fatalf("%s: user %d has %d vs %d neighbors", label, u, len(a.Neighbors[u]), len(b.Neighbors[u]))
		}
		for i := range a.Neighbors[u] {
			if a.Neighbors[u][i] != b.Neighbors[u][i] {
				t.Fatalf("%s: user %d rank %d: %+v vs %+v", label, u, i,
					a.Neighbors[u][i], b.Neighbors[u][i])
			}
		}
	}
}

// graphsEquivalentUpToTies asserts a and b select the same neighborhoods
// modulo legitimate tie ambiguity: per node, the sorted similarity
// sequences must be identical, and any edge present in one graph but not
// the other must sit exactly at that node's k-th-place (boundary)
// similarity — the only place where two correct top-k selections may
// differ.
func graphsEquivalentUpToTies(t *testing.T, a, b *Graph, label string) {
	t.Helper()
	if len(a.Neighbors) != len(b.Neighbors) {
		t.Fatalf("%s: node counts differ", label)
	}
	for u := range a.Neighbors {
		na, nb := a.Neighbors[u], b.Neighbors[u]
		if len(na) != len(nb) {
			t.Fatalf("%s: user %d has %d vs %d neighbors", label, u, len(na), len(nb))
		}
		if len(na) == 0 {
			continue
		}
		for i := range na {
			if na[i].Sim != nb[i].Sim {
				t.Fatalf("%s: user %d rank %d: sims %v vs %v", label, u, i, na[i].Sim, nb[i].Sim)
			}
		}
		boundary := na[len(na)-1].Sim
		inA := map[int32]bool{}
		for _, e := range na {
			inA[e.ID] = true
		}
		simA := map[int32]float64{}
		for _, e := range na {
			simA[e.ID] = e.Sim
		}
		for _, e := range nb {
			if inA[e.ID] {
				if simA[e.ID] != e.Sim {
					t.Fatalf("%s: user %d edge %d has sims %v vs %v", label, u, e.ID, simA[e.ID], e.Sim)
				}
				continue
			}
			if e.Sim != boundary {
				t.Fatalf("%s: user %d: edge %d (sim %v) differs away from the boundary %v",
					label, u, e.ID, e.Sim, boundary)
			}
		}
	}
}

// TestBruteForceBatchMatchesGenericByteForByte is the acceptance criterion:
// the BatchProvider path and the per-pair fallback must produce the same
// graph — same edges, same order after finalize — and the same
// Stats.Comparisons.
func TestBruteForceBatchMatchesGenericByteForByte(t *testing.T) {
	for _, seed := range []int64{17, 23, 51} {
		d := dataset.Generate(dataset.ML1M, 0.03, seed)
		shf := NewSHFProvider(core.MustScheme(1024, uint64(seed)), d.Profiles)
		for _, workers := range []int{1, 2, 7} {
			const k = 10
			gBatch, sBatch := BruteForce(shf, k, Options{Workers: workers})
			gGeneric, sGeneric := BruteForce(hideBatch{shf}, k, Options{Workers: workers})
			label := fmt.Sprintf("seed=%d workers=%d", seed, workers)
			graphsIdentical(t, gBatch, gGeneric, label)
			if sBatch.Comparisons != sGeneric.Comparisons {
				t.Fatalf("%s: comparisons %d vs %d", label, sBatch.Comparisons, sGeneric.Comparisons)
			}
		}
	}
}

// TestBruteForceDeterministicAcrossWorkerCounts: the tiled implementation's
// total-order selection makes the graph identical for every worker count,
// byte for byte — stronger than the sims-only guarantee of the seed.
func TestBruteForceDeterministicAcrossWorkerCounts(t *testing.T) {
	d := dataset.Generate(dataset.ML1M, 0.03, 5)
	shf := NewSHFProvider(core.MustScheme(1024, 5), d.Profiles)
	base, baseStats := BruteForce(shf, 7, Options{Workers: 1})
	for _, workers := range []int{2, 3, 8} {
		g, stats := BruteForce(shf, 7, Options{Workers: workers})
		graphsIdentical(t, base, g, fmt.Sprintf("workers=%d", workers))
		if stats.Comparisons != baseStats.Comparisons {
			t.Fatalf("workers=%d: comparisons %d vs %d", workers, stats.Comparisons, baseStats.Comparisons)
		}
	}
}

// TestBruteForceMatchesLegacy runs the tiled implementation against the
// retained seed implementation (LegacyBruteForce) across several dataset
// seeds and worker counts. Run under -race via `make check`, this is also
// the concurrency regression test for the per-worker-local design.
func TestBruteForceMatchesLegacy(t *testing.T) {
	for _, seed := range []int64{3, 29, 71} {
		d := dataset.Generate(dataset.ML1M, 0.03, seed)
		exact := NewExplicitProvider(d.Profiles)
		shf := NewSHFProvider(core.MustScheme(1024, uint64(seed)), d.Profiles)
		for _, p := range []struct {
			name string
			prov Provider
		}{{"explicit", exact}, {"shf", shf}} {
			for _, workers := range []int{1, 4} {
				const k = 6
				g, stats := BruteForce(p.prov, k, Options{Workers: workers})
				lg, lstats := LegacyBruteForce(p.prov, k, Options{Workers: workers})
				label := fmt.Sprintf("seed=%d %s workers=%d", seed, p.name, workers)
				graphsEquivalentUpToTies(t, g, lg, label)
				if stats.Comparisons != lstats.Comparisons {
					t.Fatalf("%s: comparisons %d vs legacy %d", label, stats.Comparisons, lstats.Comparisons)
				}
				if stats.Updates == 0 || lstats.Updates == 0 {
					t.Fatalf("%s: zero updates recorded (%d / %d)", label, stats.Updates, lstats.Updates)
				}
			}
		}
	}
}

// TestBruteForcePackedProviderMatchesFingerprintProvider: a provider built
// straight from a packed corpus (the service's build path) must produce the
// identical graph to one built from the fingerprint slice.
func TestBruteForcePackedProviderMatchesFingerprintProvider(t *testing.T) {
	d := dataset.Generate(dataset.ML1M, 0.03, 13)
	scheme := core.MustScheme(1024, 13)
	fromFps := NewSHFProvider(scheme, d.Profiles)
	corpus := scheme.PackProfiles(d.Profiles, 0)
	fromCorpus := NewPackedSHFProvider(corpus)
	if fromFps.NumUsers() != fromCorpus.NumUsers() {
		t.Fatalf("user counts differ: %d vs %d", fromFps.NumUsers(), fromCorpus.NumUsers())
	}
	g1, s1 := BruteForce(fromFps, 9, Options{})
	g2, s2 := BruteForce(fromCorpus, 9, Options{})
	graphsIdentical(t, g1, g2, "fps-vs-corpus")
	if s1.Comparisons != s2.Comparisons {
		t.Fatalf("comparisons %d vs %d", s1.Comparisons, s2.Comparisons)
	}
}

// TestSHFProviderBatchAgreesWithPerPair: SimilarityRange must be bitwise
// identical to per-pair Similarity for both SHF providers, including ranges
// that straddle kernel tile boundaries.
func TestSHFProviderBatchAgreesWithPerPair(t *testing.T) {
	d := dataset.Generate(dataset.ML1M, 0.04, 37) // > 256 users spans tiles
	scheme := core.MustScheme(1000, 37)           // non-multiple-of-64 length
	rng := rand.New(rand.NewSource(37))
	for _, bp := range []BatchProvider{
		NewSHFProvider(scheme, d.Profiles),
		NewSHFCosineProvider(scheme, d.Profiles),
	} {
		n := bp.NumUsers()
		out := make([]float64, n)
		for trial := 0; trial < 5; trial++ {
			u := rng.Intn(n)
			lo := rng.Intn(n)
			hi := lo + rng.Intn(n-lo)
			bp.SimilarityRange(u, lo, hi, out[:hi-lo])
			for v := lo; v < hi; v++ {
				if want := bp.Similarity(u, v); out[v-lo] != want {
					t.Fatalf("%T u=%d v=%d: batch %v, per-pair %v", bp, u, v, out[v-lo], want)
				}
			}
		}
	}
}
