package knn

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"goldfinger/internal/core"
	"goldfinger/internal/dataset"
	"goldfinger/internal/profile"
)

// clusterDataset is a corpus large enough that the default clustering
// produces many clusters per view (unlike the harness corpus, which
// collapses into one), so these tests exercise the real multi-cluster
// scan/merge/refine machinery.
func clusterDataset(t testing.TB, users int) *dataset.Dataset {
	t.Helper()
	return dataset.Generate(dataset.ML10M, float64(users)/float64(dataset.ML10M.Users), 7)
}

// TestClusterConquerDeterministic: a fixed (provider, k, seed, config)
// must produce the identical graph regardless of worker count — the
// property that makes the builder safe to run under -shuffle=on and to
// compare across machines.
func TestClusterConquerDeterministic(t *testing.T) {
	d := clusterDataset(t, 2000)
	scheme := core.MustScheme(1024, 99)
	p := NewSHFProvider(scheme, d.Profiles)
	cfg := ClusterConfig{Views: 3, MaxClusterSize: 64}
	var ref *Graph
	for _, workers := range []int{1, 3, 8} {
		g, _, _ := ClusterConquerWith(p, 10, Options{Seed: 5, Workers: workers}, cfg)
		if err := g.Validate(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = g
			continue
		}
		if !reflect.DeepEqual(g.Neighbors, ref.Neighbors) {
			t.Fatalf("workers=%d produced a different graph", workers)
		}
	}
	// And a different seed must actually change something: the clustering
	// is seed-derived, so identical output would mean the seed is ignored.
	g2, _, _ := ClusterConquerWith(p, 10, Options{Seed: 6}, cfg)
	if reflect.DeepEqual(g2.Neighbors, ref.Neighbors) {
		t.Error("seed change did not affect the graph")
	}
}

// TestClusterBruteParity holds ClusterConquer to a quality floor against
// the exact BruteForce graph on a multi-cluster corpus: small enough to
// run in seconds on every `make check`, real enough to catch a broken
// scan, merge, or refine.
func TestClusterBruteParity(t *testing.T) {
	d := clusterDataset(t, 2000)
	scheme := core.MustScheme(1024, 99)
	p := NewSHFProvider(scheme, d.Profiles)
	const k = 10
	exact, _ := BruteForce(p, k, Options{})
	g, asn, stats := ClusterConquerWith(p, k, Options{Seed: 1}, ClusterConfig{})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(asn.Views) == 0 {
		t.Fatal("no cluster views returned")
	}
	n := int64(p.NumUsers())
	if full := n * (n - 1) / 2; stats.Comparisons >= full {
		t.Errorf("cluster build did %d comparisons, not sub-quadratic (full scan = %d)", stats.Comparisons, full)
	}
	if q := Quality(g, exact, p); q < 0.90 {
		t.Errorf("quality vs exact = %.3f, floor 0.90", q)
	}
	if r := Recall(g, exact); r < 0.60 {
		t.Errorf("recall vs exact = %.3f, floor 0.60", r)
	}
}

// TestClusterConquerQualityFloor10k is the n=10k cross-check against
// BruteForce. Skipped under -race: the scan kernels dominate and run far
// too slowly there to add signal.
func TestClusterConquerQualityFloor10k(t *testing.T) {
	if raceEnabled {
		t.Skip("heavy kernel test adds no signal under -race")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	d := clusterDataset(t, 10000)
	p := NewSHFProvider(core.MustScheme(1024, 99), d.Profiles)
	const k = 10
	exact, _ := BruteForce(p, k, Options{})
	g, _ := ClusterConquer(p, k, Options{Seed: 1})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if q := Quality(g, exact, p); q < 0.90 {
		t.Errorf("n=10k quality vs exact = %.3f, floor 0.90", q)
	}
	if r := Recall(g, exact); r < 0.60 {
		t.Errorf("n=10k recall vs exact = %.3f, floor 0.60", r)
	}
}

// TestClusterConquerMidBuildCancellation: canceling while the per-cluster
// scan is in flight must stop promptly and still return a structurally
// valid graph covering every user.
func TestClusterConquerMidBuildCancellation(t *testing.T) {
	d := clusterDataset(t, 1500)
	p := NewExplicitProvider(d.Profiles)
	n := p.NumUsers()
	ctx, cancel := context.WithCancel(context.Background())
	counted := &cancelAfterProvider{Provider: p, cancel: cancel, after: 3000}
	g, stats := ClusterConquer(counted, 10, Options{Seed: 1, Ctx: ctx})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumUsers() != n {
		t.Errorf("canceled build returned %d users, want %d", g.NumUsers(), n)
	}
	full := int64(n) * int64(n-1) / 2
	if stats.Comparisons >= full/4 {
		t.Errorf("canceled build still did %d of %d comparisons", stats.Comparisons, full)
	}
}

// TestClusterConquerEdgeCases: the degenerate corpus shapes every builder
// must survive.
func TestClusterConquerEdgeCases(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		g, _ := ClusterConquer(NewExplicitProvider(nil), 5, Options{})
		if g.NumUsers() != 0 {
			t.Fatalf("got %d users", g.NumUsers())
		}
	})
	t.Run("single-user", func(t *testing.T) {
		d := dataset.Generate(dataset.ML1M, 0.002, 3)
		p := NewExplicitProvider(d.Profiles[:1])
		g, _ := ClusterConquer(p, 5, Options{})
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if len(g.Neighbors[0]) != 0 {
			t.Fatalf("single user has %d neighbors", len(g.Neighbors[0]))
		}
	})
	t.Run("k-larger-than-n", func(t *testing.T) {
		d := dataset.Generate(dataset.ML1M, 0.01, 3) // a few dozen users
		p := NewExplicitProvider(d.Profiles)
		g, _ := ClusterConquer(p, 500, Options{Seed: 1})
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		for u, nbrs := range g.Neighbors {
			if len(nbrs) > p.NumUsers()-1 {
				t.Fatalf("user %d has %d neighbors of %d users", u, len(nbrs), p.NumUsers())
			}
		}
	})
	t.Run("opaque-provider-fallback", func(t *testing.T) {
		// A provider exposing neither fingerprints nor profiles must
		// still build a valid graph via the index-source fallback.
		d := dataset.Generate(dataset.ML1M, 0.02, 4)
		ep := NewExplicitProvider(d.Profiles)
		opaque := opaqueProvider{ep}
		g, stats := ClusterConquer(opaque, 5, Options{Seed: 1})
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if stats.Comparisons == 0 {
			t.Fatal("no comparisons")
		}
	})
}

// opaqueProvider hides the concrete provider type so clusterSource takes
// its fallback path.
type opaqueProvider struct{ p Provider }

func (o opaqueProvider) NumUsers() int               { return o.p.NumUsers() }
func (o opaqueProvider) Similarity(u, v int) float64 { return o.p.Similarity(u, v) }

// TestSubsetProvidersMatchParent: every SubsetProvider implementation
// must reproduce the parent's similarities bit-for-bit under the dense
// reindexing, on both the per-pair and the batched path.
func TestSubsetProvidersMatchParent(t *testing.T) {
	d := clusterDataset(t, 300)
	scheme := core.MustScheme(512, 42)
	providers := map[string]Provider{
		"explicit":   NewExplicitProvider(d.Profiles),
		"shf":        NewSHFProvider(scheme, d.Profiles),
		"shf-cosine": NewSHFCosineProvider(scheme, d.Profiles),
		"func":       NewCosineProvider(d.Profiles),
		"counting":   NewCountingProvider(NewSHFProvider(scheme, d.Profiles)),
	}
	rng := rand.New(rand.NewSource(9))
	n := len(d.Profiles)
	ids := make([]int32, 0, 40)
	seen := map[int32]bool{}
	for len(ids) < 40 {
		id := int32(rng.Intn(n))
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	for name, p := range providers {
		t.Run(name, func(t *testing.T) {
			sp, ok := p.(SubsetProvider)
			if !ok {
				t.Fatalf("%T does not implement SubsetProvider", p)
			}
			sub := sp.Subset(ids)
			if sub.NumUsers() != len(ids) {
				t.Fatalf("subset has %d users, want %d", sub.NumUsers(), len(ids))
			}
			for i := range ids {
				for j := range ids {
					want := p.Similarity(int(ids[i]), int(ids[j]))
					if got := sub.Similarity(i, j); got != want {
						t.Fatalf("sub.Similarity(%d,%d) = %g, parent = %g", i, j, got, want)
					}
				}
			}
			if batch, ok := sub.(BatchProvider); ok {
				out := make([]float64, len(ids))
				batch.SimilarityRange(3, 0, len(ids), out)
				for j := range ids {
					if want := p.Similarity(int(ids[3]), int(ids[j])); out[j] != want {
						t.Fatalf("batched subset sim (3,%d) = %g, parent = %g", j, out[j], want)
					}
				}
			}
		})
	}
	// The counting wrapper must see the subset's comparisons.
	cp := providers["counting"].(*CountingProvider)
	before := cp.Comparisons()
	sub := cp.Subset(ids)
	sub.Similarity(0, 1)
	sub.(BatchProvider).SimilarityRange(0, 0, len(ids), make([]float64, len(ids)))
	if got := cp.Comparisons() - before; got != 1+int64(len(ids)) {
		t.Errorf("counting subset folded %d comparisons, want %d", got, 1+len(ids))
	}
}

// TestClusterConquerReturnsAssignment: the assignment handed back by
// ClusterConquerWith must describe the same corpus (usable for query
// seeding) and agree with a directly computed one.
func TestClusterConquerReturnsAssignment(t *testing.T) {
	d := clusterDataset(t, 800)
	p := NewSHFProvider(core.MustScheme(1024, 99), d.Profiles)
	g, asn, _ := ClusterConquerWith(p, 10, Options{Seed: 3}, ClusterConfig{Views: 2})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(asn.Views) != 2 {
		t.Fatalf("got %d views, want 2", len(asn.Views))
	}
	seeds := asn.Seeds(p.corpus().Row(17), 8)
	if len(seeds) == 0 {
		t.Fatal("assignment produced no seeds for a corpus row")
	}
	for _, s := range seeds {
		if s < 0 || int(s) >= p.NumUsers() {
			t.Fatalf("seed %d out of range", s)
		}
	}
}

// TestClusterConquerNoRefine: disabling the refinement sweep must still
// produce a valid graph, and the refined build must never be worse.
func TestClusterConquerNoRefine(t *testing.T) {
	d := clusterDataset(t, 2000)
	p := NewSHFProvider(core.MustScheme(1024, 99), d.Profiles)
	const k = 10
	exact, _ := BruteForce(p, k, Options{})
	raw, _, rawStats := ClusterConquerWith(p, k, Options{Seed: 1}, ClusterConfig{NoRefine: true})
	refined, _, refStats := ClusterConquerWith(p, k, Options{Seed: 1}, ClusterConfig{})
	if err := raw.Validate(); err != nil {
		t.Fatal(err)
	}
	if rawStats.Iterations != 0 {
		t.Errorf("NoRefine ran %d refinement sweeps, want 0", rawStats.Iterations)
	}
	if refStats.Iterations < 1 || refStats.Iterations > defaultRefineSweeps {
		t.Errorf("refined build ran %d sweeps, want 1..%d", refStats.Iterations, defaultRefineSweeps)
	}
	qRaw, qRef := Quality(raw, exact, p), Quality(refined, exact, p)
	if qRef+1e-9 < qRaw {
		t.Errorf("refine reduced quality: %.4f -> %.4f", qRaw, qRef)
	}
}

// TestClusterConquerDefaultsEqualBruteForceBelow256 pins what the service
// relies on when it builds every graph with ClusterConquerWith at its
// defaults: below 256 users the default clustering puts every view into one
// top-level bucket, so the build is an exact scan and returns BruteForce's
// graph entry for entry, tie order included. Tie-heavy corpora (a handful
// of items fingerprinted into 64 bits) make that tie order matter; the
// ML1M-shaped corpora cover the service's own 1024-bit fingerprints.
func TestClusterConquerDefaultsEqualBruteForceBelow256(t *testing.T) {
	check := func(t *testing.T, p Provider, n int) {
		t.Helper()
		for _, k := range []int{1, 3, 10, n - 1} {
			if k < 1 || k > n-1 {
				continue
			}
			want, _ := BruteForce(p, k, Options{})
			got, _, _ := ClusterConquerWith(p, k, Options{}, ClusterConfig{})
			if !reflect.DeepEqual(got.Neighbors, want.Neighbors) {
				for u := range want.Neighbors {
					if !reflect.DeepEqual(got.Neighbors[u], want.Neighbors[u]) {
						t.Fatalf("n=%d k=%d: user %d has %v, BruteForce %v", n, k, u, got.Neighbors[u], want.Neighbors[u])
					}
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(36))
	for _, n := range []int{2, 3, 5, 17, 60, 128, 200, 255} {
		for trial := 0; trial < 3; trial++ {
			profiles := make([]profile.Profile, n)
			for i := range profiles {
				items := make([]profile.ItemID, 1+rng.Intn(4))
				for j := range items {
					items[j] = profile.ItemID(rng.Intn(12))
				}
				profiles[i] = profile.New(items...)
			}
			corpus := core.MustScheme(64, uint64(trial)).PackProfiles(profiles, 0)
			check(t, NewPackedSHFProvider(corpus), n)
		}
	}
	for _, users := range []int{40, 120, 181} {
		d := dataset.Generate(dataset.ML1M, float64(users)/float64(dataset.ML1M.Users), int64(users))
		corpus := core.MustScheme(1024, 7).PackProfiles(d.Profiles, 0)
		check(t, NewPackedSHFProvider(corpus), len(d.Profiles))
	}
}
