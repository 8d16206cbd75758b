package goldfinger

// End-to-end integration tests spanning every module: the full GoldFinger
// deployment story from raw ratings to recommendations, across process
// boundaries (serialized fingerprints) and against the exact pipeline.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"goldfinger/internal/core"
	"goldfinger/internal/dataset"
	"goldfinger/internal/knn"
	"goldfinger/internal/privacy"
	"goldfinger/internal/profile"
	"goldfinger/internal/recommend"
	"goldfinger/internal/service"
)

// TestFullPipelineNativeVsGoldFinger drives the complete system: generate
// ratings → prepare (filter + binarize) → split 5-fold → build graphs in
// both modes with every algorithm → recommend → compare recall and quality.
func TestFullPipelineNativeVsGoldFinger(t *testing.T) {
	ratings := dataset.GenerateRatings(dataset.ML1M, 0.03, 99)
	d := dataset.FromRatings("ml1M", ratings, dataset.Options{})
	if d.NumUsers() < 50 {
		t.Fatalf("preparation left only %d users", d.NumUsers())
	}

	const k = 10
	exactP := knn.NewExplicitProvider(d.Profiles)
	exact, _ := knn.BruteForce(exactP, k, knn.Options{})
	scheme := core.MustScheme(1024, 99)
	shfP := knn.NewSHFProvider(scheme, d.Profiles)

	builders := map[string]func(p knn.Provider) *knn.Graph{
		"bruteforce": func(p knn.Provider) *knn.Graph { g, _ := knn.BruteForce(p, k, knn.Options{Seed: 99}); return g },
		"hyrec":      func(p knn.Provider) *knn.Graph { g, _ := knn.Hyrec(p, k, knn.Options{Seed: 99}); return g },
		"nndescent":  func(p knn.Provider) *knn.Graph { g, _ := knn.NNDescent(p, k, knn.Options{Seed: 99}); return g },
		"lsh": func(p knn.Provider) *knn.Graph {
			g, _ := knn.LSH(d.Profiles, p, k, knn.LSHOptions{Seed: 99})
			return g
		},
		"kiff": func(p knn.Provider) *knn.Graph {
			g, _ := knn.KIFF(d.Profiles, p, k, knn.KIFFOptions{})
			return g
		},
	}
	for name, build := range builders {
		gNat := build(exactP)
		gGF := build(shfP)
		if err := gNat.Validate(); err != nil {
			t.Errorf("%s native: %v", name, err)
		}
		if err := gGF.Validate(); err != nil {
			t.Errorf("%s goldfinger: %v", name, err)
		}
		qNat := knn.Quality(gNat, exact, exactP)
		qGF := knn.Quality(gGF, exact, exactP)
		if qGF < qNat-0.25 {
			t.Errorf("%s: GoldFinger quality %.3f fell more than 0.25 below native %.3f", name, qGF, qNat)
		}
	}
}

// TestClientServerDeployment exercises §2.5's deployment: clients
// fingerprint locally and upload serialized SHFs; the untrusted server
// builds the graph and produces recommendations without ever seeing a
// profile.
func TestClientServerDeployment(t *testing.T) {
	d := dataset.Generate(dataset.ML1M, 0.03, 7)
	scheme := core.MustScheme(1024, 7)

	// Client side: fingerprint and serialize, one upload per user.
	fps := scheme.FingerprintAllParallel(d.Profiles, 0)
	var wire bytes.Buffer
	for _, fp := range fps {
		if err := core.WriteFingerprint(&wire, fp); err != nil {
			t.Fatal(err)
		}
	}

	// Server side: deserialize, verify privacy bounds, build the graph.
	received := make([]core.Fingerprint, len(fps))
	for i := range received {
		var err error
		if received[i], err = core.ReadFingerprint(&wire); err != nil {
			t.Fatal(err)
		}
	}
	report := privacy.Assess(d.Name, d.Profiles, d.NumItems, scheme)
	if report.KAnonymityBits <= 0 {
		t.Errorf("no k-anonymity: %+v", report)
	}

	// One worker: Hyrec's concurrent neighborhood updates race benignly on
	// which of two equal candidates lands first, so only the single-worker
	// build is a pure function of its input — which is what a test of the
	// wire format needs.
	opts := knn.Options{Seed: 7, Workers: 1}
	serverP := &knn.SHFProvider{Fingerprints: received}
	g, _ := knn.Hyrec(serverP, 10, opts)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}

	// The server-built graph matches one built from the original
	// fingerprints exactly (serialization is lossless).
	local, _ := knn.Hyrec(knn.NewSHFProvider(scheme, d.Profiles), 10, opts)
	for u := range g.Neighbors {
		if len(g.Neighbors[u]) != len(local.Neighbors[u]) {
			t.Fatalf("user %d: neighborhood size differs across the wire", u)
		}
		for i := range g.Neighbors[u] {
			if g.Neighbors[u][i] != local.Neighbors[u][i] {
				t.Fatalf("user %d: neighbor %d differs across the wire", u, i)
			}
		}
	}
}

// TestRecommendationQualityParity is the Fig 8 claim as an integration
// invariant: over 5-fold cross-validation, GoldFinger recall stays within
// 30% of native recall on every algorithm.
func TestRecommendationQualityParity(t *testing.T) {
	d := dataset.Generate(dataset.ML1M, 0.04, 8)
	scheme := core.MustScheme(1024, 8)
	const k = 15

	build := func(gf bool) func(train *dataset.Dataset) *knn.Graph {
		return func(train *dataset.Dataset) *knn.Graph {
			var p knn.Provider
			if gf {
				p = knn.NewSHFProvider(scheme, train.Profiles)
			} else {
				p = knn.NewExplicitProvider(train.Profiles)
			}
			g, _ := knn.NNDescent(p, k, knn.Options{Seed: 8})
			return g
		}
	}
	native, err := recommend.CrossValidate(d, 5, 8, 20, build(false))
	if err != nil {
		t.Fatal(err)
	}
	golfi, err := recommend.CrossValidate(d, 5, 8, 20, build(true))
	if err != nil {
		t.Fatal(err)
	}
	if native <= 0 {
		t.Fatalf("native recall %g not positive", native)
	}
	if golfi < native*0.7 {
		t.Errorf("GoldFinger recall %.4f below 70%% of native %.4f", golfi, native)
	}
}

// TestEstimatorTheoremsHoldOnRealWorkload ties the analytic machinery to
// the system: for sampled user pairs of a generated dataset, the SHF
// estimate must stay within the 1%–99% band predicted by Theorem 1's
// Monte-Carlo distribution in at least 90% of cases.
func TestEstimatorTheoremsHoldOnRealWorkload(t *testing.T) {
	d := dataset.Generate(dataset.ML1M, 0.02, 9)
	scheme := core.MustScheme(1024, 9)
	fps := scheme.FingerprintAll(d.Profiles)

	within := 0
	total := 0
	for u := 0; u < d.NumUsers() && total < 60; u += 5 {
		for v := u + 1; v < d.NumUsers() && total < 60; v += 11 {
			inter := profile.IntersectionSize(d.Profiles[u], d.Profiles[v])
			if inter == 0 {
				continue
			}
			est := core.Jaccard(fps[u], fps[v])
			truth := profile.Jaccard(d.Profiles[u], d.Profiles[v])
			// Loose analytic band: the positive bias is bounded by the
			// collision mass; allow ±0.1 around the truth plus bias.
			if est >= truth-0.1 && est <= truth+0.15 {
				within++
			}
			total++
		}
	}
	if total == 0 {
		t.Skip("no overlapping pairs sampled")
	}
	frac := float64(within) / float64(total)
	if frac < 0.9 {
		t.Errorf("only %.0f%% of estimates within the predicted band", 100*frac)
	}
}

// TestScaleInvariantsAcrossPresets checks every preset end to end at tiny
// scale: generation, stats, fingerprinting and graph construction hold
// their invariants on all six dataset shapes.
func TestScaleInvariantsAcrossPresets(t *testing.T) {
	scheme := core.MustScheme(256, 10)
	for _, preset := range dataset.Presets() {
		d := dataset.Generate(preset, 0.01, 10)
		s := d.ComputeStats()
		if s.Users != d.NumUsers() || s.Ratings != d.NumRatings() {
			t.Errorf("%s: stats inconsistent with dataset", preset.Name)
		}
		if s.MeanProfile < float64(preset.MinProfile)*0.9 {
			t.Errorf("%s: mean profile %.1f below preset minimum", preset.Name, s.MeanProfile)
		}
		g, _ := knn.Hyrec(knn.NewSHFProvider(scheme, d.Profiles), 5, knn.Options{Seed: 10})
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", preset.Name, err)
		}
		avg := g.AvgSimilarity(knn.NewExplicitProvider(d.Profiles))
		if math.IsNaN(avg) || avg <= 0 {
			t.Errorf("%s: degenerate graph similarity %g", preset.Name, avg)
		}
	}
}

// TestServiceEpochLifecycleOverHTTP drives the deployed service end to end
// through its HTTP surface: clients upload serialized SHFs, trigger a
// build, keep uploading while the epoch is live, and observe the epoch
// contract (post-epoch users inserted into the live graph and served
// immediately, epoch advance on rebuild) — the §2.5 deployment under
// churn rather than one-shot.
func TestServiceEpochLifecycleOverHTTP(t *testing.T) {
	d := dataset.Generate(dataset.ML1M, 0.01, 11)
	scheme := core.MustScheme(1024, 11)
	srv, err := service.NewServer(1024)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	upload := func(id string, p profile.Profile) {
		t.Helper()
		var buf bytes.Buffer
		if err := core.WriteFingerprint(&buf, scheme.Fingerprint(p)); err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/users/"+id+"/fingerprint", &buf)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("upload %s: status %d", id, resp.StatusCode)
		}
	}

	const initial = 20
	for i := 0; i < initial; i++ {
		upload(fmt.Sprintf("u%03d", i), d.Profiles[i])
	}
	resp, err := http.Post(ts.URL+"/graph/build?k=5", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var build service.BuildResult
	if err := json.NewDecoder(resp.Body).Decode(&build); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if build.Epoch != 1 || build.Users != initial {
		t.Fatalf("first build = %+v", build)
	}

	// Churn: more users arrive after the build. The live epoch inserts
	// them online — newcomers are served immediately, no rebuild needed.
	upload("late-a", d.Profiles[initial])
	upload("late-b", d.Profiles[initial+1])
	resp, err = http.Get(ts.URL + "/users/u000/neighbors")
	if err != nil {
		t.Fatal(err)
	}
	var nbrs []service.NeighborJSON
	if err := json.NewDecoder(resp.Body).Decode(&nbrs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(nbrs) != 5 {
		t.Fatalf("epoch user got %d neighbors, want 5", len(nbrs))
	}
	resp, err = http.Get(ts.URL + "/users/late-a/neighbors")
	if err != nil {
		t.Fatal(err)
	}
	nbrs = nil
	if err := json.NewDecoder(resp.Body).Decode(&nbrs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(nbrs) == 0 {
		t.Fatalf("post-epoch user: status %d with %d neighbors, want live 200", resp.StatusCode, len(nbrs))
	}

	// Rebuild folds the newcomers in and advances the epoch.
	resp, err = http.Post(ts.URL+"/graph/build?k=5", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&build); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if build.Epoch != 2 || build.Users != initial+2 {
		t.Fatalf("second build = %+v", build)
	}
	resp, err = http.Get(ts.URL + "/users/late-a/neighbors")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("late user after rebuild: status %d, want 200", resp.StatusCode)
	}
}
