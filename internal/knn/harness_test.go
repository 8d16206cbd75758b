package knn

// Cross-algorithm correctness harness: every approximate builder is held
// to a fixed quality floor against the exact BruteForce graph on a seeded
// synthetic dataset, in both native and GoldFinger (SHF) mode; the two
// brute-force implementations are held to tie-tolerant equivalence; and
// every builder must honor context cancellation promptly. The whole file
// runs under -race via `make check` / `make racecheck`.

import (
	"context"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"goldfinger/internal/core"
	"goldfinger/internal/dataset"
	"goldfinger/internal/obs"
)

// harnessDataset is the fixed corpus every harness case runs on: seeded,
// so thresholds are deterministic, and clustered like ML-1M so the greedy
// builders have structure to exploit.
func harnessDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	return dataset.Generate(dataset.ML1M, 0.03, 171) // ≈180 users
}

// TestHarnessApproximateQualityFloors is the quality half of the harness:
// for each approximate algorithm × provider mode, Quality (the paper's
// Eq. 3 avg-similarity ratio vs the exact BruteForce graph, measured with
// exact similarities) must clear a fixed floor. The floors are set a few
// points under steady observed values so a real regression trips them but
// seed jitter does not.
func TestHarnessApproximateQualityFloors(t *testing.T) {
	d := harnessDataset(t)
	exactP := NewExplicitProvider(d.Profiles)
	scheme := core.MustScheme(1024, 99)
	shfP := NewSHFProvider(scheme, d.Profiles)
	const k = 10
	exact, exactStats := BruteForce(exactP, k, Options{})
	n := exactP.NumUsers()
	if want := int64(n) * int64(n-1) / 2; exactStats.Comparisons != want {
		t.Fatalf("exact baseline did %d comparisons, want %d", exactStats.Comparisons, want)
	}

	providers := map[string]Provider{"native": exactP, "goldfinger": shfP}
	cases := []struct {
		algo  string
		build func(p Provider) (*Graph, Stats)
		// floor per provider mode: SHF estimation noise costs a few points.
		floor map[string]float64
	}{
		{
			algo:  "hyrec",
			build: func(p Provider) (*Graph, Stats) { return Hyrec(p, k, Options{Seed: 1}) },
			floor: map[string]float64{"native": 0.90, "goldfinger": 0.85},
		},
		{
			algo:  "nndescent",
			build: func(p Provider) (*Graph, Stats) { return NNDescent(p, k, Options{Seed: 1}) },
			floor: map[string]float64{"native": 0.90, "goldfinger": 0.85},
		},
		{
			algo: "lsh",
			build: func(p Provider) (*Graph, Stats) {
				return LSH(d.Profiles, p, k, LSHOptions{Seed: 1})
			},
			floor: map[string]float64{"native": 0.70, "goldfinger": 0.70},
		},
		{
			// At harness scale every view collapses to one cluster, so the
			// scan is exact and quality should effectively match BruteForce.
			algo:  "cluster",
			build: func(p Provider) (*Graph, Stats) { return ClusterConquer(p, k, Options{Seed: 1}) },
			floor: map[string]float64{"native": 0.95, "goldfinger": 0.90},
		},
	}
	for _, tc := range cases {
		for mode, p := range providers {
			t.Run(tc.algo+"/"+mode, func(t *testing.T) {
				g, stats := tc.build(p)
				if err := g.Validate(); err != nil {
					t.Fatal(err)
				}
				if stats.Comparisons == 0 {
					t.Fatal("builder did no comparisons")
				}
				if q := Quality(g, exact, exactP); q < tc.floor[mode] {
					t.Errorf("%s/%s quality = %.3f, floor %.2f", tc.algo, mode, q, tc.floor[mode])
				}
			})
		}
	}
}

// TestHarnessBruteForceLegacyEquivalence is the exact half: the blocked
// row-tile BruteForce and the retained LegacyBruteForce baseline must
// produce equivalent graphs. Neighbor identity may legitimately differ on
// similarity ties, so equivalence is per-user equality of the sorted
// similarity sequences plus identical comparison counts.
func TestHarnessBruteForceLegacyEquivalence(t *testing.T) {
	d := harnessDataset(t)
	for name, p := range map[string]Provider{
		"native":     NewExplicitProvider(d.Profiles),
		"goldfinger": NewSHFProvider(core.MustScheme(1024, 99), d.Profiles),
	} {
		t.Run(name, func(t *testing.T) {
			const k = 7
			g, stats := BruteForce(p, k, Options{})
			lg, lstats := LegacyBruteForce(p, k, Options{})
			if stats.Comparisons != lstats.Comparisons {
				t.Errorf("comparisons: blocked %d, legacy %d", stats.Comparisons, lstats.Comparisons)
			}
			if g.NumUsers() != lg.NumUsers() {
				t.Fatalf("user counts differ: %d vs %d", g.NumUsers(), lg.NumUsers())
			}
			for u := range g.Neighbors {
				a, b := g.Neighbors[u], lg.Neighbors[u]
				if len(a) != len(b) {
					t.Fatalf("user %d: %d neighbors vs legacy %d", u, len(a), len(b))
				}
				for i := range a {
					if a[i].Sim != b[i].Sim {
						t.Fatalf("user %d rank %d: sim %g vs legacy %g", u, i, a[i].Sim, b[i].Sim)
					}
				}
			}
		})
	}
}

// TestHarnessCancellationIsPrompt: with an already-canceled context every
// builder must return almost immediately — well under the work of a full
// build — and still hand back a structurally valid graph.
func TestHarnessCancellationIsPrompt(t *testing.T) {
	d := harnessDataset(t)
	p := NewExplicitProvider(d.Profiles)
	n := p.NumUsers()
	full := int64(n) * int64(n-1) / 2
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	const k = 10
	cases := map[string]func() (*Graph, Stats){
		"bruteforce": func() (*Graph, Stats) { return BruteForce(p, k, Options{Ctx: ctx}) },
		"hyrec":      func() (*Graph, Stats) { return Hyrec(p, k, Options{Seed: 1, Ctx: ctx}) },
		"nndescent":  func() (*Graph, Stats) { return NNDescent(p, k, Options{Seed: 1, Ctx: ctx}) },
		"lsh": func() (*Graph, Stats) {
			return LSH(d.Profiles, p, k, LSHOptions{Seed: 1, Ctx: ctx})
		},
		"cluster": func() (*Graph, Stats) { return ClusterConquer(p, k, Options{Seed: 1, Ctx: ctx}) },
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			g, stats := build()
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			if g.NumUsers() != n {
				t.Errorf("canceled build returned %d users, want %d", g.NumUsers(), n)
			}
			// A canceled build must do almost none of the full scan's work.
			// BruteForce may finish the blocks already claimed; everything
			// else stops at the init/bucket boundary.
			if stats.Comparisons >= full/4 {
				t.Errorf("canceled %s still did %d of %d comparisons", name, stats.Comparisons, full)
			}
		})
	}
}

// TestHarnessMidBuildCancellationStopsIterations: canceling between
// iterations must stop the iterative builders early without corrupting the
// graph (the service-level "stops within one block" contract, exercised at
// the library layer).
func TestHarnessMidBuildCancellationStopsIterations(t *testing.T) {
	d := harnessDataset(t)
	p := NewExplicitProvider(d.Profiles)
	ctx, cancel := context.WithCancel(context.Background())
	counted := &cancelAfterProvider{Provider: p, cancel: cancel, after: 2000}
	g, stats := Hyrec(counted, 10, Options{Seed: 1, Ctx: ctx, Delta: -1, MaxIterations: 50})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if stats.Iterations >= 50 {
		t.Errorf("cancellation did not stop iterations: ran all %d", stats.Iterations)
	}
}

// cancelAfterProvider cancels its context after a fixed number of
// similarity calls — a deterministic way to cancel mid-build.
type cancelAfterProvider struct {
	Provider
	cancel context.CancelFunc
	after  int64
	calls  atomic.Int64
}

func (c *cancelAfterProvider) Similarity(u, v int) float64 {
	if c.calls.Add(1) == c.after {
		c.cancel()
	}
	return c.Provider.Similarity(u, v)
}

// TestHarnessObsInstrumentation: a builder handed a registry must publish
// comparison counts matching its Stats and per-phase duration histograms.
func TestHarnessObsInstrumentation(t *testing.T) {
	d := harnessDataset(t)
	p := NewExplicitProvider(d.Profiles)
	const k = 5

	cases := []struct {
		name   string
		build  func(reg *obs.Registry) Stats
		phases []string
	}{
		{
			name: "bruteforce",
			build: func(reg *obs.Registry) Stats {
				_, s := BruteForce(p, k, Options{Obs: reg})
				return s
			},
			phases: []string{"scan", "merge"},
		},
		{
			name: "hyrec",
			build: func(reg *obs.Registry) Stats {
				_, s := Hyrec(p, k, Options{Seed: 1, Obs: reg})
				return s
			},
			phases: []string{"init", "iterate"},
		},
		{
			name: "nndescent",
			build: func(reg *obs.Registry) Stats {
				_, s := NNDescent(p, k, Options{Seed: 1, Obs: reg})
				return s
			},
			phases: []string{"init", "iterate"},
		},
		{
			name: "lsh",
			build: func(reg *obs.Registry) Stats {
				_, s := LSH(d.Profiles, p, k, LSHOptions{Seed: 1, Obs: reg})
				return s
			},
			phases: []string{"bucket", "scan"},
		},
		{
			name: "cluster",
			build: func(reg *obs.Registry) Stats {
				_, s := ClusterConquer(p, k, Options{Seed: 1, Obs: reg})
				return s
			},
			phases: []string{"bucket", "scan", "merge", "refine"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			stats := tc.build(reg)
			if got := reg.Counter(MetricComparisons).Value(); got != stats.Comparisons {
				t.Errorf("registry comparisons = %d, stats say %d", got, stats.Comparisons)
			}
			for _, phase := range tc.phases {
				h := reg.Histogram("build.phase."+phase+".seconds", nil)
				if h.Count() == 0 {
					t.Errorf("phase %s recorded no duration", phase)
				}
			}
			if done, total := reg.Gauge(MetricProgressDone).Value(), reg.Gauge(MetricProgressTotal).Value(); done == 0 || total == 0 {
				t.Errorf("progress gauges dead: done=%d total=%d", done, total)
			}
		})
	}
}

// TestHarnessOnlineChurnTracksBatchBuild is the online-maintenance half of
// the harness: an Online maintainer absorbs ≥10k interleaved inserts,
// deletes and overwrites, and the resulting live graph must match a
// from-scratch ClusterConquer build over the exact same final corpus —
// quality and recall within a small ε. This is the correctness bar for
// serving mutations without a rebuild.
func TestHarnessOnlineChurnTracksBatchBuild(t *testing.T) {
	scheme := core.MustScheme(1024, 99)
	pool := dataset.Generate(dataset.ML1M, 0.65, 171) // ≈3900 users
	fps := scheme.FingerprintAllParallel(pool.Profiles, 0)
	const (
		k         = 10
		base      = 400
		mutations = 10000
		epsilon   = 0.05
	)

	// Seed epoch: a batch build over the first `base` users, exactly how
	// the service hands a built epoch to the maintainer.
	baseFPs := append([]core.Fingerprint(nil), fps[:base]...)
	seedGraph, _ := ClusterConquer(&SHFProvider{Fingerprints: baseFPs}, k, Options{Seed: 1})
	o, err := NewOnline(seedGraph, nil, baseFPs, nil, k, 0)
	if err != nil {
		t.Fatal(err)
	}

	// cur mirrors the maintainer's per-node fingerprints so the final
	// corpus can be rebuilt from scratch for the comparison build.
	cur := append([]core.Fingerprint(nil), fps[:base]...)
	rng := rand.New(rand.NewSource(20260808))
	pickLive := func() int32 {
		s := o.Snapshot()
		for {
			id := int32(rng.Intn(len(cur)))
			if !s.Dead(id) {
				return id
			}
		}
	}
	overwrite := func() {
		id := pickLive()
		fp := fps[rng.Intn(len(fps))]
		if _, err := o.Overwrite(id, fp); err != nil {
			t.Fatal(err)
		}
		cur[id] = fp
	}
	next := base
	var inserts, deletes, overwrites int
	for m := 0; m < mutations; m++ {
		r := rng.Float64()
		switch {
		case r < 0.35: // insert; once the pool drains, mutate in place
			if next < len(fps) {
				id, _ := o.Insert(fps[next])
				if int(id) != len(cur) {
					t.Fatalf("insert %d got node id %d, want %d", m, id, len(cur))
				}
				cur = append(cur, fps[next])
				next++
				inserts++
			} else {
				overwrite()
				overwrites++
			}
		case r < 0.50 && o.Snapshot().Live > 50:
			if _, err := o.Delete(pickLive()); err != nil {
				t.Fatal(err)
			}
			deletes++
		default:
			overwrite()
			overwrites++
		}
	}
	s := o.Snapshot()
	if s.Seq != mutations {
		t.Fatalf("snapshot seq = %d after %d mutations", s.Seq, mutations)
	}
	if err := s.Graph().Validate(); err != nil {
		t.Fatal(err)
	}

	liveG, liveFPs := liveSubgraph(s, cur)
	if len(liveFPs) != s.Live {
		t.Fatalf("live projection has %d nodes, snapshot says %d", len(liveFPs), s.Live)
	}
	p := &SHFProvider{Fingerprints: liveFPs}
	exact, _ := BruteForce(p, k, Options{})
	batch, _ := ClusterConquer(p, k, Options{Seed: 1})

	qOnline, qBatch := Quality(liveG, exact, p), Quality(batch, exact, p)
	rOnline, rBatch := Recall(liveG, exact), Recall(batch, exact)
	t.Logf("churn: %d inserts / %d deletes / %d overwrites → %d live; quality online %.3f batch %.3f; recall online %.3f batch %.3f",
		inserts, deletes, overwrites, s.Live, qOnline, qBatch, rOnline, rBatch)
	if qOnline < qBatch-epsilon {
		t.Errorf("online quality %.3f more than ε=%.2f below batch %.3f", qOnline, epsilon, qBatch)
	}
	if rOnline < rBatch-epsilon {
		t.Errorf("online recall %.3f more than ε=%.2f below batch %.3f", rOnline, epsilon, rBatch)
	}
}

// TestOnlineInsertLatencyFloor pins the serving-path cost of one online
// insert at realistic scale: against a 10k-node base graph, the p99 insert
// latency must stay in single-digit milliseconds. The graph search plus
// bounded reverse-edge repair is O(ef·k) per insert, independent of n —
// this floor catches an accidental O(n) scan sneaking into the mutation
// path. The benchmark's knn.online_insert_us tracks the n=100k number;
// this is the cheap every-`make check` guard.
func TestOnlineInsertLatencyFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("needs the full 10k base graph")
	}
	scheme := core.MustScheme(1024, 99)
	d := dataset.Generate(dataset.ML1M, 1.70, 29) // ≈10.3k users
	fps := scheme.FingerprintAllParallel(d.Profiles, 0)
	const (
		k       = 10
		base    = 10000
		inserts = 200
	)
	if len(fps) < base+inserts {
		t.Fatalf("fixture has %d users, need %d", len(fps), base+inserts)
	}
	baseFPs := append([]core.Fingerprint(nil), fps[:base]...)
	g, _ := ClusterConquer(&SHFProvider{Fingerprints: baseFPs}, k, Options{Seed: 3})
	o, err := NewOnline(g, nil, baseFPs, nil, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	lat := make([]time.Duration, 0, inserts)
	for _, fp := range fps[base : base+inserts] {
		start := time.Now()
		o.Insert(fp)
		lat = append(lat, time.Since(start))
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p50, p99 := lat[len(lat)/2], lat[len(lat)*99/100]
	t.Logf("online insert at n=%d: p50 %v, p99 %v", base, p50, p99)
	if p99 > 25*time.Millisecond {
		t.Errorf("p99 insert latency %v at n=%d, want < 25ms", p99, base)
	}
}
