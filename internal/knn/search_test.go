package knn

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"testing"

	"goldfinger/internal/core"
	"goldfinger/internal/dataset"
	"goldfinger/internal/profile"
)

// clusteredProfiles generates community-structured profiles via the
// repo's synthetic dataset generator — the similarity topology real
// datasets have and the one graph navigation needs: random flat profiles
// give the greedy descent no gradient to follow, while fully disjoint
// clusters shatter the KNN graph into unreachable components. The Zipf
// global pool keeps communities overlapping enough to navigate between.
// extra profiles past n are held-out query users from the same
// distribution.
func clusteredProfiles(n, extra int, seed int64) []profile.Profile {
	total := n + extra
	scale := float64(total+2) / float64(dataset.ML10M.Users)
	ds := dataset.Generate(dataset.ML10M, scale, seed)
	if len(ds.Profiles) < total {
		panic("clusteredProfiles: generator produced too few users")
	}
	return ds.Profiles[:total]
}

// searchFixture packs n clustered users, builds their exact KNN graph
// (already symmetrized for navigation) and returns held-out query
// fingerprints.
func searchFixture(t testing.TB, n, k, queries int) (*core.PackedCorpus, *Graph, []core.Fingerprint) {
	t.Helper()
	profiles := clusteredProfiles(n, queries, 11)
	scheme := core.MustScheme(1024, 11)
	corpus := scheme.PackProfiles(profiles[:n], 0)
	provider := NewPackedSHFProvider(corpus)
	g, _ := BruteForce(provider, k, Options{})
	qs := make([]core.Fingerprint, queries)
	for i := range qs {
		qs[i] = scheme.Fingerprint(profiles[n+i])
	}
	return corpus, g.Navigable(provider), qs
}

// scanTopK is the ground truth: the exact linear scan the graph search is
// judged against.
func scanTopK(corpus *core.PackedCorpus, q core.Fingerprint, k int) []Neighbor {
	return TopKRange(corpus.NumUsers(), k, 1, func(lo, hi int, out []float64) {
		corpus.JaccardQueryInto(q, lo, hi, out)
	})
}

func recallAt(got, want []Neighbor) float64 {
	if len(want) == 0 {
		return 1
	}
	in := map[int32]bool{}
	for _, nb := range got {
		in[nb.ID] = true
	}
	hits := 0
	for _, nb := range want {
		if in[nb.ID] {
			hits++
		}
	}
	return float64(hits) / float64(len(want))
}

func TestNavigable(t *testing.T) {
	if (*Graph)(nil).Navigable(nil) != nil {
		t.Error("nil graph must symmetrize to nil")
	}
	g := &Graph{K: 2, Neighbors: [][]Neighbor{
		{{ID: 1, Sim: 0.5}, {ID: 2, Sim: 0.25}},
		{{ID: 0, Sim: 0.5}},
		{},
	}}
	nav := g.Navigable(nil)
	want := [][]Neighbor{
		{{ID: 1, Sim: 0.5}, {ID: 2, Sim: 0.25}}, // mutual 0↔1 deduplicated
		{{ID: 0, Sim: 0.5}},
		{{ID: 0, Sim: 0.25}}, // reverse edge of 0→2
	}
	for u := range want {
		if len(nav.Neighbors[u]) != len(want[u]) {
			t.Fatalf("node %d: %+v, want %+v", u, nav.Neighbors[u], want[u])
		}
		for i := range want[u] {
			if nav.Neighbors[u][i] != want[u][i] {
				t.Fatalf("node %d: %+v, want %+v", u, nav.Neighbors[u], want[u])
			}
		}
	}
	// The original graph must be untouched.
	if len(g.Neighbors[2]) != 0 || len(g.Neighbors[0]) != 2 {
		t.Error("Navigable mutated its receiver")
	}
}

// navTestProvider serves a fixed similarity function; only the pairs the
// diversity heuristic consults need to be defined.
type navTestProvider struct {
	n   int
	sim func(u, v int) float64
}

func (p navTestProvider) NumUsers() int               { return p.n }
func (p navTestProvider) Similarity(u, v int) float64 { return p.sim(u, v) }

// TestNavigableDiversity: over the degree cap, a best-first cap keeps only
// the strongest (mutually near-duplicate) edges, while the diversity
// heuristic must sacrifice one of them to retain the weak long-range edge
// that keeps distant regions reachable.
func TestNavigableDiversity(t *testing.T) {
	const n = 100
	const far = int32(99)
	g := &Graph{K: 2, Neighbors: make([][]Neighbor, n)}
	// Hub 0: 70 near-duplicate neighbors (sims 0.80 down to 0.11) plus one
	// distant neighbor at 0.1 — 71 candidates against the cap of 64.
	for i := int32(1); i <= 70; i++ {
		g.Neighbors[0] = append(g.Neighbors[0], Neighbor{ID: i, Sim: 0.80 - float64(i-1)*0.01})
	}
	g.Neighbors[0] = append(g.Neighbors[0], Neighbor{ID: far, Sim: 0.1})

	p := navTestProvider{n: n, sim: func(u, v int) float64 {
		if u == int(far) || v == int(far) {
			return 0 // the far node resembles nothing else
		}
		return 0.9 // the near-duplicates resemble each other
	}}

	hasFar := func(nav *Graph) bool {
		for _, nb := range nav.Neighbors[0] {
			if nb.ID == far {
				return true
			}
		}
		return false
	}
	if hasFar(g.Navigable(nil)) {
		t.Fatal("best-first cap kept the weakest edge; the fixture does not exercise the cap")
	}
	nav := g.Navigable(p)
	if len(nav.Neighbors[0]) != 64 {
		t.Fatalf("hub degree %d, want the cap 64", len(nav.Neighbors[0]))
	}
	if !hasFar(nav) {
		t.Error("diversity selection dropped the long-range edge the cap exists to protect")
	}
	for i := 1; i < len(nav.Neighbors[0]); i++ {
		if ranksAbove(nav.Neighbors[0][i], nav.Neighbors[0][i-1]) {
			t.Fatalf("adjacency not sorted best-first at %d", i)
		}
	}
}

func TestGraphSearchFindsScanNeighbors(t *testing.T) {
	const n, k = 2000, 10
	corpus, g, qs := searchFixture(t, n, k, 20)
	var recall float64
	for _, q := range qs {
		want := scanTopK(corpus, q, k)
		got, stats, err := GraphSearch(g, corpus.NewQueryScorer(q), k, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != k {
			t.Fatalf("result has %d neighbors, want %d", len(got), k)
		}
		for i := 1; i < len(got); i++ {
			if ranksAbove(got[i], got[i-1]) {
				t.Fatalf("result not sorted at %d: %+v", i, got)
			}
		}
		if stats.Scored >= n {
			t.Errorf("scored %d of %d nodes; the search degenerated into a scan", stats.Scored, n)
		}
		recall += recallAt(got, want)
	}
	recall /= float64(len(qs))
	if recall < 0.9 {
		t.Errorf("mean recall@%d = %.3f, want >= 0.9", k, recall)
	}
}

func TestGraphSearchDeterministic(t *testing.T) {
	corpus, g, qs := searchFixture(t, 400, 5, 1)
	scorer := corpus.NewQueryScorer(qs[0])
	first, stats1, err := GraphSearch(g, scorer, 5, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		got, stats, err := GraphSearch(g, scorer, 5, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(first) {
			t.Fatalf("trial %d: %d results vs %d", trial, len(got), len(first))
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("trial %d: result diverged at %d: %+v vs %+v", trial, i, got[i], first[i])
			}
		}
		if stats != stats1 {
			t.Fatalf("trial %d: stats diverged: %+v vs %+v", trial, stats, stats1)
		}
	}
}

// TestGraphSearchKGreaterThanN: k beyond the node count must clamp, not
// panic or return duplicates.
func TestGraphSearchKGreaterThanN(t *testing.T) {
	corpus, g, qs := searchFixture(t, 30, 5, 1)
	got, _, err := GraphSearch(g, corpus.NewQueryScorer(qs[0]), 100, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) > 30 {
		t.Fatalf("got %d results from a 30-node graph", len(got))
	}
	seen := map[int32]bool{}
	for _, nb := range got {
		if seen[nb.ID] {
			t.Fatalf("duplicate neighbor %d", nb.ID)
		}
		seen[nb.ID] = true
	}
}

func TestGraphSearchDegenerateInputs(t *testing.T) {
	corpus, g, qs := searchFixture(t, 30, 5, 1)
	oracle := corpus.NewQueryScorer(qs[0])
	for name, tc := range map[string]struct {
		g *Graph
		k int
	}{
		"nil graph":   {nil, 5},
		"empty graph": {&Graph{K: 5}, 5},
		"k=0":         {g, 0},
		"k<0":         {g, -3},
	} {
		got, _, err := GraphSearch(tc.g, oracle, tc.k, SearchOptions{})
		if err != nil || got != nil {
			t.Errorf("%s: got (%v, %v), want (nil, nil)", name, got, err)
		}
	}
}

// TestGraphSearchIsolatedNodesReturnShort: when the descent cannot reach k
// distinct nodes (edgeless graph, seeds only), the result must come back
// short — the signal the service uses to fall back to a scan — never
// padded or fabricated.
func TestGraphSearchIsolatedNodesReturnShort(t *testing.T) {
	corpus, _, qs := searchFixture(t, 100, 5, 1)
	edgeless := &Graph{K: 5, Neighbors: make([][]Neighbor, 100)}
	got, stats, err := GraphSearch(edgeless, corpus.NewQueryScorer(qs[0]), 20, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Only the 8 default seeds are reachable.
	if len(got) >= 20 {
		t.Fatalf("edgeless graph returned %d results for k=20", len(got))
	}
	if len(got) == 0 {
		t.Fatal("seeds themselves must still be scored")
	}
	if stats.Hops != len(got) {
		// Every scored seed is expanded once (empty neighbor list).
		t.Logf("hops=%d scored=%d", stats.Hops, stats.Scored)
	}
}

// TestGraphSearchCancellation: a context canceled before or during the
// search must surface ctx.Err() with no partial result.
func TestGraphSearchCancellation(t *testing.T) {
	_, g, _ := searchFixture(t, 400, 5, 1)

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	got, _, err := GraphSearch(g, OracleFunc(func(int32) float64 { return 0 }), 5, SearchOptions{Ctx: pre})
	if err != context.Canceled || got != nil {
		t.Fatalf("pre-canceled: got (%v, %v), want (nil, context.Canceled)", got, err)
	}

	// Cancel mid-search, at several depths: after `stop` oracle calls the
	// context dies, and the search must return ctx.Err() within one hop.
	for _, stop := range []int{1, 3, 20} {
		ctx, cancel := context.WithCancel(context.Background())
		calls := 0
		oracle := OracleFunc(func(v int32) float64 {
			calls++
			if calls == stop {
				cancel()
			}
			return 1 / float64(v+2)
		})
		got, _, err := GraphSearch(g, oracle, 5, SearchOptions{Ctx: ctx})
		cancel()
		if err != context.Canceled {
			t.Fatalf("stop=%d: err = %v, want context.Canceled", stop, err)
		}
		if got != nil {
			t.Fatalf("stop=%d: partial result %v returned alongside ctx.Err()", stop, got)
		}
	}
}

// TestGraphSearchPooledScratch guards the sync.Pool: a steady-state query
// allocates the returned slice and nothing else — no O(n) visited set, no
// heaps, no per-query closure — whichever options it is given.
func TestGraphSearchPooledScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are unmeasurable under -race: sync.Pool deliberately drops a fraction of Puts there to flush out lifetime bugs")
	}
	corpus, g, qs := searchFixture(t, 600, 10, 1)
	scorer := corpus.NewQueryScorer(qs[0])
	// A GC cycle clears sync.Pool victim caches, so a collection landing
	// inside the measured loop re-charges the scratch to the pool's
	// fresh-allocation path and inflates the count — that is pool
	// semantics, not a pooling bug. Park the heap first and hold GC off
	// for the measurement so the guard sees the steady state.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	odd := func(v int32) bool { return v&1 == 1 }
	for name, tc := range map[string]struct {
		oracle SearchOracle
		opts   SearchOptions
	}{
		"batch oracle, default seeds":   {scorer, SearchOptions{}},
		"batch oracle, seeds + exclude": {scorer, SearchOptions{Seeds: DefaultSeeds([]int32{5, 5, -1}, 600), Exclude: odd}},
		"per-node oracle":               {perNode{scorer}, SearchOptions{Exclude: odd}},
	} {
		// Warm the pool so the first-use scratch growth is not measured.
		if _, _, err := GraphSearch(g, tc.oracle, 10, tc.opts); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, _, err := GraphSearch(g, tc.oracle, 10, tc.opts); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("%s: GraphSearch allocates %.1f objects per query, want the result slice only", name, allocs)
		}
	}
}

// perNode hides an oracle's batch method: the search must then score node
// by node through ScoreAbove, early-abandon proofs included.
type perNode struct{ SearchOracle }

// referenceSearch is the specified semantics of graphSearch on plain
// sorted slices and a map — no heaps, no batches, no selection: score
// every distinct in-range seed; the beam is the ef best non-excluded ones
// and the candidates are the seeds not ranking below the beam's floor
// (all of them while the beam is short); then expand candidates best
// first, offering each unvisited neighbor in list order, until the best
// candidate's similarity is below the floor's. It returns the result, the
// hops and the nodes scored.
func referenceSearch(nbrs [][]Neighbor, sim func(int32) float64, k int, opts SearchOptions) ([]Neighbor, int, int) {
	n := len(nbrs)
	if n == 0 || k <= 0 {
		return nil, 0, 0
	}
	k = min(k, n)
	ef := opts.Ef
	if ef <= 0 {
		ef = max(64, 16*k)
	}
	ef = min(max(ef, k), n)
	dead := func(v int32) bool { return opts.Exclude != nil && opts.Exclude(v) }
	insert := func(s []Neighbor, e Neighbor) []Neighbor {
		return slices.Insert(s, sort.Search(len(s), func(i int) bool { return ranksAbove(e, s[i]) }), e)
	}
	seeds := opts.Seeds
	if len(seeds) == 0 {
		seeds = appendSpreadSeeds(nil, n, opts.NumSeeds)
	}
	visited := map[int32]bool{}
	var beam, cand []Neighbor // both sorted best first
	offer := func(v int32, seed bool) {
		if v < 0 || int(v) >= n || visited[v] {
			return
		}
		visited[v] = true
		e := Neighbor{ID: v, Sim: sim(v)}
		if !seed && len(beam) == ef && !ranksAbove(e, beam[ef-1]) {
			return
		}
		if cand = insert(cand, e); !dead(v) {
			beam = insert(beam, e)
		}
	}
	for _, v := range seeds {
		offer(v, true)
	}
	if len(beam) >= ef {
		beam = beam[:ef]
		cand = slices.DeleteFunc(cand, func(e Neighbor) bool { return ranksAbove(beam[ef-1], e) })
	}
	hops := 0
	for ; len(cand) > 0 && !(len(beam) == ef && cand[0].Sim < beam[ef-1].Sim); hops++ {
		c := cand[0]
		cand = cand[1:]
		for _, nb := range nbrs[c.ID] {
			offer(nb.ID, false)
			beam = beam[:min(len(beam), ef)]
		}
	}
	return slices.Clone(beam[:min(k, len(beam))]), hops, len(visited)
}

// tableOracle scores from a table, with the early-abandon contract at its
// loosest: every similarity below the floor is refused.
type tableOracle []float64

func (o tableOracle) Score(v int32) float64 { return o[v] }
func (o tableOracle) ScoreAbove(v int32, floor float64) (float64, bool) {
	return o[v], floor <= 0 || o[v] >= floor
}

// batchTableOracle is tableOracle with the batch method.
type batchTableOracle struct{ tableOracle }

func (o batchTableOracle) ScoreBatch(ids []int32, sims []float64) {
	for i, v := range ids {
		sims[i] = o.tableOracle[v]
	}
}

// randomSearchCase draws a graph with heavy similarity ties, isolated
// nodes, duplicate and out-of-range edges, and options covering duplicate,
// negative and out-of-range seeds, Exclude, ef >= n and k > n.
func randomSearchCase(rng *rand.Rand, n int) ([][]Neighbor, tableOracle, int, SearchOptions) {
	nbrs := make([][]Neighbor, n)
	sims := make(tableOracle, n)
	levels := 1 + rng.Intn(5)
	for v := range nbrs {
		sims[v] = float64(rng.Intn(levels)) / 4
		if rng.Intn(5) == 0 {
			continue // isolated
		}
		for d := rng.Intn(2 + n/4); d > 0; d-- {
			nbrs[v] = append(nbrs[v], Neighbor{ID: int32(rng.Intn(n+2) - 1)})
		}
	}
	var opts SearchOptions
	switch rng.Intn(3) {
	case 0:
		opts.NumSeeds = rng.Intn(n + 2)
	case 1:
		for s := rng.Intn(2*n + 600); s > 0; s-- {
			opts.Seeds = append(opts.Seeds, int32(rng.Intn(n+4)-2))
		}
	}
	if rng.Intn(2) == 0 {
		mod := int32(1 + rng.Intn(4))
		opts.Exclude = func(v int32) bool { return v%mod == 0 }
	}
	opts.Ef = []int{0, 1, 1 + rng.Intn(n+1), n, n + 7}[rng.Intn(5)]
	return nbrs, sims, 1 + rng.Intn(n+3), opts
}

// TestGraphSearchMatchesReference is the differential test of the search
// loop: on random graphs built to tie, the batched, selection-seeded,
// heap-based search returns exactly what referenceSearch does — result,
// hops and rows scored — through a batch oracle, a per-node oracle that
// never abandons and one that abandons whenever it may. The last pins that
// a refused row was one the beam would have rejected anyway.
func TestGraphSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(40)
		if trial%10 == 0 {
			n = 300 + rng.Intn(300) // more seeds than one batch holds
		}
		nbrs, sims, k, opts := randomSearchCase(rng, n)
		g := &Graph{K: k, Neighbors: nbrs}
		want, hops, scored := referenceSearch(nbrs, sims.Score, k, opts)
		for name, oracle := range map[string]SearchOracle{
			"batch": batchTableOracle{sims}, "exact": OracleFunc(sims.Score), "abandoning": sims,
		} {
			got, stats, err := GraphSearch(g, oracle, k, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) || stats.Hops != hops || stats.Scored+stats.Abandoned != scored {
				t.Fatalf("trial %d (n=%d k=%d ef=%d seeds=%d/%d exclude=%v) %s oracle:\n got %v %+v\nwant %v hops=%d scored=%d",
					trial, n, k, opts.Ef, len(opts.Seeds), opts.NumSeeds, opts.Exclude != nil, name, got, stats, want, hops, scored)
			}
			if name != "abandoning" && stats.Abandoned != 0 {
				t.Fatalf("trial %d: %s oracle reported %d abandoned rows", trial, name, stats.Abandoned)
			}
		}
	}
}

// TestGraphSearchBatchEqualsPerNode: at n=10k, searching with the packed
// scorer (batch path) and with the same scorer behind OracleFunc or behind
// its two-method interface (per-node path, exact and early-abandoning)
// returns identical lists and expands the same nodes.
func TestGraphSearchBatchEqualsPerNode(t *testing.T) {
	const n, k, queries = 10000, 10, 20
	profiles := clusteredProfiles(n, queries, 31)
	scheme := core.MustScheme(1024, 31)
	corpus := scheme.PackProfiles(profiles[:n], 0)
	provider := NewPackedSHFProvider(corpus)
	built, _ := ClusterConquer(provider, k, Options{Seed: 31})
	g := built.Navigable(provider)
	abandoned := 0
	for i := 0; i < queries; i++ {
		scorer := corpus.NewQueryScorer(scheme.Fingerprint(profiles[n+i]))
		opts := SearchOptions{Exclude: func(v int32) bool { return v%7 == 3 }}
		want, wstats, _ := GraphSearch(g, scorer, k, opts)
		if len(want) != k || wstats.Abandoned != 0 {
			t.Fatalf("query %d: batch path returned %d results, stats %+v", i, len(want), wstats)
		}
		for name, oracle := range map[string]SearchOracle{"OracleFunc": OracleFunc(scorer.Score), "ScoreAbove": perNode{scorer}} {
			got, stats, _ := GraphSearch(g, oracle, k, opts)
			if !slices.Equal(got, want) || stats.Hops != wstats.Hops || stats.Scored+stats.Abandoned != wstats.Scored {
				t.Fatalf("query %d via %s: %v %+v, batch path %v %+v", i, name, got, stats, want, wstats)
			}
			abandoned += stats.Abandoned
		}
	}
	if abandoned == 0 {
		t.Error("the per-node path never abandoned a row; the fixture does not exercise ScoreAbove's proofs")
	}
}

// ringGraph is an n-node graph whose node v points at v±1, v±2 and one
// far node, with a tie-heavy similarity peaking at node peak.
func ringGraph(n, peak int) (*Graph, tableOracle) {
	g := &Graph{K: 4, Neighbors: make([][]Neighbor, n)}
	sims := make(tableOracle, n)
	for v := range sims {
		for _, d := range []int{1, n - 1, 2, n - 2, n / 3} {
			g.Neighbors[v] = append(g.Neighbors[v], Neighbor{ID: int32((v + d) % n)})
		}
		d := min((v-peak+n)%n, (peak-v+n)%n)
		sims[v] = math.Round(64/(1+float64(d)/16)) / 64
	}
	return g, sims
}

// TestGraphSearchScratchReuse: the visited bitmap is cleared for exactly
// the graph being searched, so one pooled state used over a large graph, a
// small one and the large one again — and over an online graph that grows
// between searches — never reports a visit left by an earlier query. Runs
// under -race in `make parity` and `make racecheck`.
func TestGraphSearchScratchReuse(t *testing.T) {
	st := new(searchState)
	for _, n := range []int{50000, 500, 50000, 50001, 70000} {
		st.reset(n)
		for v := int32(0); int(v) < n; v++ {
			if st.visit(v) {
				t.Fatalf("n=%d: node %d reads visited after reset", n, v)
			}
			if !st.visit(v) {
				t.Fatalf("n=%d: node %d reads unvisited after visit", n, v)
			}
		}
	}

	// The same through GraphSearch and the pool, against the reference.
	for round, n := range []int{50000, 500, 50000, 501, 50000} {
		g, sims := ringGraph(n, (round*7919)%n)
		want, hops, scored := referenceSearch(g.Neighbors, sims.Score, 10, SearchOptions{})
		got, stats, _ := GraphSearch(g, batchTableOracle{sims}, 10, SearchOptions{})
		if !slices.Equal(got, want) || stats.Hops != hops || stats.Scored != scored {
			t.Fatalf("round %d (n=%d): %v %+v, reference %v hops=%d scored=%d", round, n, got, stats, want, hops, scored)
		}
	}

	// An online graph gaining a node per insert: every search between
	// inserts equals the reference over the same published adjacency.
	fps := onlineFixture(t, 0.05, 5)
	const k = 6
	o := newEmptyOnline(t, k)
	for i, fp := range fps {
		o.Insert(fp)
		if i < 2*onlineMaxDegree(k) || i%3 != 0 {
			continue
		}
		s := o.Snapshot()
		q := fps[(i*31)%len(fps)]
		sim := func(v int32) float64 { return core.Jaccard(q, fps[v]) }
		want, hops, _ := referenceSearch(s.Nav().Neighbors, sim, k, SearchOptions{})
		got, stats, _ := s.Search(OracleFunc(sim), k, SearchOptions{})
		if !slices.Equal(got, want) || stats.Hops != hops {
			t.Fatalf("after insert %d: %v hops=%d, reference %v hops=%d", i, got, stats.Hops, want, hops)
		}
	}
}

// TestSpreadSeedsClosedForm pins the division-free spread to its closed
// form i·(n-1)/(ns-1): for every n up to 5 000 at the default count and two
// explicit ones, and at sizes where the product i·(n-1) approaches or
// passes 2⁶³ in the sizes it would be computed at — there is no product
// to overflow.
func TestSpreadSeedsClosedForm(t *testing.T) {
	check := func(n, ns int) {
		t.Helper()
		got := appendSpreadSeeds([]int32{-7}, n, ns)
		if got[0] != -7 {
			t.Fatalf("n=%d ns=%d: dst prefix overwritten", n, ns)
		}
		got = got[1:]
		want := ns
		if want <= 0 {
			want = max(8, n/64)
		}
		want = min(want, n)
		if len(got) != want {
			t.Fatalf("n=%d ns=%d: %d seeds, want %d", n, ns, len(got), want)
		}
		for i, id := range got {
			closed := int64(0)
			if want > 1 {
				closed = int64(i) * int64(n-1) / int64(want-1)
			}
			if int64(id) != closed {
				t.Fatalf("n=%d ns=%d: seed %d is %d, closed form %d", n, ns, i, id, closed)
			}
		}
	}
	for n := 0; n <= 5000; n++ {
		check(n, 0)
		check(n, 1+n/3)
		check(n, n+5)
	}
	for _, n := range []int{100000, 1000000} {
		check(n, 0)
		check(n, n)
	}
	for _, ns := range []int{1, 2, 8, 1000, 65537, 1 << 20} {
		check(math.MaxInt32, ns)
	}
	if got := DefaultSeeds([]int32{3, 4}, 1000); len(got) != 2+15 || got[2] != 0 || got[16] != 999 {
		t.Fatalf("DefaultSeeds(…, 1000) = %v", got)
	}
}

// TestGraphScanParity10k is the scan-vs-graph parity floor of `make
// racecheck`: at n=10k on an NNDescent-built graph (the builder the query
// bench and the serving recommendation use), graph-mode recall@10 against
// the exact scan must stay at or above 0.9 while touching a small
// fraction of the corpus.
func TestGraphScanParity10k(t *testing.T) {
	const n, k, queries = 10000, 10, 30
	profiles := clusteredProfiles(n, queries, 23)
	scheme := core.MustScheme(1024, 23)
	corpus := scheme.PackProfiles(profiles[:n], 0)
	provider := NewPackedSHFProvider(corpus)
	built, _ := NNDescent(provider, k, Options{Seed: 23})
	g := built.Navigable(provider)

	var recall, frac float64
	for i := 0; i < queries; i++ {
		q := scheme.Fingerprint(profiles[n+i])
		want := scanTopK(corpus, q, k)
		got, stats, err := GraphSearch(g, corpus.NewQueryScorer(q), k, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		recall += recallAt(got, want)
		frac += float64(stats.Scored) / float64(n)
	}
	recall /= queries
	frac /= queries
	t.Logf("n=%d: recall@%d = %.3f, %.1f%% of corpus scored per query", n, k, recall, 100*frac)
	if recall < 0.9 {
		t.Errorf("graph-mode recall@%d = %.3f, below the 0.9 parity floor", k, recall)
	}
	if frac > 0.5 {
		t.Errorf("graph search scored %.0f%% of the corpus per query; not sublinear", 100*frac)
	}
}
