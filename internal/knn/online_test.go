package knn

import (
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"goldfinger/internal/core"
	"goldfinger/internal/dataset"
)

// onlineFixture fingerprints a seeded ML-shaped corpus: the raw material
// every online-maintenance test draws nodes from.
func onlineFixture(t *testing.T, scale float64, seed int64) []core.Fingerprint {
	t.Helper()
	d := dataset.Generate(dataset.ML1M, scale, seed)
	scheme := core.MustScheme(1024, 99)
	return scheme.FingerprintAll(d.Profiles)
}

// newEmptyOnline starts a maintainer with zero nodes — every node arrives
// through Insert.
func newEmptyOnline(t *testing.T, k int) *Online {
	t.Helper()
	o, err := NewOnline(&Graph{K: k}, &Graph{K: k}, nil, nil, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// liveSubgraph projects a snapshot onto its live nodes: dead nodes and
// stale edges to dead nodes are dropped, IDs are remapped to a dense
// range. Returns the projected graph and the live fingerprints in the
// same order.
func liveSubgraph(s *OnlineSnapshot, fps []core.Fingerprint) (*Graph, []core.Fingerprint) {
	remap := make(map[int32]int32, s.Live)
	var liveFPs []core.Fingerprint
	full := s.Graph()
	for id := range full.Neighbors {
		if !s.Dead(int32(id)) {
			remap[int32(id)] = int32(len(liveFPs))
			liveFPs = append(liveFPs, fps[id])
		}
	}
	g := &Graph{K: full.K, Neighbors: make([][]Neighbor, len(liveFPs))}
	for id, nbrs := range full.Neighbors {
		u, ok := remap[int32(id)]
		if !ok {
			continue
		}
		for _, nb := range nbrs {
			if v, ok := remap[nb.ID]; ok {
				g.Neighbors[u] = append(g.Neighbors[u], Neighbor{ID: v, Sim: nb.Sim})
			}
		}
	}
	return g, liveFPs
}

// TestOnlineInsertOnlyBuildQuality: a graph grown purely through Insert
// must reach batch-build quality — within a few points of the exact graph
// on the same fingerprints.
func TestOnlineInsertOnlyBuildQuality(t *testing.T) {
	fps := onlineFixture(t, 0.06, 7) // ≈360 users
	const k = 10
	o := newEmptyOnline(t, k)
	for _, fp := range fps {
		o.Insert(fp)
	}
	s := o.Snapshot()
	if s.Live != len(fps) || s.Seq != uint64(len(fps)) {
		t.Fatalf("snapshot live=%d seq=%d, want %d/%d", s.Live, s.Seq, len(fps), len(fps))
	}
	if err := s.Graph().Validate(); err != nil {
		t.Fatal(err)
	}
	p := &SHFProvider{Fingerprints: fps}
	exact, _ := BruteForce(p, k, Options{})
	if q := Quality(s.Graph(), exact, p); q < 0.95 {
		t.Errorf("insert-only quality = %.3f, want ≥ 0.95", q)
	}
	if r := Recall(s.Graph(), exact); r < 0.80 {
		t.Errorf("insert-only recall = %.3f, want ≥ 0.80", r)
	}
}

// TestOnlineDeleteHidesNode: a deleted node disappears from every live
// KNN list it was detached from, its own list empties, and searches over
// the snapshot never return it.
func TestOnlineDeleteHidesNode(t *testing.T) {
	fps := onlineFixture(t, 0.04, 11)
	const k = 8
	o := newEmptyOnline(t, k)
	for _, fp := range fps {
		o.Insert(fp)
	}
	victim := int32(len(fps) / 2)
	res, err := o.Delete(victim)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Touched) == 0 || res.Touched[0].ID != victim {
		t.Fatalf("delete touched %v, want victim %d first", res.Touched, victim)
	}
	s := o.Snapshot()
	if !s.Dead(victim) || s.Live != len(fps)-1 {
		t.Fatalf("dead=%v live=%d after delete", s.Dead(victim), s.Live)
	}
	if len(s.Neighbors(victim)) != 0 {
		t.Errorf("victim kept %d out-edges", len(s.Neighbors(victim)))
	}
	for _, tn := range res.Touched[1:] {
		if containsID(s.Neighbors(tn.ID), victim) {
			t.Errorf("touched node %d still lists the victim", tn.ID)
		}
	}
	// A search for the victim's own fingerprint must find its former
	// neighbors, never the victim.
	oracle := OracleFunc(func(v int32) float64 { return core.Jaccard(fps[victim], fps[v]) })
	got, _, err := s.Search(oracle, k, SearchOptions{
		Exclude: func(v int32) bool { return s.Dead(v) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("search over post-delete graph returned nothing")
	}
	for _, nb := range got {
		if nb.ID == victim {
			t.Errorf("search returned the deleted node")
		}
	}
	// Deleting again is an idempotent no-op that still advances the
	// sequence.
	res2, err := o.Delete(victim)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Seq != res.Seq+1 {
		t.Errorf("second delete seq = %d, want %d", res2.Seq, res.Seq+1)
	}
	if o.Snapshot().Live != len(fps)-1 {
		t.Errorf("double delete changed live count")
	}
}

// TestOnlineOverwriteMovesNode: overwriting a node with a far-away
// fingerprint must rewire its neighborhood to the new location, and
// overwriting a tombstoned node revives it.
func TestOnlineOverwriteMovesNode(t *testing.T) {
	fps := onlineFixture(t, 0.04, 13)
	const k = 8
	o := newEmptyOnline(t, k)
	for _, fp := range fps[:len(fps)-1] {
		o.Insert(fp)
	}
	moved := int32(3)
	target := fps[len(fps)-1] // held out: the "new profile"
	if _, err := o.Overwrite(moved, target); err != nil {
		t.Fatal(err)
	}
	s := o.Snapshot()
	if s.Dead(moved) {
		t.Fatal("overwrite tombstoned the node")
	}
	// The rewired list must match a brute-force scan with the new
	// fingerprint (tie-tolerant: compare similarity sequences).
	var want []Neighbor
	for v := 0; v < s.NumNodes(); v++ {
		if int32(v) == moved || s.Dead(int32(v)) {
			continue
		}
		want = append(want, Neighbor{ID: int32(v), Sim: core.Jaccard(target, fps[v])})
	}
	sortNeighborsRanked(want)
	got := s.Neighbors(moved)
	if len(got) != min(k, len(want)) {
		t.Fatalf("moved node has %d neighbors, want %d", len(got), min(k, len(want)))
	}
	for i := range got {
		if got[i].Sim != want[i].Sim {
			t.Errorf("rank %d: sim %g, brute force says %g", i, got[i].Sim, want[i].Sim)
		}
	}

	// Revive: delete, then overwrite brings it back.
	if _, err := o.Delete(moved); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Overwrite(moved, fps[moved]); err != nil {
		t.Fatal(err)
	}
	s = o.Snapshot()
	if s.Dead(moved) || s.Live != len(fps)-1 {
		t.Errorf("revive failed: dead=%v live=%d", s.Dead(moved), s.Live)
	}
	if len(s.Neighbors(moved)) == 0 {
		t.Errorf("revived node has no neighbors")
	}
}

func sortNeighborsRanked(nbrs []Neighbor) {
	for i := 1; i < len(nbrs); i++ {
		for j := i; j > 0 && ranksAbove(nbrs[j], nbrs[j-1]); j-- {
			nbrs[j], nbrs[j-1] = nbrs[j-1], nbrs[j]
		}
	}
}

// TestOnlineErrors: out-of-range mutations are rejected without touching
// state.
func TestOnlineErrors(t *testing.T) {
	if _, err := NewOnline(nil, nil, nil, nil, 5, 0); err == nil {
		t.Error("NewOnline accepted a nil graph")
	}
	if _, err := NewOnline(&Graph{K: 5}, nil, nil, nil, 0, 0); err == nil {
		t.Error("NewOnline accepted k=0")
	}
	if _, err := NewOnline(&Graph{K: 5, Neighbors: make([][]Neighbor, 3)}, nil, nil, nil, 5, 0); err == nil {
		t.Error("NewOnline accepted a fingerprint/node count mismatch")
	}
	o := newEmptyOnline(t, 5)
	o.Insert(core.MustScheme(64, 1).Fingerprint(nil))
	seq := o.Snapshot().Seq
	if _, err := o.Delete(5); err == nil {
		t.Error("Delete accepted an out-of-range id")
	}
	if _, err := o.Overwrite(-1, core.Fingerprint{}); err == nil {
		t.Error("Overwrite accepted a negative id")
	}
	if got := o.Snapshot().Seq; got != seq {
		t.Errorf("failed mutations advanced seq %d → %d", seq, got)
	}
}

// TestOnlineDeterminism: the same mutation sequence applied twice yields
// byte-identical graphs — the property the durable delta replay leans on.
func TestOnlineDeterminism(t *testing.T) {
	fps := onlineFixture(t, 0.04, 17)
	run := func() *OnlineSnapshot {
		o := newEmptyOnline(t, 8)
		rng := rand.New(rand.NewSource(99))
		for i, fp := range fps {
			o.Insert(fp)
			if i > 20 && rng.Intn(4) == 0 {
				id := int32(rng.Intn(i))
				switch rng.Intn(2) {
				case 0:
					o.Delete(id)
				case 1:
					o.Overwrite(id, fps[rng.Intn(len(fps))])
				}
			}
		}
		return o.Snapshot()
	}
	a, b := run(), run()
	if a.Seq != b.Seq || a.Live != b.Live {
		t.Fatalf("runs diverged: seq %d/%d live %d/%d", a.Seq, b.Seq, a.Live, b.Live)
	}
	if !reflect.DeepEqual(a.Graph(), b.Graph()) {
		t.Error("KNN graphs diverged across identical runs")
	}
	if !reflect.DeepEqual(a.Nav(), b.Nav()) {
		t.Error("navigable graphs diverged across identical runs")
	}
}

// TestOnlineTouchedReplayReconstructsGraph: applying each mutation's
// Touched set to a shadow graph must reproduce the online KNN graph
// exactly — the invariant that makes the graph-delta WAL a faithful warm
// recovery.
func TestOnlineTouchedReplayReconstructsGraph(t *testing.T) {
	fps := onlineFixture(t, 0.04, 19)
	const k = 8
	o := newEmptyOnline(t, k)
	shadow := &Graph{K: k}
	apply := func(res MutationResult) {
		t.Helper()
		if err := ApplyTouched(shadow, res.Touched); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for i, fp := range fps {
		_, res := o.Insert(fp)
		apply(res)
		if i > 10 && rng.Intn(3) == 0 {
			id := int32(rng.Intn(i))
			var err error
			if rng.Intn(2) == 0 {
				res, err = o.Delete(id)
			} else {
				res, err = o.Overwrite(id, fps[rng.Intn(len(fps))])
			}
			if err != nil {
				t.Fatal(err)
			}
			apply(res)
		}
	}
	final := o.Snapshot().Graph()
	if !reflect.DeepEqual(shadow, final) {
		for u := range final.Neighbors {
			if !reflect.DeepEqual(shadow.Neighbors[u], final.Neighbors[u]) {
				t.Fatalf("node %d: replay %v, live %v", u, shadow.Neighbors[u], final.Neighbors[u])
			}
		}
		t.Fatal("replayed graph differs from live graph")
	}
}

// TestApplyTouchedRejectsInvalid: the replay half must reject deltas that
// would corrupt the graph.
func TestApplyTouchedRejectsInvalid(t *testing.T) {
	g := &Graph{K: 2, Neighbors: [][]Neighbor{{{ID: 1, Sim: 1}}, {{ID: 0, Sim: 1}}}}
	cases := map[string][]TouchedNode{
		"node gap":          {{ID: 5}},
		"negative node":     {{ID: -1}},
		"neighbor range":    {{ID: 0, Neighbors: []Neighbor{{ID: 9, Sim: 0.5}}}},
		"self loop":         {{ID: 1, Neighbors: []Neighbor{{ID: 1, Sim: 1}}}},
		"grown then beyond": {{ID: 2, Neighbors: []Neighbor{{ID: 3, Sim: 0.5}}}},
	}
	for name, touched := range cases {
		if err := ApplyTouched(&Graph{K: 2, Neighbors: append([][]Neighbor(nil), g.Neighbors...)}, touched); err == nil {
			t.Errorf("%s: ApplyTouched accepted invalid delta", name)
		}
	}
	// Growth by exactly one node is the legal insert shape.
	gg := &Graph{K: 2, Neighbors: append([][]Neighbor(nil), g.Neighbors...)}
	if err := ApplyTouched(gg, []TouchedNode{{ID: 2, Neighbors: []Neighbor{{ID: 0, Sim: 0.5}}}}); err != nil {
		t.Fatal(err)
	}
	if len(gg.Neighbors) != 3 {
		t.Errorf("insert delta grew graph to %d nodes, want 3", len(gg.Neighbors))
	}
}

// TestOnlineSnapshotImmutableUnderMutations: concurrent readers hold old
// snapshots while a thousand mutations continue; the copy-on-write pages
// mean the race detector stays quiet, and a snapshot still equals the deep
// copy taken when it was loaded — adjacency, navigable lists and
// tombstones.
func TestOnlineSnapshotImmutableUnderMutations(t *testing.T) {
	fps := onlineFixture(t, 0.04, 23)
	const k = 8
	o := newEmptyOnline(t, k)
	half := len(fps) / 2
	for _, fp := range fps[:half] {
		o.Insert(fp)
	}
	frozen := o.Snapshot()
	frozenSeq := frozen.Seq
	wantGraph, wantNav, wantDead := deepCopyGraph(frozen.Graph()), deepCopyGraph(frozen.Nav()), frozen.DeadFlags()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := o.Snapshot()
				// Any deterministic score will do: the search is here to read
				// the snapshot's pages, not to find anything.
				oracle := OracleFunc(func(v int32) float64 { return core.Jaccard(fps[r], fps[int(v)%len(fps)]) })
				if _, _, err := s.Search(oracle, k, SearchOptions{
					Exclude: func(v int32) bool { return s.Dead(v) },
				}); err != nil {
					t.Error(err)
					return
				}
				// The held snapshot is read while the writer copies and
				// rewrites the pages it came from.
				if frozen.Dead(int32(r)) != wantDead[r] || len(frozen.Neighbors(int32(r))) != len(wantGraph.Neighbors[r]) {
					t.Error("held snapshot changed under a reader")
					return
				}
			}
		}(r)
	}
	rng := rand.New(rand.NewSource(31))
	for m := 0; m < 1000; m++ {
		switch fp := fps[rng.Intn(len(fps))]; rng.Intn(3) {
		case 0:
			o.Insert(fp)
		case 1:
			o.Delete(int32(rng.Intn(half)))
		default:
			if _, err := o.Overwrite(int32(rng.Intn(half)), fp); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()

	if got := o.Snapshot().Seq; got != frozenSeq+1000 {
		t.Fatalf("maintainer at seq %d after 1000 mutations from %d", got, frozenSeq)
	}
	if frozen.Seq != frozenSeq || frozen.NumNodes() != half {
		t.Errorf("held snapshot moved: seq %d, %d nodes", frozen.Seq, frozen.NumNodes())
	}
	if !reflect.DeepEqual(frozen.Graph(), wantGraph) {
		t.Error("held snapshot's KNN lists differ from the deep copy taken at the same Seq")
	}
	if !reflect.DeepEqual(frozen.Nav(), wantNav) {
		t.Error("held snapshot's navigable lists differ from the deep copy taken at the same Seq")
	}
	if !reflect.DeepEqual(frozen.DeadFlags(), wantDead) {
		t.Error("held snapshot's tombstones differ from the copy taken at the same Seq")
	}
}

// deepCopyGraph copies g down to the neighbor entries.
func deepCopyGraph(g *Graph) *Graph {
	out := &Graph{K: g.K, Neighbors: make([][]Neighbor, len(g.Neighbors))}
	for u, nbrs := range g.Neighbors {
		out.Neighbors[u] = slices.Clone(nbrs)
	}
	return out
}

// TestOnlineMutationAllocScaling: the bytes a mutation and the snapshot
// after it allocate must not grow with the graph — publication copies the
// pages the mutation touched and the page tables, not the top-level
// arrays. At 8x the nodes the budget is 1.5x the bytes (the tables are
// n/64 slice headers; everything else is the touched neighborhood).
func TestOnlineMutationAllocScaling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation volume is not meaningful under -race")
	}
	const k = 10
	perMutation := func(n int) float64 {
		profiles := clusteredProfiles(n, 300, 41)
		scheme := core.MustScheme(1024, 41)
		fps := scheme.FingerprintAll(profiles)
		provider := NewPackedSHFProvider(scheme.PackProfiles(profiles[:n], 0))
		g, _ := ClusterConquer(provider, k, Options{Seed: 41})
		o, err := NewOnline(g, g.Navigable(provider), fps[:n:n], nil, k, 0)
		if err != nil {
			t.Fatal(err)
		}
		run := func(from, to int) {
			for m := from; m < to; m++ {
				switch m % 3 {
				case 0:
					o.Insert(fps[n+m])
				case 1:
					if _, err := o.Overwrite(int32(m*37%n), fps[n+m]); err != nil {
						t.Fatal(err)
					}
				default:
					if _, err := o.Delete(int32(m*53%n + 1)); err != nil {
						t.Fatal(err)
					}
				}
				o.Snapshot()
			}
		}
		// Warm the pooled O(n) search scratch, then hold GC off: a collection
		// empties sync.Pool and would charge the scratch to the mutations.
		run(0, 60)
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(60, 300)
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / 240
	}
	small, large := perMutation(5000), perMutation(40000)
	t.Logf("bytes per mutation+snapshot: %.0f at n=5k, %.0f at n=40k (x%.2f)", small, large, large/small)
	if large > 1.5*small {
		t.Errorf("a mutation allocates %.0f B at n=40k against %.0f B at n=5k: publication cost grows with n", large, small)
	}
}
