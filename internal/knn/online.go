package knn

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"goldfinger/internal/core"
	"goldfinger/internal/cow"
)

// This file implements online KNN graph maintenance: mutations (insert,
// overwrite, delete) become visible in the served graph immediately, with
// cost proportional to the touched neighborhood instead of a rebuild —
// the approach of Debatty et al., "Fast Online k-nn Graph Building"
// (arXiv:1602.06819), adapted to the SHF setting where a profile event
// changes one fingerprint bit and similarity is a cheap popcount.
//
// An insert runs GraphSearch over the current navigable adjacency to find
// the new user's neighbors, then propagates reverse edges through the
// discovered neighborhood (the neighbors-of-neighbors locality the batch
// builders already exploit). A delete tombstones the node and lazily
// repairs only the neighborhoods that pointed at it; an overwrite is a
// detach + reconnect at the same index. Readers see immutable snapshots,
// published eagerly: the adjacency lists and tombstones live in paged
// copy-on-write vectors (internal/cow), a mutation copies only the pages
// holding the lists it rewrites, and its last step publishes the three
// page tables as the next snapshot — so both the mutation and the
// publication cost stay proportional to the touched neighborhood, and
// Snapshot is one atomic load.

// node is one graph node's adjacency, stored by value in the node pages so
// a reader reaches a list through the same two loads a flat neighbor table
// costs. The lists themselves are immutable once stored.
type node struct {
	adj []Neighbor // KNN list, sorted by (sim desc, id asc), len ≤ k
	nav []Neighbor // navigable list, sorted best-first, len ≤ maxDeg(+slack)
}

// Page sizes. A mutation rewrites about a hundred nodes scattered over the
// graph, so it copies about one node page per rewritten node plus the
// table: 32 nodes (1.5 KB) a page balance the two near 200 KB at n = 100k,
// where corpus-sized pages would copy many times as much. Tombstone flags
// are a byte each, change one at a time and are read once per scored node:
// 1024 a page keep their table a few cache lines.
const (
	nodeShift = 5
	deadShift = 10
)

// OnlineSnapshot is one immutable published state of an Online maintainer,
// safe for concurrent use.
type OnlineSnapshot struct {
	k     int
	nodes cow.View[node]
	dead  cow.View[bool]
	// Seq is the mutation sequence number this snapshot reflects.
	Seq uint64
	// Live is the number of non-tombstoned nodes.
	Live int
}

// NumNodes returns the total node count, tombstones included.
func (s *OnlineSnapshot) NumNodes() int { return s.nodes.Len() }

// Neighbors returns node v's current KNN list. Tombstoned nodes have empty
// lists, and live lists may still carry edges to tombstoned nodes (stale
// in-edges are purged lazily) — readers filter with Dead. Read-only.
func (s *OnlineSnapshot) Neighbors(v int32) []Neighbor { return s.nodes.At(int(v)).adj }

// Dead reports whether node v is tombstoned.
func (s *OnlineSnapshot) Dead(v int32) bool { return s.dead.At(int(v)) }

// Search is GraphSearch over the snapshot's incrementally-maintained
// navigable adjacency (mirrored, diversity-pruned, degree-capped).
func (s *OnlineSnapshot) Search(oracle SearchOracle, k int, opts SearchOptions) ([]Neighbor, SearchStats, error) {
	return graphSearch(pagedAdjacency{&s.nodes}, oracle, k, opts)
}

// Graph copies the snapshot's directed KNN graph into a flat Graph — O(n)
// list headers, for persistence and offline evaluation, not for serving.
func (s *OnlineSnapshot) Graph() *Graph {
	return s.flatten(func(n node) []Neighbor { return n.adj })
}

// Nav is Graph for the navigable adjacency.
func (s *OnlineSnapshot) Nav() *Graph {
	return s.flatten(func(n node) []Neighbor { return n.nav })
}

func (s *OnlineSnapshot) flatten(list func(node) []Neighbor) *Graph {
	g := &Graph{K: s.k, Neighbors: make([][]Neighbor, s.nodes.Len())}
	for v := range g.Neighbors {
		g.Neighbors[v] = list(s.nodes.At(v))
	}
	return g
}

// DeadFlags copies the tombstone flags into a flat slice.
func (s *OnlineSnapshot) DeadFlags() []bool {
	return s.dead.Flat()
}

// TouchedNode reports the full post-mutation KNN adjacency of one node a
// mutation modified — the unit the durable graph-delta WAL records
// persist, chosen so replay is verbatim assignment (no re-scoring, no
// divergence between a warm recovery and a cold replay).
type TouchedNode struct {
	ID        int32
	Neighbors []Neighbor
}

// MutationResult describes one applied mutation.
type MutationResult struct {
	// Seq is the maintainer's sequence number after the mutation.
	Seq uint64
	// Comparisons is the number of similarity computations spent.
	Comparisons int
	// Touched holds the new KNN adjacency of every modified node, the
	// mutated node first. Slices are shared with the maintainer's
	// immutable state: read-only.
	Touched []TouchedNode
}

// Online maintains a KNN graph under live mutations. All mutations
// serialize on an internal lock and end by publishing the next snapshot;
// Snapshot is one atomic load. The maintainer is fully deterministic: the
// same initial state and mutation sequence always produce the same graph.
type Online struct {
	k      int
	maxDeg int

	mu    sync.Mutex
	fps   []core.Fingerprint
	nodes *cow.Vec[node]
	dead  *cow.Vec[bool]
	live  int
	seq   uint64 // mutation sequence number of the state under mu

	snap atomic.Pointer[OnlineSnapshot]
}

// navSlack is how far a navigable list may overshoot maxDeg before the
// diversity prune re-runs: pruning on every reverse append would make hub
// updates quadratic, pruning with slack amortizes it.
const navSlack = 16

// onlineMaxDegree mirrors Navigable's degree cap.
func onlineMaxDegree(k int) int { return max(64, 4*k) }

// NewOnline wraps an existing graph (typically a fresh batch build or a
// recovered epoch) in an online maintainer. nav must be g.Navigable(...)
// (or nil to compute it here from the fingerprints); dead marks already-
// tombstoned nodes (nil means none); fps must hold one fingerprint per
// node; seq seeds the mutation sequence. The maintainer takes ownership of
// the fps slice; the per-node neighbor slices are shared and never mutated
// in place.
func NewOnline(g, nav *Graph, fps []core.Fingerprint, dead []bool, k int, seq uint64) (*Online, error) {
	if k <= 0 {
		return nil, fmt.Errorf("knn: online k must be positive, got %d", k)
	}
	if g == nil {
		return nil, fmt.Errorf("knn: online needs an initial graph")
	}
	n := len(g.Neighbors)
	if len(fps) != n {
		return nil, fmt.Errorf("knn: online has %d nodes but %d fingerprints", n, len(fps))
	}
	if dead == nil {
		dead = make([]bool, n)
	}
	if len(dead) != n {
		return nil, fmt.Errorf("knn: online has %d nodes but %d tombstone flags", n, len(dead))
	}
	if nav == nil {
		nav = g.Navigable(&SHFProvider{Fingerprints: fps})
	}
	if len(nav.Neighbors) != n {
		return nil, fmt.Errorf("knn: navigable graph has %d nodes, base graph %d", len(nav.Neighbors), n)
	}
	o := &Online{
		k:      k,
		maxDeg: onlineMaxDegree(k),
		fps:    fps,
		nodes:  cow.New[node](nodeShift, 1),
		dead:   cow.FromSlice(deadShift, dead),
		seq:    seq,
	}
	o.nodes.Grow(n)
	for v := 0; v < n; v++ {
		o.nodes.Set(v, node{adj: g.Neighbors[v], nav: nav.Neighbors[v]})
	}
	for _, d := range dead {
		if !d {
			o.live++
		}
	}
	o.publish()
	return o, nil
}

// Snapshot returns the state as of the last completed mutation. The
// per-node slices are immutable by discipline (every mutation allocates
// fresh lists for the nodes it changes) and the pages holding them are
// copied before the maintainer writes to them again, so a snapshot never
// changes under its reader.
func (o *Online) Snapshot() *OnlineSnapshot { return o.snap.Load() }

// publish makes the state under mu the current snapshot — the last step of
// every mutation, after all state writes.
func (o *Online) publish() {
	o.snap.Store(&OnlineSnapshot{
		k:     o.k,
		nodes: o.nodes.Publish(),
		dead:  o.dead.Publish(),
		Seq:   o.seq,
		Live:  o.live,
	})
}

// commit numbers and publishes a finished mutation.
func (o *Online) commit(res *MutationResult) {
	o.seq++
	res.Seq = o.seq
	o.publish()
}

// sim estimates the similarity of two current nodes.
func (o *Online) sim(u, v int32) float64 {
	return core.Jaccard(o.fps[u], o.fps[v])
}

// adjOf, navOf and isDead read the state under mu; setAdj and setNav
// store a new list for node v.
func (o *Online) adjOf(v int32) []Neighbor { return o.nodes.At(int(v)).adj }
func (o *Online) navOf(v int32) []Neighbor { return o.nodes.At(int(v)).nav }
func (o *Online) isDead(v int32) bool      { return o.dead.At(int(v)) }

func (o *Online) setAdj(v int32, adj []Neighbor) { o.nodes.Mut(int(v))[0].adj = adj }
func (o *Online) setNav(v int32, nav []Neighbor) { o.nodes.Mut(int(v))[0].nav = nav }

// Insert adds a new node with the given fingerprint and connects it: a
// graph search over the navigable adjacency finds its neighbors, then
// reverse edges propagate through the discovered neighborhood. Returns the
// new node's index (always the current node count — indices are
// append-only and align with the caller's user table).
func (o *Online) Insert(fp core.Fingerprint) (int32, MutationResult) {
	o.mu.Lock()
	defer o.mu.Unlock()
	u := int32(len(o.fps))
	o.fps = append(o.fps, fp)
	o.nodes.Append(node{})
	o.dead.Append(false)
	o.live++
	res := o.connect(u)
	o.commit(&res)
	return u, res
}

// Overwrite replaces node id's fingerprint and rewires its neighborhood:
// the node is detached from the graph (its out-edges dropped, holders of
// the edges repaired) and reconnected from a fresh search, exactly as an
// insert at its existing index. Overwriting a tombstoned node revives it.
func (o *Online) Overwrite(id int32, fp core.Fingerprint) (MutationResult, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if int(id) < 0 || int(id) >= len(o.fps) {
		return MutationResult{}, fmt.Errorf("knn: overwrite of node %d out of range [0,%d)", id, len(o.fps))
	}
	touched := newTouchSet()
	var comparisons int
	if o.isDead(id) {
		o.dead.Set(int(id), false)
		o.live++
	} else {
		// Tombstone for the duration of the detach so the repairs it
		// triggers cannot re-adopt the node at its stale position.
		o.dead.Set(int(id), true)
		comparisons += o.detach(id, touched)
		o.dead.Set(int(id), false)
	}
	o.fps[id] = fp
	res := o.connect(id)
	res.Comparisons += comparisons
	// connect's touched set already leads with id; fold in the detach
	// repairs it did not re-touch.
	res.Touched = mergeTouched(res.Touched, touched.emit(o, -1))
	o.commit(&res)
	return res, nil
}

// Delete tombstones node id: its out-edges are dropped, every neighborhood
// that pointed at it through them is repaired, and searches stop returning
// it immediately (stale in-edges from nodes outside its adjacency are
// purged lazily as those nodes are touched). Deleting a tombstoned node is
// a no-op mutation (the sequence still advances, so callers stay aligned).
func (o *Online) Delete(id int32) (MutationResult, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if int(id) < 0 || int(id) >= len(o.fps) {
		return MutationResult{}, fmt.Errorf("knn: delete of node %d out of range [0,%d)", id, len(o.fps))
	}
	var res MutationResult
	touched := newTouchSet()
	touched.mark(id)
	if !o.isDead(id) {
		// Tombstone first: the repairs detach triggers must not re-adopt
		// the node they are being repaired around.
		o.dead.Set(int(id), true)
		o.live--
		res.Comparisons += o.detach(id, touched)
	}
	res.Touched = touched.emit(o, id)
	o.commit(&res)
	return res, nil
}

// connect wires node u (whose adjacency must be empty) into the graph and
// returns the mutation result with u's touched set, u first.
func (o *Online) connect(u int32) MutationResult {
	touched := newTouchSet()
	touched.mark(u)
	cands, comparisons := o.candidates(u)

	// u's KNN list: the best k candidates. cands is sorted best-first.
	kn := min(o.k, len(cands))
	// u's navigable list: a diverse selection of up to maxDeg candidates.
	kept, c := o.diversePrune(cands, o.maxDeg)
	comparisons += c
	o.nodes.Set(int(u), node{adj: append([]Neighbor(nil), cands[:kn]...), nav: kept})

	// Reverse propagation through the discovered neighborhood: every kept
	// neighbor learns about u — its KNN list if u qualifies, its navigable
	// list for future searches.
	for _, nb := range kept {
		v := nb.ID
		if next, changed := o.insertRanked(o.adjOf(v), Neighbor{ID: u, Sim: nb.Sim}, o.k); changed {
			o.setAdj(v, next)
			touched.mark(v)
		}
		nn := cloneWithout(o.navOf(v), u)
		nn = append(nn, Neighbor{ID: u, Sim: nb.Sim})
		if len(nn) > o.maxDeg+navSlack {
			slices.SortFunc(nn, compareRank)
			nn, c = o.diversePrune(nn, o.maxDeg)
			comparisons += c
		}
		o.setNav(v, nn)
	}
	return MutationResult{Comparisons: comparisons, Touched: touched.emit(o, u)}
}

// candidates finds the connection candidates for node u, sorted
// best-first: a full scan of the live nodes while the graph is small, a
// graph search over the navigable adjacency once it is not.
func (o *Online) candidates(u int32) ([]Neighbor, int) {
	if o.live-1 <= 2*o.maxDeg {
		var cands []Neighbor
		comparisons := 0
		for v := int32(0); int(v) < len(o.fps); v++ {
			if v == u || o.isDead(v) {
				continue
			}
			cands = append(cands, Neighbor{ID: v, Sim: o.sim(u, v)})
			comparisons++
		}
		slices.SortFunc(cands, compareRank)
		return cands, comparisons
	}
	oracle := OracleFunc(func(v int32) float64 { return o.sim(u, v) })
	// Overfetch past the degree cap so the diversity prune has rejected
	// candidates to refill from instead of keeping the top-maxDeg verbatim.
	// Beam of 4×maxDeg: wide enough that the prune has real choice, far
	// cheaper than GraphSearch's query default of 16×k — an insert runs
	// on the write path, where latency is the budget.
	cands, stats, _ := graphSearch(pagedAdjacency{&o.nodes.View}, oracle, o.maxDeg+o.maxDeg/2, SearchOptions{
		Ef:      4 * o.maxDeg,
		Exclude: func(v int32) bool { return v == u || o.isDead(v) },
	})
	return cands, stats.Scored
}

// detach removes node id's out-edges and repairs every neighborhood those
// edges made aware of id. The caller updates tombstone state.
func (o *Online) detach(id int32, touched *touchSet) int {
	holders := neighborIDs(o.adjOf(id), o.navOf(id), id)
	o.nodes.Set(int(id), node{})
	touched.mark(id)

	comparisons := 0
	var short []int32
	for _, v := range holders {
		if o.isDead(v) {
			continue
		}
		if next, changed := removeRanked(o.adjOf(v), id); changed {
			o.setAdj(v, next)
			touched.mark(v)
			if len(next) < o.k {
				short = append(short, v)
			}
		}
		if next, changed := removeRanked(o.navOf(v), id); changed {
			o.setNav(v, next)
		}
	}
	for _, v := range short {
		comparisons += o.repair(v, touched)
	}
	return comparisons
}

// repair rebuilds node v's KNN list from its live two-hop neighborhood —
// the lazy local repair a delete triggers on the neighborhoods it
// shortened. New edges also refresh v's navigable list.
func (o *Online) repair(v int32, touched *touchSet) int {
	seen := map[int32]bool{v: true}
	var ids []int32
	add := func(w int32) {
		if !seen[w] && !o.isDead(w) {
			seen[w] = true
			ids = append(ids, w)
		}
	}
	for _, nb := range o.adjOf(v) {
		add(nb.ID)
	}
	for _, nb := range o.navOf(v) {
		add(nb.ID)
	}
	// Second hop expands through KNN lists only: the navigable lists are
	// 4-6x wider, and repairing through them makes a delete storm
	// quadratic in the degree cap for marginal quality.
	for _, w := range append([]int32(nil), ids...) {
		for _, nb := range o.adjOf(w) {
			add(nb.ID)
		}
	}
	slices.Sort(ids)

	cands := make([]Neighbor, 0, len(ids))
	for _, w := range ids {
		cands = append(cands, Neighbor{ID: w, Sim: o.sim(v, w)})
	}
	slices.SortFunc(cands, compareRank)
	kn := min(o.k, len(cands))
	o.setAdj(v, append([]Neighbor(nil), cands[:kn]...))
	touched.mark(v)

	// Newly discovered edges serve navigation too.
	nn := o.navOf(v)
	for _, nb := range o.adjOf(v) {
		if !containsID(nn, nb.ID) {
			nn = append(cloneWithout(nn, -1), nb)
		}
	}
	if len(nn) > o.maxDeg+navSlack {
		slices.SortFunc(nn, compareRank)
		nn, _ = o.diversePrune(nn, o.maxDeg)
	}
	o.setNav(v, nn)
	return len(cands)
}

// diversePrune reduces a best-first sorted candidate list to at most cap
// entries with the HNSW/Vamana diversity heuristic Navigable uses: an edge
// is kept only if its endpoint is closer to the node than to every
// already-kept neighbor; remaining capacity refills with the best
// rejected. Returns the kept list (fresh allocation, sorted best-first)
// and the comparisons spent.
func (o *Online) diversePrune(cands []Neighbor, cap int) ([]Neighbor, int) {
	if len(cands) <= cap {
		return append([]Neighbor(nil), cands...), 0
	}
	comparisons := 0
	kept := make([]Neighbor, 0, cap)
	var rejected []Neighbor
	for _, nb := range cands {
		if len(kept) == cap {
			break
		}
		diverse := true
		for _, w := range kept {
			comparisons++
			if o.sim(nb.ID, w.ID) > nb.Sim {
				diverse = false
				break
			}
		}
		if diverse {
			kept = append(kept, nb)
		} else {
			rejected = append(rejected, nb)
		}
	}
	for _, nb := range rejected {
		if len(kept) == cap {
			break
		}
		kept = append(kept, nb)
	}
	slices.SortFunc(kept, compareRank)
	return kept, comparisons
}

// insertRanked returns nbrs with nb inserted in rank order (replacing any
// existing entry for the same ID, purging tombstoned entries, trimming to
// k) as a fresh slice, and whether the list changed. The input is never
// mutated.
func (o *Online) insertRanked(nbrs []Neighbor, nb Neighbor, k int) ([]Neighbor, bool) {
	out := make([]Neighbor, 0, min(len(nbrs)+1, k))
	inserted := false
	changed := false
	push := func(e Neighbor) {
		if len(out) < k {
			out = append(out, e)
		}
	}
	for _, e := range nbrs {
		if e.ID == nb.ID || o.isDead(e.ID) {
			changed = true // replaced or purged
			continue
		}
		if !inserted && ranksAbove(nb, e) {
			push(nb)
			inserted = true
		}
		push(e)
	}
	if !inserted && len(out) < k {
		push(nb)
		inserted = true
	}
	if !inserted && !changed {
		return nbrs, false
	}
	if !inserted {
		// Purges made room behind nb's rank — retry once on the purged list.
		return o.insertRanked(out, nb, k)
	}
	if len(out) == len(nbrs) && !changed {
		// Same length and nothing purged: changed only if nb is new or its
		// similarity moved.
		for i := range out {
			if out[i] != nbrs[i] {
				return out, true
			}
		}
		return nbrs, false
	}
	return out, true
}

// removeRanked returns nbrs without id (fresh slice) and whether it was
// present. The input is never mutated.
func removeRanked(nbrs []Neighbor, id int32) ([]Neighbor, bool) {
	if !containsID(nbrs, id) {
		return nbrs, false
	}
	out := make([]Neighbor, 0, len(nbrs)-1)
	for _, e := range nbrs {
		if e.ID != id {
			out = append(out, e)
		}
	}
	return out, true
}

func containsID(nbrs []Neighbor, id int32) bool {
	for _, e := range nbrs {
		if e.ID == id {
			return true
		}
	}
	return false
}

// cloneWithout copies nbrs into a fresh slice, skipping id (pass -1 to
// skip nothing). Mutations append to the clone, never to a published
// slice's backing array.
func cloneWithout(nbrs []Neighbor, id int32) []Neighbor {
	out := make([]Neighbor, 0, len(nbrs)+1)
	for _, e := range nbrs {
		if e.ID != id {
			out = append(out, e)
		}
	}
	return out
}

// neighborIDs returns the deduplicated, sorted union of the IDs in both
// adjacency lists, excluding self.
func neighborIDs(a, b []Neighbor, self int32) []int32 {
	seen := make(map[int32]bool, len(a)+len(b))
	out := make([]int32, 0, len(a)+len(b))
	for _, list := range [2][]Neighbor{a, b} {
		for _, e := range list {
			if e.ID != self && !seen[e.ID] {
				seen[e.ID] = true
				out = append(out, e.ID)
			}
		}
	}
	slices.Sort(out)
	return out
}

// touchSet accumulates the nodes a mutation modified, in deterministic
// order.
type touchSet struct {
	seen map[int32]bool
	ids  []int32
}

func newTouchSet() *touchSet { return &touchSet{seen: map[int32]bool{}} }

func (t *touchSet) mark(id int32) {
	if !t.seen[id] {
		t.seen[id] = true
		t.ids = append(t.ids, id)
	}
}

// emit materializes the touched set with current adjacencies, `first`
// leading (pass -1 for plain sorted order). The remaining IDs are sorted
// so the emitted order — and with it the delta WAL byte stream — is
// deterministic.
func (t *touchSet) emit(o *Online, first int32) []TouchedNode {
	rest := make([]int32, 0, len(t.ids))
	for _, id := range t.ids {
		if id != first {
			rest = append(rest, id)
		}
	}
	slices.Sort(rest)
	out := make([]TouchedNode, 0, len(rest)+1)
	if first >= 0 && t.seen[first] {
		out = append(out, TouchedNode{ID: first, Neighbors: o.adjOf(first)})
	}
	for _, id := range rest {
		out = append(out, TouchedNode{ID: id, Neighbors: o.adjOf(id)})
	}
	return out
}

// mergeTouched folds extra touched nodes into base, keeping base's order
// and entries (they are newer) and appending entries for nodes base does
// not cover.
func mergeTouched(base, extra []TouchedNode) []TouchedNode {
	seen := make(map[int32]bool, len(base))
	for _, tn := range base {
		seen[tn.ID] = true
	}
	for _, tn := range extra {
		if !seen[tn.ID] {
			base = append(base, tn)
		}
	}
	return base
}

// ApplyTouched sets the graph's adjacency verbatim from a touched-node
// list — the replay half of the delta protocol. An ID equal to the current
// node count grows the graph by one node; IDs beyond that are rejected
// (deltas apply in mutation order, so growth is one node at a time).
// Neighbor entries must reference existing or just-grown nodes.
func ApplyTouched(g *Graph, touched []TouchedNode) error {
	for _, tn := range touched {
		n := len(g.Neighbors)
		switch {
		case int(tn.ID) < 0 || int(tn.ID) > n:
			return fmt.Errorf("knn: touched node %d out of range [0,%d]", tn.ID, n)
		case int(tn.ID) == n:
			g.Neighbors = append(g.Neighbors, nil)
			n++
		}
		for _, nb := range tn.Neighbors {
			if int(nb.ID) < 0 || int(nb.ID) >= n {
				return fmt.Errorf("knn: touched node %d references node %d out of range [0,%d)", tn.ID, nb.ID, n)
			}
			if nb.ID == tn.ID {
				return fmt.Errorf("knn: touched node %d has a self-loop", tn.ID)
			}
		}
		g.Neighbors[tn.ID] = tn.Neighbors
	}
	return nil
}
