package knn

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// Neighbor is one directed KNN edge endpoint: a user index and the
// similarity under which it was selected.
type Neighbor struct {
	ID  int32
	Sim float64
}

// Graph is a directed KNN graph: every user points to (at most) K
// neighbors. Neighbor lists are kept sorted by decreasing similarity.
type Graph struct {
	K         int
	Neighbors [][]Neighbor
}

// NumUsers returns the number of nodes.
func (g *Graph) NumUsers() int { return len(g.Neighbors) }

// NumEdges returns the total number of directed edges.
func (g *Graph) NumEdges() int {
	n := 0
	for _, nb := range g.Neighbors {
		n += len(nb)
	}
	return n
}

// AvgSimilarity returns the average, over all edges, of the similarity
// assigned by sim — paper Eq. 2 when sim is the exact similarity. It
// recomputes similarities rather than trusting the stored ones so that
// approximate graphs are judged against ground truth.
func (g *Graph) AvgSimilarity(sim Provider) float64 {
	var sum float64
	edges := 0
	for u, nbrs := range g.Neighbors {
		for _, nb := range nbrs {
			sum += sim.Similarity(u, int(nb.ID))
			edges++
		}
	}
	if edges == 0 {
		return 0
	}
	return sum / float64(edges)
}

// Quality returns avg_sim(g) / avg_sim(exact) under the exact similarity
// provider — paper Eq. 3. A value close to 1 means the approximation is as
// good as the exact graph.
//
// Degenerate cases are defined rather than collapsed into an ambiguous 0:
// when the exact average is 0 (an edgeless exact graph, or one whose edges
// all have zero similarity) and g's average is also 0, the two graphs are
// equally good and Quality is 1; when the exact average is 0 but g somehow
// scores above it there is no ground truth to normalize by and Quality is
// NaN — callers must not read that as "worthless graph" (and must guard
// before JSON-encoding, which rejects NaN).
func Quality(g, exact *Graph, sim Provider) float64 {
	num := g.AvgSimilarity(sim)
	denom := exact.AvgSimilarity(sim)
	if denom == 0 {
		if num == 0 {
			return 1
		}
		return math.NaN()
	}
	return num / denom
}

// Recall returns the fraction of exact KNN edges present in g (macro
// average over users with a non-empty exact neighborhood). The paper's
// quality metric (Eq. 3) is the headline measure; recall is the stricter
// set-overlap view.
// The per-user membership test reuses one sorted-ID scratch slice across
// all n users instead of allocating a map per user — the map version's
// O(n) allocation churn was large enough to distort the measurements of
// the very search paths Recall judges (see BenchmarkRecall).
func Recall(g, exact *Graph) float64 {
	var sum float64
	users := 0
	in := make([]int32, 0, g.K) // reusable scratch: g's neighborhood, sorted
	for u := range exact.Neighbors {
		ex := exact.Neighbors[u]
		if len(ex) == 0 {
			continue
		}
		users++
		in = in[:0]
		for _, nb := range g.Neighbors[u] {
			in = append(in, nb.ID)
		}
		slices.Sort(in)
		hits := 0
		for _, nb := range ex {
			if _, found := slices.BinarySearch(in, nb.ID); found {
				hits++
			}
		}
		sum += float64(hits) / float64(len(ex))
	}
	if users == 0 {
		return 0
	}
	return sum / float64(users)
}

// Validate checks structural invariants: no self-loops, no duplicate
// neighbors, at most K entries, similarities sorted decreasingly.
func (g *Graph) Validate() error {
	for u, nbrs := range g.Neighbors {
		if len(nbrs) > g.K {
			return fmt.Errorf("knn: user %d has %d neighbors > K=%d", u, len(nbrs), g.K)
		}
		seen := map[int32]bool{}
		for i, nb := range nbrs {
			if int(nb.ID) == u {
				return fmt.Errorf("knn: user %d has a self-loop", u)
			}
			if seen[nb.ID] {
				return fmt.Errorf("knn: user %d has duplicate neighbor %d", u, nb.ID)
			}
			seen[nb.ID] = true
			if i > 0 && nbrs[i-1].Sim < nb.Sim {
				return fmt.Errorf("knn: user %d neighbors not sorted by similarity", u)
			}
		}
	}
	return nil
}

// neighborhood is the paper builders' shared bounded top-k set (Hyrec,
// NNDescent, LSH, KIFF, bisection, Dynamic and LegacyBruteForce): a mutex
// per user, O(k) insertion with duplicate detection, and ties broken by
// similarity only — an equal-similarity candidate never displaces a kept
// one, so at a tie the kept set depends on arrival order. It is a
// different structure from topkSet, the lock-free strict-order set under
// TopK, BruteForce and Cluster-and-Conquer. (k is 30 in the paper; linear
// scans beat heaps at this size and keep it allocation-free.)
type neighborhood struct {
	mu      sync.Mutex
	entries []Neighbor // unordered
	flags   []bool     // "new" flags for NNDescent
	k       int
}

func newNeighborhood(k int) *neighborhood {
	return &neighborhood{entries: make([]Neighbor, 0, k), flags: make([]bool, 0, k), k: k}
}

// insert adds (id, sim) if it beats the current worst entry and is not
// already present. It returns true when the neighborhood changed.
func (nh *neighborhood) insert(id int32, sim float64) bool {
	nh.mu.Lock()
	defer nh.mu.Unlock()
	worst := 0
	for i, e := range nh.entries {
		if e.ID == id {
			return false
		}
		if e.Sim < nh.entries[worst].Sim {
			worst = i
		}
	}
	if len(nh.entries) < nh.k {
		nh.entries = append(nh.entries, Neighbor{ID: id, Sim: sim})
		nh.flags = append(nh.flags, true)
		return true
	}
	if sim <= nh.entries[worst].Sim {
		return false
	}
	nh.entries[worst] = Neighbor{ID: id, Sim: sim}
	nh.flags[worst] = true
	return true
}

// snapshot copies the current entries without locking order guarantees.
func (nh *neighborhood) snapshot() []Neighbor {
	nh.mu.Lock()
	defer nh.mu.Unlock()
	out := make([]Neighbor, len(nh.entries))
	copy(out, nh.entries)
	return out
}

// snapshotFlags returns entries split into new (flag set) and old, clearing
// the flags — the NNDescent incremental-search bookkeeping.
func (nh *neighborhood) snapshotFlags() (fresh, old []Neighbor) {
	nh.mu.Lock()
	defer nh.mu.Unlock()
	for i, e := range nh.entries {
		if nh.flags[i] {
			fresh = append(fresh, e)
			nh.flags[i] = false
		} else {
			old = append(old, e)
		}
	}
	return fresh, old
}

// finalize sorts the neighborhoods into a Graph.
func finalize(k int, nhs []*neighborhood) *Graph {
	g := &Graph{K: k, Neighbors: make([][]Neighbor, len(nhs))}
	for u, nh := range nhs {
		nbrs := nh.snapshot()
		slices.SortFunc(nbrs, compareRank)
		g.Neighbors[u] = nbrs
	}
	return g
}
