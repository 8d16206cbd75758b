package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"goldfinger/internal/cluster"
	"goldfinger/internal/core"
	"goldfinger/internal/knn"
	"goldfinger/internal/obs"
	"goldfinger/internal/profile"
)

// clusterSeedCount is how many bucket-derived entry points the service
// layers on the default spread for a cluster epoch (service.querySeeds).
const clusterSeedCount = 48

// libGraph is a cluster-and-conquer graph built in-process with the
// library's public functions, exactly as the service builds an epoch.
type libGraph struct {
	packed *core.PackedCorpus
	g, nav *knn.Graph
	asn    *cluster.Assignment
	stats  knn.Stats

	ccS, navS float64
}

// buildLib runs the paper's pipeline over profiles: fingerprint and pack,
// cluster-and-conquer, navigable form.
func buildLib(scheme *core.Scheme, profiles []profile.Profile, k int, seed int64) *libGraph {
	return buildLibPacked(scheme.PackProfiles(profiles, 0), k, seed, nil)
}

// buildLibPacked is buildLib over an already packed corpus; reg, when
// non-nil, receives the builder's phase timings.
func buildLibPacked(packed *core.PackedCorpus, k int, seed int64, reg *obs.Registry) *libGraph {
	lg := &libGraph{packed: packed}
	provider := knn.NewPackedSHFProvider(lg.packed)
	t := time.Now()
	lg.g, lg.asn, lg.stats = knn.ClusterConquerWith(provider, k, knn.Options{Seed: seed, Obs: reg}, knn.ClusterConfig{})
	lg.ccS = time.Since(t).Seconds()
	t = time.Now()
	lg.nav = lg.g.Navigable(provider)
	lg.navS = time.Since(t).Seconds()
	return lg
}

// checkDegree is the gate's structural check: every row has exactly k
// neighbours.
func (lg *libGraph) checkDegree(k int) error {
	want := min(k, lg.g.NumUsers()-1)
	for u, nbrs := range lg.g.Neighbors {
		if len(nbrs) != want {
			return fmt.Errorf("cluster graph row %d has %d neighbours, want %d", u, len(nbrs), want)
		}
	}
	return nil
}

// seeds mirrors the service's entry seeding for cluster epochs.
func (lg *libGraph) seeds(fp core.Fingerprint) []int32 {
	return knn.DefaultSeeds(lg.asn.Seeds(fp.Bits().Words(), clusterSeedCount), lg.nav.NumUsers())
}

// search answers one query the way the service's graph path does.
func (lg *libGraph) search(fp core.Fingerprint, k int) ([]knn.Neighbor, knn.SearchStats) {
	res, st, _ := knn.GraphSearch(lg.nav, lg.packed.NewQueryScorer(fp), k, knn.SearchOptions{Seeds: lg.seeds(fp)})
	return res, st // no Ctx is passed, so GraphSearch cannot return an error
}

// scan answers one query the way the service's scan path does.
func (lg *libGraph) scan(fp core.Fingerprint, k int) []knn.Neighbor {
	return knn.TopKRange(lg.packed.NumUsers(), k, 0, func(lo, hi int, out []float64) {
		lg.packed.JaccardQueryInto(fp, lo, hi, out)
	})
}

// quality samples n evenly spaced users and returns the mean Eq. 2–3
// quality and edge recall of the graph against the exact scan.
func (lg *libGraph) quality(n, k int) (quality, recall float64) {
	users := lg.g.NumUsers()
	n = min(n, users)
	quals := make([]float64, n)
	recs := make([]float64, n)
	parallelFor(n, func(i int) {
		u := i * users / n
		top := exactTopK(lg.packed, lg.packed.Fingerprint(u), k+1)
		exact := top[:0]
		for _, nb := range top {
			if int(nb.ID) != u && len(exact) < k {
				exact = append(exact, nb)
			}
		}
		sims := make([]float64, len(lg.g.Neighbors[u]))
		for j, nb := range lg.g.Neighbors[u] {
			sims[j] = nb.Sim
		}
		quals[i] = qualityOf(sims, exact)
		recs[i] = recallOf(sims, exact)
	})
	return mean(quals), mean(recs)
}

// online wraps copies of the graph in a maintainer, as the service does
// when it publishes or recovers an epoch. fps must be the members'
// fingerprints; the maintainer takes ownership of the copy.
func (lg *libGraph) online(fps []core.Fingerprint, k int) (*knn.Online, error) {
	cp := func(g *knn.Graph) *knn.Graph {
		return &knn.Graph{K: g.K, Neighbors: append([][]knn.Neighbor(nil), g.Neighbors...)}
	}
	return knn.NewOnline(cp(lg.g), cp(lg.nav), append([]core.Fingerprint(nil), fps...), nil, k, uint64(len(fps)))
}

// applyOnline performs one generated mutation on the maintainer.
func applyOnline(o *knn.Online, c *corpus, v victims, mut op) (knn.MutationResult, error) {
	switch mut.Kind {
	case opInsert:
		_, res := o.Insert(c.heldFP(mut.Payload))
		return res, nil
	case opOverwrite:
		return o.Overwrite(int32(v.pick(mut)), c.heldFP(mut.Payload))
	default:
		return o.Delete(int32(v.pick(mut)))
	}
}

// selfCPU is this process's CPU time so far.
func selfCPU() float64 { return cpuSeconds(os.Getpid()) }

// timeReps runs f until budget is spent, at least minReps and at most
// maxReps times, collecting garbage before each, and returns each run's
// seconds.
func timeReps(budget time.Duration, minReps, maxReps int, f func()) []float64 {
	var out []float64
	start := time.Now()
	for len(out) < maxReps && (len(out) < minReps || time.Since(start) < budget) {
		runtime.GC()
		t := time.Now()
		f()
		out = append(out, time.Since(t).Seconds())
	}
	return out
}
