package service

// HTTP-level tests for the one build path (Cluster-and-Conquer) and the
// cluster-seeded graph query entry points.

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestBuildClusterAlgorithm(t *testing.T) {
	srv, ts, scheme := newInstrumentedServer(t)
	for i := 0; i < 60; i++ {
		putFingerprint(t, ts, scheme, "u"+itoa(i), queryProfile(i)).Body.Close()
	}
	resp, br := buildGraph(t, ts, "?k=3")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster build: status %d", resp.StatusCode)
	}
	if br.Algorithm != "cluster" || br.Users != 60 || br.K != 3 {
		t.Fatalf("build result %+v", br)
	}
	if br.Comparisons == 0 {
		t.Fatal("cluster build reported zero comparisons")
	}
	ep := srv.view.Load().epoch
	if ep == nil || ep.algorithm != "cluster" {
		t.Fatal("epoch not published with algorithm=cluster")
	}
	if ep.clusters == nil || len(ep.clusters.Views) == 0 {
		t.Fatal("cluster epoch carries no assignment")
	}
	if err := srv.view.Load().live.Graph().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestQueryClusterSeededMatchesScan: on a corpus small enough that the
// clustering collapses to one exact cluster, a graph query against the
// cluster epoch (bucket-derived entry seeds) must return the scan's exact
// answer.
func TestQueryClusterSeededMatchesScan(t *testing.T) {
	srv, ts, scheme := newInstrumentedServer(t)
	for i := 0; i < 40; i++ {
		putFingerprint(t, ts, scheme, "u"+itoa(i), queryProfile(i)).Body.Close()
	}
	resp, _ := buildGraph(t, ts, "?k=3")
	resp.Body.Close()
	if ep := srv.view.Load().epoch; ep == nil || ep.clusters == nil {
		t.Fatal("no cluster epoch")
	}

	for i := 0; i < 40; i += 5 {
		q := queryProfile(i)
		scan, _, st1 := postQuery(t, ts, scheme, q, "?k=3&mode=scan")
		graph, served, st2 := postQuery(t, ts, scheme, q, "?k=3&mode=graph")
		if st1 != http.StatusOK || st2 != http.StatusOK {
			t.Fatalf("query %d: status scan=%d graph=%d", i, st1, st2)
		}
		if served != "graph" {
			t.Fatalf("query %d served %q, want graph", i, served)
		}
		if len(graph) != len(scan) {
			t.Fatalf("query %d: %d graph results vs %d scan", i, len(graph), len(scan))
		}
		for j := range graph {
			if graph[j] != scan[j] {
				t.Fatalf("query %d rank %d: graph %+v, scan %+v", i, j, graph[j], scan[j])
			}
		}
	}
}

// TestQuerySeedsHelper exercises querySeeds directly: a built epoch
// yields in-range bucket seeds, an epoch without an assignment (one
// recovered from disk) yields nil (default spread).
func TestQuerySeedsHelper(t *testing.T) {
	srv, ts, scheme := newInstrumentedServer(t)
	for i := 0; i < 50; i++ {
		putFingerprint(t, ts, scheme, "u"+itoa(i), queryProfile(i)).Body.Close()
	}
	resp, _ := buildGraph(t, ts, "?k=3")
	resp.Body.Close()
	v := srv.view.Load()
	fp := scheme.Fingerprint(queryProfile(7))
	n := v.live.NumNodes()
	seeds := querySeeds(v.epoch, fp, n)
	if len(seeds) == 0 {
		t.Fatal("cluster epoch produced no query seeds")
	}
	for _, s := range seeds {
		if s < 0 || int(s) >= n {
			t.Fatalf("seed %d out of range [0,%d)", s, n)
		}
	}

	if got := querySeeds(&graphEpoch{}, fp, n); got != nil {
		t.Fatalf("epoch without an assignment produced seeds %v, want nil", got)
	}
}

// TestBuildUnknownAlgorithmMentionsCluster: the service builds with
// Cluster-and-Conquer only. algo=cluster builds like no algo at all; every
// other value — the builders it once offered included — is a 400 whose
// message names the one it runs.
func TestBuildUnknownAlgorithmMentionsCluster(t *testing.T) {
	ts, scheme := newTestServer(t)
	putFingerprint(t, ts, scheme, "a", queryProfile(0)).Body.Close()
	putFingerprint(t, ts, scheme, "b", queryProfile(1)).Body.Close()
	for _, algo := range []string{"quantum", "hyrec", "bruteforce", "nndescent", "Cluster"} {
		resp, err := http.Post(ts.URL+"/graph/build?algo="+algo, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "cluster") {
			t.Fatalf("algo=%s: status %d body %q, want 400 naming cluster", algo, resp.StatusCode, body)
		}
	}
	resp, br := buildGraph(t, ts, "?algo=cluster")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || br.Algorithm != "cluster" {
		t.Fatalf("algo=cluster: status %d result %+v", resp.StatusCode, br)
	}
}

// TestServedGraphRecallAt20k: the graph a plain POST /graph/build makes
// must serve near-exact answers at a scale where the builder shows. 20k
// clustered users, no build parameters, 120 held-out queries: mode=graph
// holds recall@10 ≥ 0.95 against the exact mode=scan. A Hyrec graph of the
// same corpus serves about 0.78 here (0.93 at 10k). Skipped under -race:
// the 20k build adds no signal there.
func TestServedGraphRecallAt20k(t *testing.T) {
	if raceEnabled {
		t.Skip("20k build adds no signal under -race")
	}
	const n, queries = 20000, 120
	srv, fps := memberFixture(t, n, queries)
	if rec := serve(srv, http.MethodPost, "/graph/build", nil); rec.Code != http.StatusOK {
		t.Fatalf("build: status %d: %s", rec.Code, rec.Body)
	}
	query := func(mode string, body []byte) []NeighborJSON {
		t.Helper()
		rec := serve(srv, http.MethodPost, "/query?mode="+mode, body)
		if rec.Code != http.StatusOK || rec.Header().Get(HeaderQueryMode) != mode {
			t.Fatalf("mode=%s: status %d served %q", mode, rec.Code, rec.Header().Get(HeaderQueryMode))
		}
		var out []NeighborJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	var sum float64
	for _, fp := range fps[n:] {
		body := wireBytes(t, fp)
		graph, scan := query("graph", body), query("scan", body)
		if len(scan) != 10 || len(graph) != 10 {
			t.Fatalf("got %d graph and %d scan results, want 10 each", len(graph), len(scan))
		}
		// Tie-aware: a graph answer scoring at least the scan's 10th best
		// belongs to an exact top-10.
		hits := 0
		for _, nb := range graph {
			if nb.Similarity >= scan[len(scan)-1].Similarity {
				hits++
			}
		}
		sum += float64(hits) / float64(len(scan))
	}
	recall := sum / queries
	t.Logf("served recall@10 at n=%d over %d queries: %.3f", n, queries, recall)
	if recall < 0.95 {
		t.Errorf("served recall@10 = %.3f, floor 0.95", recall)
	}
}
