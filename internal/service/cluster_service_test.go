package service

// HTTP-level tests for the algo=cluster build path and the cluster-seeded
// graph query entry points.

import (
	"net/http"
	"testing"
)

func TestBuildClusterAlgorithm(t *testing.T) {
	srv, ts, scheme := newInstrumentedServer(t)
	for i := 0; i < 60; i++ {
		putFingerprint(t, ts, scheme, "u"+itoa(i), queryProfile(i)).Body.Close()
	}
	resp, br := buildGraph(t, ts, "?k=3&algo=cluster")
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
	resp, _ := buildGraph(t, ts, "?k=3&algo=cluster")
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

// TestQuerySeedsHelper exercises querySeeds directly: a cluster epoch
// yields in-range bucket seeds, any other epoch yields nil (default
// spread).
func TestQuerySeedsHelper(t *testing.T) {
	srv, ts, scheme := newInstrumentedServer(t)
	for i := 0; i < 50; i++ {
		putFingerprint(t, ts, scheme, "u"+itoa(i), queryProfile(i)).Body.Close()
	}
	resp, _ := buildGraph(t, ts, "?k=3&algo=cluster")
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

	resp, _ = buildGraph(t, ts, "?k=3&algo=bruteforce")
	resp.Body.Close()
	if got := querySeeds(srv.view.Load().epoch, fp, 50); got != nil {
		t.Fatalf("non-cluster epoch produced seeds %v, want nil", got)
	}
}

func TestSetClusterConfigPlumbing(t *testing.T) {
	srv, ts, scheme := newInstrumentedServer(t)
	srv.SetClusterConfig(2, 16)
	for i := 0; i < 50; i++ {
		putFingerprint(t, ts, scheme, "u"+itoa(i), queryProfile(i)).Body.Close()
	}
	resp, _ := buildGraph(t, ts, "?k=3&algo=cluster")
	resp.Body.Close()
	ep := srv.view.Load().epoch
	if ep == nil || ep.clusters == nil {
		t.Fatal("no cluster epoch")
	}
	if got := len(ep.clusters.Views); got != 2 {
		t.Fatalf("views = %d, want configured 2", got)
	}
	for _, v := range ep.clusters.Views {
		for _, members := range v.Clusters {
			if len(members) > 16 {
				t.Fatalf("cluster of %d members exceeds configured max 16", len(members))
			}
		}
	}
	if err := srv.view.Load().live.Graph().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildUnknownAlgorithmMentionsCluster(t *testing.T) {
	ts, scheme := newTestServer(t)
	putFingerprint(t, ts, scheme, "a", queryProfile(0)).Body.Close()
	putFingerprint(t, ts, scheme, "b", queryProfile(1)).Body.Close()
	resp, err := http.Post(ts.URL+"/graph/build?algo=quantum", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}
