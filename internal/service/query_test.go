package service

// HTTP-level tests for the /query mode surface: graph-navigated serving,
// the auto-mode freshness rule, the scan fallback for unreachable nodes,
// and the per-mode observability counters.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"goldfinger/internal/core"
	"goldfinger/internal/knn"
	"goldfinger/internal/profile"
)

// installEpoch publishes a frozen epoch (no online maintainer) the way a
// build publish would.
func installEpoch(srv *Server, ep *graphEpoch) {
	srv.writeMu.Lock()
	defer srv.writeMu.Unlock()
	srv.installEpoch(ep)
}

// queryProfile builds an overlapping-item profile so every test user has
// non-zero similarity to its index neighbors.
func queryProfile(i int) profile.Profile {
	return profile.New(profile.ItemID(i), profile.ItemID(i+1), profile.ItemID(i+2), profile.ItemID(i+3))
}

// postQuery runs one /query and decodes the response, returning the
// neighbors, the X-Query-Mode header and the status code.
func postQuery(t *testing.T, ts *httptest.Server, scheme *core.Scheme, p profile.Profile, query string) ([]NeighborJSON, string, int) {
	t.Helper()
	var buf bytes.Buffer
	if err := core.WriteFingerprint(&buf, scheme.Fingerprint(p)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/query"+query, "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []NeighborJSON
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out, resp.Header.Get(HeaderQueryMode), resp.StatusCode
}

func TestQueryModeValidation(t *testing.T) {
	ts, scheme := newTestServer(t)
	putFingerprint(t, ts, scheme, "a", queryProfile(0)).Body.Close()

	_, _, status := postQuery(t, ts, scheme, queryProfile(0), "?k=1&mode=hybrid")
	if status != http.StatusBadRequest {
		t.Errorf("unknown mode: status %d, want 400", status)
	}
}

func TestQueryModeGraphRequiresEpoch(t *testing.T) {
	ts, scheme := newTestServer(t)
	putFingerprint(t, ts, scheme, "a", queryProfile(0)).Body.Close()

	_, _, status := postQuery(t, ts, scheme, queryProfile(0), "?k=1&mode=graph")
	if status != http.StatusConflict {
		t.Errorf("mode=graph without an epoch: status %d, want 409", status)
	}
	// scan and auto still serve.
	for _, mode := range []string{"scan", "auto", ""} {
		q := "?k=1"
		if mode != "" {
			q += "&mode=" + mode
		}
		got, served, status := postQuery(t, ts, scheme, queryProfile(0), q)
		if status != http.StatusOK || served != "scan" || len(got) != 1 {
			t.Errorf("mode %q without an epoch: (%d results, served %q, status %d), want scan", mode, len(got), served, status)
		}
	}
}

// TestQueryGraphMatchesScan: on a corpus where the clamped beam covers
// every node, the graph path must return exactly the scan's answer — same
// users, same similarities, same order — and stamp the mode header.
func TestQueryGraphMatchesScan(t *testing.T) {
	srv, ts, scheme := newInstrumentedServer(t)
	for i := 0; i < 40; i++ {
		putFingerprint(t, ts, scheme, "u"+itoa(i), queryProfile(i)).Body.Close()
	}
	resp, _ := buildGraph(t, ts, "?k=3&algo=bruteforce")
	resp.Body.Close()

	for i := 0; i < 40; i += 7 {
		scan, servedScan, _ := postQuery(t, ts, scheme, queryProfile(i), "?k=5&mode=scan")
		graph, servedGraph, _ := postQuery(t, ts, scheme, queryProfile(i), "?k=5&mode=graph")
		auto, servedAuto, _ := postQuery(t, ts, scheme, queryProfile(i), "?k=5")
		if servedScan != "scan" || servedGraph != "graph" || servedAuto != "graph" {
			t.Fatalf("served modes = %q/%q/%q, want scan/graph/graph", servedScan, servedGraph, servedAuto)
		}
		if len(graph) != len(scan) {
			t.Fatalf("query %d: graph returned %d results, scan %d", i, len(graph), len(scan))
		}
		for j := range scan {
			if graph[j] != scan[j] || auto[j] != scan[j] {
				t.Fatalf("query %d result %d: graph %+v auto %+v scan %+v", i, j, graph[j], auto[j], scan[j])
			}
		}
	}
	m := srv.obs.Snapshot()
	if m.Counters[metricQueryGraph] == 0 || m.Counters[metricQueryScan] == 0 {
		t.Errorf("per-mode counters not both advanced: %+v", m.Counters)
	}
	if m.Histograms[metricQueryGraphSecs].Count == 0 || m.Histograms[metricQueryScanSecs].Count == 0 {
		t.Errorf("per-mode latency histograms not both observed")
	}
}

// TestQueryAutoLiveEpochServesNewUser pins the live-mutation freshness
// rule: an upload after the build is inserted into the live graph, so auto
// keeps serving the graph and the new user is findable through it
// immediately — no scan fallback, no rebuild.
func TestQueryAutoLiveEpochServesNewUser(t *testing.T) {
	ts, scheme := newTestServer(t)
	for i := 0; i < 12; i++ {
		putFingerprint(t, ts, scheme, "u"+itoa(i), queryProfile(i)).Body.Close()
	}
	resp, _ := buildGraph(t, ts, "?k=2&algo=bruteforce")
	resp.Body.Close()

	if _, served, _ := postQuery(t, ts, scheme, queryProfile(0), "?k=1"); served != "graph" {
		t.Fatalf("fresh epoch served %q, want graph", served)
	}

	// A user uploaded after the build must be findable immediately —
	// through the graph, since the insert went into the live epoch.
	late := profile.New(900, 901, 902, 903)
	putFingerprint(t, ts, scheme, "late", late).Body.Close()
	got, served, _ := postQuery(t, ts, scheme, late, "?k=1")
	if served != "graph" {
		t.Errorf("live epoch: auto served %q, want graph", served)
	}
	if len(got) != 1 || got[0].User != "late" {
		t.Errorf("post-epoch user not found by auto query: %+v", got)
	}
}

// TestQueryAutoStaleEpochFallsBackToScan keeps the genuine-staleness rule
// covered: when the served epoch honestly lags the mutation counter (here:
// a frozen test-installed epoch with no online maintainer), auto falls
// back to the scan so new users stay findable.
func TestQueryAutoStaleEpochFallsBackToScan(t *testing.T) {
	srv, ts, scheme := newInstrumentedServer(t)
	const n = 12
	users := make([]string, n)
	profiles := make([]profile.Profile, n)
	for i := 0; i < n; i++ {
		users[i] = "u" + itoa(i)
		profiles[i] = queryProfile(i)
		putFingerprint(t, ts, scheme, users[i], profiles[i]).Body.Close()
	}
	g, _ := knn.BruteForce(knn.NewSHFProvider(scheme, profiles), 2, knn.Options{})
	mutSeq := srv.view.Load().mutSeq
	installEpoch(srv, &graphEpoch{
		seq:    srv.epochSeq.Add(1),
		graph:  g,
		nav:    g.Navigable(nil),
		users:  users,
		k:      2,
		mutSeq: mutSeq,
	})

	// The frozen epoch matches the state: auto serves the graph.
	if _, served, _ := postQuery(t, ts, scheme, queryProfile(0), "?k=1"); served != "graph" {
		t.Fatalf("matching frozen epoch served %q, want graph", served)
	}

	// An upload the frozen epoch cannot absorb makes it genuinely stale:
	// auto must fall back to the scan, which sees the new user.
	late := profile.New(900, 901, 902, 903)
	putFingerprint(t, ts, scheme, "late", late).Body.Close()
	got, served, _ := postQuery(t, ts, scheme, late, "?k=1")
	if served != "scan" {
		t.Errorf("stale frozen epoch: auto served %q, want scan", served)
	}
	if len(got) != 1 || got[0].User != "late" {
		t.Errorf("post-epoch user not found by auto query: %+v", got)
	}

	// Explicit graph mode still serves the old epoch: "late" is invisible.
	got, served, _ = postQuery(t, ts, scheme, late, "?k=20&mode=graph")
	if served != "graph" && served != "scan-fallback" {
		t.Fatalf("explicit graph on stale epoch served %q", served)
	}
	if served == "graph" {
		for _, nb := range got {
			if nb.User == "late" {
				t.Errorf("stale graph returned the post-epoch user")
			}
		}
	}
}

// TestQueryGraphIsolatedNodesFallBackToScan: a graph whose descent cannot
// reach k nodes (here: no edges at all) must not answer short — the
// service detects the short result, serves the exact scan and labels the
// response scan-fallback.
func TestQueryGraphIsolatedNodesFallBackToScan(t *testing.T) {
	srv, ts, scheme := newInstrumentedServer(t)
	const n = 30
	users := make([]string, n)
	for i := 0; i < n; i++ {
		users[i] = "u" + itoa(i)
		putFingerprint(t, ts, scheme, users[i], queryProfile(i)).Body.Close()
	}
	// Install an epoch whose graph is valid but edgeless: only the seed
	// nodes are reachable, so any k above the seed count comes back short.
	edgeless := &knn.Graph{K: 2, Neighbors: make([][]knn.Neighbor, n)}
	mutSeq := srv.view.Load().mutSeq
	installEpoch(srv, &graphEpoch{
		seq:    srv.epochSeq.Add(1),
		graph:  edgeless,
		nav:    edgeless.Navigable(nil),
		users:  users,
		k:      2,
		mutSeq: mutSeq,
	})

	got, served, status := postQuery(t, ts, scheme, queryProfile(4), "?k=20")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if served != "scan-fallback" {
		t.Fatalf("served %q, want scan-fallback", served)
	}
	if len(got) != 20 {
		t.Errorf("fallback returned %d results, want the scan's 20", len(got))
	}
	if c := srv.obs.Snapshot().Counters[metricQueryFallback]; c != 1 {
		t.Errorf("%s = %d, want 1", metricQueryFallback, c)
	}
}

// TestQueryGraphCanceledClient: the graph path propagates a dead request
// context like the scan path does — 499, counted, no body.
func TestQueryGraphCanceledClient(t *testing.T) {
	srv, ts, scheme := newInstrumentedServer(t)
	for i := 0; i < 12; i++ {
		putFingerprint(t, ts, scheme, "u"+itoa(i), queryProfile(i)).Body.Close()
	}
	resp, _ := buildGraph(t, ts, "?k=2&algo=bruteforce")
	resp.Body.Close()

	var buf bytes.Buffer
	if err := core.WriteFingerprint(&buf, scheme.Fingerprint(queryProfile(0))); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/query?k=2&mode=graph", &buf).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Errorf("canceled graph query: status %d, want %d", rec.Code, statusClientClosedRequest)
	}
	if got := srv.obs.Counter(metricQueryCanceled).Value(); got != 1 {
		t.Errorf("query.canceled.total = %d, want 1", got)
	}
}
