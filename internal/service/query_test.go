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
	"os"
	"path/filepath"
	"slices"
	"testing"

	"goldfinger/internal/core"
	"goldfinger/internal/durable"
	"goldfinger/internal/knn"
	"goldfinger/internal/profile"
)

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
	resp, _ := buildGraph(t, ts, "?k=3")
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
	resp, _ := buildGraph(t, ts, "?k=2")
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

// newLaggingServer serves what a crash leaves behind when it tears the
// graph-delta tail: n users and a build were persisted, then one more
// upload ("late") was acked and its graph delta — the WAL's last record —
// lost its final byte. Recovery keeps the upload but not the delta, so the
// recovered epoch's maintainer resumes one mutation behind the state.
func newLaggingServer(t *testing.T, n int, late profile.Profile) (*Server, *httptest.Server, *core.Scheme) {
	t.Helper()
	dir := t.TempDir()
	ts1, _, _, scheme := newDurableServer(t, dir, durable.OSFS{})
	for i := 0; i < n; i++ {
		putFingerprint(t, ts1, scheme, "u"+itoa(i), queryProfile(i)).Body.Close()
	}
	resp, _ := buildGraph(t, ts1, "?k=2")
	resp.Body.Close()
	putFingerprint(t, ts1, scheme, "late", late).Body.Close()
	ts1.Close() // the store is abandoned, not closed: a crash

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segment in %s: %v", dir, err)
	}
	active := segs[len(segs)-1]
	fi, err := os.Stat(active)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(active, fi.Size()-1); err != nil {
		t.Fatal(err)
	}

	st, rec, err := durable.Open(durable.Options{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Epoch == nil || rec.Epoch.MutSeq != uint64(n) || rec.State.MutSeq != uint64(n+1) {
		t.Fatalf("recovery did not lag as a torn delta tail leaves it: epoch %+v, state mutSeq %d", rec.Epoch, rec.State.MutSeq)
	}
	srv, err := NewServer(1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.UseStore(st, rec); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, scheme
}

// TestQueryAutoStaleEpochFallsBackToScan keeps the genuine-staleness rule
// covered in the shape production reaches it: a recovered epoch whose
// delta tail was torn lags the recovered state. It reports itself stale,
// auto queries scan so the post-epoch user stays findable, explicit graph
// mode serves only the epoch's users, /neighbors answers 409 for the user
// the graph never saw, and a further mutation is counted as stale rather
// than applied — until the next build drains the lag away.
func TestQueryAutoStaleEpochFallsBackToScan(t *testing.T) {
	const n = 12
	late := profile.New(900, 901, 902, 903)
	srv, ts, scheme := newLaggingServer(t, n, late)

	if st := getStats(t, ts); !st.GraphBuilt || !st.GraphStale || st.GraphLive || st.Users != n+1 || st.EpochUsers != n {
		t.Fatalf("lagging epoch stats = %+v, want built, stale, not live, %d users over a %d-node graph", st, n+1, n)
	}

	got, served, _ := postQuery(t, ts, scheme, late, "?k=1")
	if served != "scan" {
		t.Errorf("stale epoch: auto served %q, want scan", served)
	}
	if len(got) != 1 || got[0].User != "late" {
		t.Errorf("post-epoch user not found by auto query: %+v", got)
	}

	// Explicit graph mode still serves the lagging epoch: "late" is invisible.
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

	if status, _ := getNeighborList(t, ts, "late"); status != http.StatusConflict {
		t.Errorf("neighbors of the post-epoch user: status %d, want 409", status)
	}
	status, before := getNeighborList(t, ts, "u0")
	if status != http.StatusOK || len(before) == 0 {
		t.Fatalf("neighbors of an epoch user: status %d, %d entries, want 200 with edges", status, len(before))
	}

	// A further mutation is accepted but not applied to the lagging graph:
	// rewiring u0 onto a fresh profile leaves its edges as they were.
	putFingerprint(t, ts, scheme, "u0", profile.New(910, 911, 912, 913)).Body.Close()
	if c := srv.obs.Counter(metricMutStale).Value(); c != 1 {
		t.Errorf("%s = %d after one mutation on a lagging epoch, want 1", metricMutStale, c)
	}
	if _, after := getNeighborList(t, ts, "u0"); !slices.Equal(after, before) {
		t.Errorf("lagging graph rewired u0: %+v, was %+v", after, before)
	}

	resp, _ := buildGraph(t, ts, "?k=2")
	resp.Body.Close()
	if st := getStats(t, ts); st.GraphStale || !st.GraphLive || st.EpochUsers != n+1 {
		t.Fatalf("stats after the healing build = %+v", st)
	}
	if _, served, _ := postQuery(t, ts, scheme, late, "?k=1"); served != "graph" {
		t.Errorf("after the healing build auto served %q, want graph", served)
	}
}

// TestQueryGraphIsolatedNodesFallBackToScan: a graph whose descent cannot
// reach k nodes (here: no edges at all) must not answer short — the
// service detects the short result, serves the exact scan and labels the
// response scan-fallback.
func TestQueryGraphIsolatedNodesFallBackToScan(t *testing.T) {
	srv, ts, scheme := newInstrumentedServer(t)
	const n = 30
	for i := 0; i < n; i++ {
		putFingerprint(t, ts, scheme, "u"+itoa(i), queryProfile(i)).Body.Close()
	}
	// Publish, as a build does, a live epoch current with the state whose
	// graph is valid but edgeless: only the seed nodes are reachable, so
	// any k above the seed count comes back short.
	srv.writeMu.Lock()
	next := *srv.view.Load()
	edgeless := &knn.Graph{K: 2, Neighbors: make([][]knn.Neighbor, n)}
	online, err := knn.NewOnline(edgeless, nil, corpusRows(next.corpus, n), nil, 2, next.mutSeq)
	if err != nil {
		srv.writeMu.Unlock()
		t.Fatal(err)
	}
	next.epoch = &graphEpoch{seq: srv.epochSeq.Add(1), k: 2, online: online}
	next.live = online.Snapshot()
	srv.view.Store(&next)
	srv.writeMu.Unlock()

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
	resp, _ := buildGraph(t, ts, "?k=2")
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
