package service

// HTTP-level tests for the observability + cancellation surface: DELETE
// cancel keeps the previous epoch serving, deadlines turn into 504s, and
// /metrics exports a valid, monotone JSON snapshot whose comparison counts
// match the per-build results.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"goldfinger/internal/core"
	"goldfinger/internal/dataset"
	"goldfinger/internal/knn"
	"goldfinger/internal/obs"
	"goldfinger/internal/profile"
)

// obsUserID keeps ids from different upload batches disjoint.
func obsUserID(seedItem, i int) string { return "u" + itoa(seedItem) + "-" + itoa(i) }

func uploadN(t *testing.T, ts *httptest.Server, scheme *core.Scheme, n, seedItem int) {
	t.Helper()
	for i := 0; i < n; i++ {
		p := profile.New(profile.ItemID(seedItem+i), profile.ItemID(seedItem+i+1), profile.ItemID(seedItem+i+2))
		resp := putFingerprint(t, ts, scheme, obsUserID(seedItem, i), p)
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("upload %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

func buildGraph(t *testing.T, ts *httptest.Server, query string) (*http.Response, BuildResult) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/graph/build"+query, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var br BuildResult
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Fatal(err)
		}
	}
	return resp, br
}

func deleteBuild(t *testing.T, ts *httptest.Server, path string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func getMetrics(t *testing.T, ts *httptest.Server) obs.Snapshot {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	var s obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatalf("/metrics is not a valid snapshot: %v", err)
	}
	return s
}

// TestCancelBuildKeepsServingOldEpoch: a build canceled via DELETE must
// return promptly with 409, publish nothing, and leave every read path on
// the previous epoch.
func TestCancelBuildKeepsServingOldEpoch(t *testing.T) {
	srv, ts, scheme := newInstrumentedServer(t)
	uploadN(t, ts, scheme, 8, 1)

	// Epoch 1 builds normally.
	resp, br := buildGraph(t, ts, "?k=3&algo=bruteforce")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || br.Epoch != 1 {
		t.Fatalf("first build: status %d, epoch %d", resp.StatusCode, br.Epoch)
	}

	// Stall the second build between snapshot and algorithm, cancel it
	// from another connection, then release it into the canceled context.
	started := make(chan struct{})
	release := make(chan struct{})
	srv.buildHook = func() {
		close(started)
		<-release
	}
	done := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/graph/build?k=3&algo=bruteforce", "", nil)
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	<-started

	dresp := deleteBuild(t, ts, "/graph/build")
	defer dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE during build: status %d", dresp.StatusCode)
	}
	close(release)

	select {
	case status := <-done:
		if status != http.StatusConflict {
			t.Fatalf("canceled build: status %d, want %d", status, http.StatusConflict)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled build did not return promptly")
	}
	srv.buildHook = nil

	// The previous epoch still serves: neighbors, query, and stats all see
	// epoch 1.
	nresp, err := http.Get(ts.URL + "/users/" + obsUserID(1, 0) + "/neighbors")
	if err != nil {
		t.Fatal(err)
	}
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusOK {
		t.Errorf("neighbors after canceled build: status %d", nresp.StatusCode)
	}
	var qbuf bytes.Buffer
	if err := core.WriteFingerprint(&qbuf, scheme.Fingerprint(profile.New(1, 2, 3))); err != nil {
		t.Fatal(err)
	}
	qresp, err := http.Post(ts.URL+"/query?k=3", "application/octet-stream", &qbuf)
	if err != nil {
		t.Fatal(err)
	}
	qresp.Body.Close()
	if qresp.StatusCode != http.StatusOK {
		t.Errorf("query after canceled build: status %d", qresp.StatusCode)
	}
	st := getStats(t, ts)
	if st.Epoch != 1 || st.BuildRunning {
		t.Errorf("stats after canceled build: %+v", st)
	}
	if st.LastBuildError == "" {
		t.Error("stats did not record the canceled build")
	}

	// With no build in flight, DELETE reports a conflict; the /build alias
	// routes the same handler.
	for _, path := range []string{"/graph/build", "/build"} {
		resp := deleteBuild(t, ts, path)
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Errorf("DELETE %s with no build: status %d", path, resp.StatusCode)
		}
	}

	// The next build succeeds and gets the next epoch number.
	resp, br = buildGraph(t, ts, "?k=3&algo=bruteforce")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || br.Epoch != 2 {
		t.Fatalf("post-cancel build: status %d, epoch %d", resp.StatusCode, br.Epoch)
	}
	if st := getStats(t, ts); st.LastBuildError != "" {
		t.Errorf("successful build did not clear last_build_error: %q", st.LastBuildError)
	}
}

// TestBuildTimeoutReturns504AndStaleFlag: a build that outlives the
// configured deadline is aborted with 504; the epoch it failed to replace
// survives — and since mutations apply to the live graph, it stays warm.
func TestBuildTimeoutReturns504AndStaleFlag(t *testing.T) {
	srv, ts, scheme := newInstrumentedServer(t)
	uploadN(t, ts, scheme, 6, 1)

	resp, _ := buildGraph(t, ts, "?k=2&algo=bruteforce")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first build: status %d", resp.StatusCode)
	}

	// New uploads land in the live epoch; the rebuild then times out.
	uploadN(t, ts, scheme, 2, 50)
	srv.SetBuildTimeout(5 * time.Millisecond)
	srv.buildHook = func() { time.Sleep(60 * time.Millisecond) } // guarantees the deadline fires
	resp, _ = buildGraph(t, ts, "?k=2&algo=bruteforce")
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timed-out build: status %d, want %d", resp.StatusCode, http.StatusGatewayTimeout)
	}
	srv.buildHook = nil

	st := getStats(t, ts)
	if st.Epoch != 1 {
		t.Errorf("timed-out build advanced the epoch: %+v", st)
	}
	if st.GraphStale || !st.GraphLive {
		t.Errorf("surviving epoch not live after timed-out build: %+v", st)
	}
	if st.OnlineNodes != 8 {
		t.Errorf("online_nodes = %d, want 8 (timed-out build must not lose live inserts)", st.OnlineNodes)
	}
	if st.LastBuildError == "" {
		t.Error("stats did not record the timeout")
	}
	if m := getMetrics(t, ts); m.Counters["build.timeout.total"] != 1 {
		t.Errorf("timeout counter = %d, want 1", m.Counters["build.timeout.total"])
	}

	// Clearing the deadline lets the rebuild through.
	srv.SetBuildTimeout(0)
	resp, _ = buildGraph(t, ts, "?k=2&algo=bruteforce")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rebuild without deadline: status %d", resp.StatusCode)
	}
	if st := getStats(t, ts); st.GraphStale || st.Epoch != 2 {
		t.Errorf("stats after successful rebuild: %+v", st)
	}
}

// TestMetricsSnapshotMonotoneAndMatchesBuilds: /metrics must be valid
// JSON, its comparison counter must match the sum of per-build comparison
// counts exactly (the CountingProvider totals), and counters must be
// monotone across builds.
func TestMetricsSnapshotMonotoneAndMatchesBuilds(t *testing.T) {
	_, ts, scheme := newInstrumentedServer(t)
	d := dataset.Generate(dataset.ML1M, 0.005, 11)
	for i, p := range d.Profiles {
		resp := putFingerprint(t, ts, scheme, userID(i), p)
		resp.Body.Close()
	}
	n := int64(d.NumUsers())

	before := getMetrics(t, ts)
	if got := before.Counters[knn.MetricComparisons]; got != 0 {
		t.Fatalf("fresh comparison counter = %d", got)
	}

	resp, br1 := buildGraph(t, ts, "?k=4&algo=bruteforce")
	resp.Body.Close()
	if want := n * (n - 1) / 2; br1.Comparisons != want {
		t.Fatalf("bruteforce comparisons = %d, want %d", br1.Comparisons, want)
	}
	m1 := getMetrics(t, ts)
	if got := m1.Counters[knn.MetricComparisons]; got != br1.Comparisons {
		t.Errorf("metrics comparisons = %d, build reported %d", got, br1.Comparisons)
	}

	resp, br2 := buildGraph(t, ts, "?k=4&algo=hyrec")
	resp.Body.Close()
	m2 := getMetrics(t, ts)
	if got, want := m2.Counters[knn.MetricComparisons], br1.Comparisons+br2.Comparisons; got != want {
		t.Errorf("metrics comparisons after 2 builds = %d, want %d", got, want)
	}
	if m2.Counters[knn.MetricComparisons] < m1.Counters[knn.MetricComparisons] ||
		m2.Counters["build.total"] != 2 {
		t.Errorf("counters not monotone across builds: %+v then %+v", m1.Counters, m2.Counters)
	}

	// Per-phase durations: the bruteforce build observed scan/merge, the
	// hyrec build init/iterate, and both the total build histogram.
	for name, wantCount := range map[string]int64{
		"build.phase.scan.seconds":  1,
		"build.phase.merge.seconds": 1,
		"build.phase.init.seconds":  1,
		"build.seconds":             2,
	} {
		h, ok := m2.Histograms[name]
		if !ok || h.Count < wantCount {
			t.Errorf("histogram %s: %+v, want count ≥ %d", name, h, wantCount)
		}
	}
	if h := m2.Histograms["build.phase.iterate.seconds"]; h.Count < 1 {
		t.Errorf("iterate histogram empty: %+v", h)
	}
	if m2.Gauges["build.epoch"] != 2 {
		t.Errorf("epoch gauge = %d, want 2", m2.Gauges["build.epoch"])
	}
	if m2.Texts[knn.MetricPhase] != "idle" {
		t.Errorf("phase after builds = %q, want idle", m2.Texts[knn.MetricPhase])
	}
}

// TestPprofEndpointsServe: the stdlib profiling handlers must be wired
// into the service mux.
func TestPprofEndpointsServe(t *testing.T) {
	_, ts, _ := newInstrumentedServer(t)
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap?debug=1", "/debug/pprof/goroutine?debug=1"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
	}
}

// TestStatsReportPhaseAndProgressDuringBuild: while a build is in flight,
// /stats must expose the live phase and progress gauges.
func TestStatsReportPhaseAndProgressDuringBuild(t *testing.T) {
	srv, ts, scheme := newInstrumentedServer(t)
	uploadN(t, ts, scheme, 8, 1)

	started := make(chan struct{})
	release := make(chan struct{})
	srv.buildHook = func() {
		close(started)
		<-release
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Post(ts.URL+"/graph/build?k=3&algo=bruteforce", "", nil)
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started

	st := getStats(t, ts)
	if !st.BuildRunning {
		t.Error("stats do not show the running build")
	}
	// The hook fires after the build took its view and before the builder
	// set its own phase, so the phase text must be "snapshot".
	if st.BuildPhase != "snapshot" {
		t.Errorf("build_phase = %q, want snapshot", st.BuildPhase)
	}
	if st.BuildElapsedMS < 0 {
		t.Errorf("build_elapsed_ms = %g", st.BuildElapsedMS)
	}
	close(release)
	<-done
	srv.buildHook = nil

	st = getStats(t, ts)
	if st.BuildRunning || st.BuildPhase != "" {
		t.Errorf("stats still report a build after completion: %+v", st)
	}
	if st.Epoch != 1 {
		t.Errorf("build did not publish epoch 1: %+v", st)
	}
}
