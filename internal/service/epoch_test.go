package service

// Tests for the versioned-epoch concurrency model: builds must not block
// traffic, mutations apply to the live epoch instead of pinning it stale,
// and the query/upload codecs must be bounded and deterministic.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"goldfinger/internal/core"
	"goldfinger/internal/dataset"
	"goldfinger/internal/knn"
	"goldfinger/internal/profile"
)

// newInstrumentedServer exposes the *Server so tests can install buildHook.
func newInstrumentedServer(t *testing.T) (*Server, *httptest.Server, *core.Scheme) {
	t.Helper()
	srv, err := NewServer(1024)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, core.MustScheme(1024, 7)
}

// builderComparisons is the comparison count the service's builder
// reports for the server's current corpus at k: what a build's
// BuildResult, /stats and /metrics must all say.
func builderComparisons(srv *Server, k int) int64 {
	p := knn.NewPackedSHFProvider(srv.view.Load().corpus)
	_, _, stats := knn.ClusterConquerWith(p, k, knn.Options{}, knn.ClusterConfig{})
	return stats.Comparisons
}

func getStats(t *testing.T, ts *httptest.Server) Stats {
	t.Helper()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestNeighborsForPostEpochUser is the stale-index regression turned
// live-mutation contract: a user registered after the last build is
// inserted into the live graph and served immediately — no 409, and
// certainly no panic (the seed indexed the old graph with the new user
// table and crashed).
func TestNeighborsForPostEpochUser(t *testing.T) {
	_, ts, scheme := newInstrumentedServer(t)
	putFingerprint(t, ts, scheme, "a", profile.New(1, 2)).Body.Close()
	putFingerprint(t, ts, scheme, "b", profile.New(2, 3)).Body.Close()
	putFingerprint(t, ts, scheme, "c", profile.New(3, 4)).Body.Close()

	resp, err := http.Post(ts.URL+"/graph/build?k=2", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("build status %d", resp.StatusCode)
	}

	putFingerprint(t, ts, scheme, "late", profile.New(1, 4)).Body.Close()
	status, nbrs := getNeighborList(t, ts, "late")
	if status != http.StatusOK {
		t.Fatalf("post-epoch user neighbors: status %d, want 200 (live insert)", status)
	}
	if len(nbrs) == 0 {
		t.Fatal("post-epoch user has no neighbors despite live insert")
	}
	if st := getStats(t, ts); st.GraphStale || !st.GraphLive || st.OnlineNodes != 4 {
		t.Fatalf("stats after live insert = %+v", st)
	}

	// Pre-epoch users keep being served, and can now see the new user.
	resp, err = http.Get(ts.URL + "/users/a/neighbors")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pre-epoch user neighbors: status %d, want 200", resp.StatusCode)
	}
}

// TestTrafficProceedsDuringBuild stalls a build mid-flight via buildHook
// and asserts that uploads, queries, neighborhood reads and /stats all
// complete while the build is running — the seed held the write lock for
// the whole construction, so all of these deadlocked until completion.
// Run with -race: the build's snapshot and the concurrent mutations must
// not share memory.
func TestTrafficProceedsDuringBuild(t *testing.T) {
	srv, ts, scheme := newInstrumentedServer(t)
	d := dataset.Generate(dataset.ML1M, 0.01, 9)

	started := make(chan struct{})
	release := make(chan struct{})
	srv.buildHook = func() {
		close(started)
		<-release
	}

	for i := 0; i < 10; i++ {
		putFingerprint(t, ts, scheme, userID(i), d.Profiles[i]).Body.Close()
	}

	buildStatus := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/graph/build?k=3", "", nil)
		if err != nil {
			buildStatus <- -1
			return
		}
		resp.Body.Close()
		buildStatus <- resp.StatusCode
	}()
	<-started

	// The build is now provably in progress and stalled. Hammer the
	// server; everything must return, not queue behind the build.
	var wg sync.WaitGroup
	errs := make(chan error, 30)
	for w := 0; w < 10; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			resp := putFingerprint(t, ts, scheme, userID(100+w), d.Profiles[w%10])
			resp.Body.Close()
			if resp.StatusCode != http.StatusNoContent {
				errs <- io.ErrUnexpectedEOF
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			if err := core.WriteFingerprint(&buf, scheme.Fingerprint(d.Profiles[w%10])); err != nil {
				errs <- err
				return
			}
			resp, err := http.Post(ts.URL+"/query?k=3", "application/octet-stream", &buf)
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("uploads/queries blocked while a build was running")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := getStats(t, ts)
	if !st.BuildRunning {
		t.Error("stats.build_running = false during a stalled build")
	}

	// A second build while one is running is rejected, not queued.
	resp, err := http.Post(ts.URL+"/graph/build?k=3", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("concurrent build: status %d, want 409", resp.StatusCode)
	}
	assertRetryAfter(t, resp)

	close(release)
	if code := <-buildStatus; code != http.StatusOK {
		t.Fatalf("stalled build finished with status %d", code)
	}
	st = getStats(t, ts)
	if st.BuildRunning {
		t.Error("build_running still set after build completed")
	}
	if st.Epoch != 1 {
		t.Errorf("epoch = %d after first build, want 1", st.Epoch)
	}
	// The publish step drains mutations that raced the build into the new
	// epoch's online maintainer, so the graph comes out warm and already
	// covering the 10 concurrent uploads.
	if st.GraphStale {
		t.Error("graph stale despite the publish-time drain of concurrent uploads")
	}
	if st.EpochUsers != 20 {
		t.Errorf("epoch_users = %d, want all 20 users after the drain", st.EpochUsers)
	}
}

// TestQueryTiesDeterministicByUserID uploads many identical fingerprints
// registered in non-lexicographic order: the selected set is the first k
// registered, and the response orders equal similarities by user id —
// byte-identical across repeated queries.
func TestQueryTiesDeterministicByUserID(t *testing.T) {
	_, ts, scheme := newInstrumentedServer(t)
	same := profile.New(1, 2, 3)
	for _, id := range []string{"m", "z", "a", "q", "b", "x", "c", "y", "d", "w"} {
		putFingerprint(t, ts, scheme, id, same).Body.Close()
	}

	query := func() []NeighborJSON {
		var buf bytes.Buffer
		if err := core.WriteFingerprint(&buf, scheme.Fingerprint(same)); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/query?k=3", "application/octet-stream", &buf)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query status %d", resp.StatusCode)
		}
		var got []NeighborJSON
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		return got
	}

	first := query()
	// First three registered are m, z, a; ordered by id: a, m, z.
	if len(first) != 3 || first[0].User != "a" || first[1].User != "m" || first[2].User != "z" {
		t.Fatalf("tie-broken query = %+v, want users a, m, z", first)
	}
	for trial := 0; trial < 5; trial++ {
		if got := query(); !reflect.DeepEqual(got, first) {
			t.Fatalf("trial %d: query result changed: %+v vs %+v", trial, got, first)
		}
	}
}

// TestUploadBodyBounds covers the MaxBytesReader + trailing-garbage
// hardening on both ingestion paths.
func TestUploadBodyBounds(t *testing.T) {
	_, ts, scheme := newInstrumentedServer(t)

	validSHF := func() []byte {
		var buf bytes.Buffer
		if err := core.WriteFingerprint(&buf, scheme.Fingerprint(profile.New(1, 2))); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	// Trailing garbage after a valid SHF: rejected on upload...
	body := append(validSHF(), 'x')
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/users/t/fingerprint", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("trailing-garbage upload: status %d, want 400", resp.StatusCode)
	}
	// ... and on query.
	resp, err = http.Post(ts.URL+"/query", "application/octet-stream", bytes.NewReader(append(validSHF(), "extra"...)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("trailing-garbage query: status %d, want 400", resp.StatusCode)
	}

	// A body claiming a huge bit-array is cut off at the size bound with
	// 413 instead of being read (and allocated) in full.
	huge := make([]byte, 12, 4096)
	copy(huge, "SHF1")
	binary.LittleEndian.PutUint32(huge[4:8], 1<<20) // bits
	binary.LittleEndian.PutUint32(huge[8:12], 0)    // cardinality
	huge = append(huge, make([]byte, 4000)...)
	req, _ = http.NewRequest(http.MethodPut, ts.URL+"/users/t/fingerprint", bytes.NewReader(huge))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized upload: status %d, want 413", resp.StatusCode)
	}

	// A clean valid upload still works after the rejects.
	resp, err = http.DefaultClient.Do(func() *http.Request {
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/users/t/fingerprint", bytes.NewReader(validSHF()))
		return req
	}())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("valid upload after rejects: status %d", resp.StatusCode)
	}
}

// TestStatsEpochObservability walks the epoch lifecycle through /stats.
func TestStatsEpochObservability(t *testing.T) {
	srv, ts, scheme := newInstrumentedServer(t)
	st := getStats(t, ts)
	if st.GraphBuilt || st.Epoch != 0 || st.BuildRunning {
		t.Errorf("fresh stats = %+v", st)
	}

	putFingerprint(t, ts, scheme, "a", profile.New(1, 2)).Body.Close()
	putFingerprint(t, ts, scheme, "b", profile.New(2, 3)).Body.Close()
	putFingerprint(t, ts, scheme, "c", profile.New(3, 4)).Body.Close()

	resp, err := http.Post(ts.URL+"/graph/build?k=2", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var br BuildResult
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if br.Epoch != 1 || br.DurationMS < 0 {
		t.Errorf("build result = %+v", br)
	}

	st = getStats(t, ts)
	if !st.GraphBuilt || st.GraphStale || st.Epoch != 1 || st.EpochUsers != 3 {
		t.Errorf("post-build stats = %+v", st)
	}
	if want := builderComparisons(srv, 2); st.Algorithm != "cluster" || st.Comparisons != want || want == 0 || st.BuiltAt == "" {
		t.Errorf("epoch observability fields = %+v", st)
	}

	// A replacement upload is applied to the live graph — the epoch stays
	// warm instead of flipping stale; a rebuild still advances the epoch.
	putFingerprint(t, ts, scheme, "a", profile.New(5, 6)).Body.Close()
	if st = getStats(t, ts); st.GraphStale || !st.GraphLive {
		t.Errorf("stats after re-upload = %+v, want live (warm) graph", st)
	}
	resp, err = http.Post(ts.URL+"/graph/build?k=2", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st = getStats(t, ts); st.Epoch != 2 || st.GraphStale {
		t.Errorf("post-rebuild stats = %+v", st)
	}
}
