package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"goldfinger/internal/core"
	"goldfinger/internal/durable"
	"goldfinger/internal/knn"
	"goldfinger/internal/profile"
	"goldfinger/internal/router"
)

// newDurableServer opens a durable store over fsys in dir and serves a
// fresh server seeded with whatever the store recovered. The returned
// store is intentionally NOT closed on cleanup: kill-and-restart tests
// abandon the handle exactly like a killed process would.
func newDurableServer(t *testing.T, dir string, fsys durable.FS) (*httptest.Server, *durable.Store, durable.Recovery, *core.Scheme) {
	t.Helper()
	st, rec, err := durable.Open(durable.Options{Dir: dir, FS: fsys, Fsync: durable.FsyncAlways, Logf: t.Logf})
	if err != nil {
		t.Fatalf("durable.Open(%s): %v", dir, err)
	}
	srv, err := NewServer(1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.UseStore(st, rec); err != nil {
		t.Fatalf("UseStore: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, st, rec, core.MustScheme(1024, 7)
}

func getNeighborList(t *testing.T, ts *httptest.Server, id string) (int, []NeighborJSON) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/users/" + id + "/neighbors")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	var nbrs []NeighborJSON
	if err := json.NewDecoder(resp.Body).Decode(&nbrs); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, nbrs
}

// profileFor gives user i a deterministic, overlapping item set so the
// graph has meaningful structure.
func profileFor(i int) profile.Profile {
	items := make([]profile.ItemID, 0, 12)
	for j := 0; j < 12; j++ {
		items = append(items, profile.ItemID(i*5+j))
	}
	return profile.New(items...)
}

// TestKillAndRestartRecovery is the acceptance test of the durability
// story: upload N fingerprints, build, abandon the store handle without
// Close (SIGKILL-equivalent), restart a fresh server over the same data
// dir — all N fingerprints and the published epoch must be served again.
func TestKillAndRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	const n = 20

	ts1, _, rec0, scheme := newDurableServer(t, dir, durable.OSFS{})
	if len(rec0.State.Users) != 0 {
		t.Fatalf("fresh dir recovered %d users", len(rec0.State.Users))
	}
	for i := 0; i < n; i++ {
		resp := putFingerprint(t, ts1, scheme, userID(i), profileFor(i))
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("upload %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp, err := http.Post(ts1.URL+"/graph/build?k=5", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("build status %d", resp.StatusCode)
	}
	resp.Body.Close()
	preStats := getStats(t, ts1)
	status, preNbrs := getNeighborList(t, ts1, userID(0))
	if status != http.StatusOK || len(preNbrs) != 5 {
		t.Fatalf("pre-kill neighbors: status %d, %d entries", status, len(preNbrs))
	}
	ts1.Close() // the store handle is abandoned, not closed: a "kill"

	ts2, _, rec, _ := newDurableServer(t, dir, durable.OSFS{})
	if got := len(rec.State.Users); got != n {
		t.Fatalf("recovered %d users, want %d", got, n)
	}
	if rec.BytesDropped != 0 || len(rec.Quarantined) != 0 {
		t.Fatalf("clean kill dropped %d bytes, quarantined %v", rec.BytesDropped, rec.Quarantined)
	}
	st := getStats(t, ts2)
	if !st.Durable || st.Degraded {
		t.Fatalf("restarted stats: durable=%v degraded=%v", st.Durable, st.Degraded)
	}
	if st.Users != n || !st.GraphBuilt || st.GraphStale {
		t.Fatalf("restarted stats = %+v", st)
	}
	if st.Epoch != preStats.Epoch || st.EpochUsers != preStats.EpochUsers || st.GraphK != preStats.GraphK {
		t.Fatalf("epoch changed across restart: %+v vs %+v", st, preStats)
	}
	// Every user is served from the recovered epoch, and neighborhoods are
	// byte-identical to the pre-kill ones.
	for i := 0; i < n; i++ {
		status, nbrs := getNeighborList(t, ts2, userID(i))
		if status != http.StatusOK {
			t.Fatalf("recovered neighbors for %s: status %d", userID(i), status)
		}
		if len(nbrs) != 5 {
			t.Fatalf("recovered neighbors for %s: %d entries", userID(i), len(nbrs))
		}
	}
	_, postNbrs := getNeighborList(t, ts2, userID(0))
	for i := range preNbrs {
		if postNbrs[i] != preNbrs[i] {
			t.Fatalf("neighbor %d changed across restart: %+v vs %+v", i, postNbrs[i], preNbrs[i])
		}
	}

	// The recovered server keeps accepting writes, and because the epoch
	// recovered warm (its maintainer resumed at the state's mutation
	// counter), a new upload applies to the live graph immediately: the
	// graph stays fresh and the new user is served without a rebuild.
	resp2 := putFingerprint(t, ts2, scheme, userID(n), profileFor(n))
	if resp2.StatusCode != http.StatusNoContent {
		t.Fatalf("post-recovery upload: status %d", resp2.StatusCode)
	}
	resp2.Body.Close()
	if st := getStats(t, ts2); st.Users != n+1 || st.GraphStale || !st.GraphLive || st.OnlineNodes != n+1 {
		t.Fatalf("post-recovery stats = %+v", st)
	}
	if status, nbrs := getNeighborList(t, ts2, userID(n)); status != http.StatusOK || len(nbrs) == 0 {
		t.Fatalf("live-inserted user: status %d, %d neighbors, want 200 with edges", status, len(nbrs))
	}
}

// TestRecoveryAfterOverwrite checks the WAL replay honors last-write-wins
// across a restart: re-uploading a fingerprint and killing the server must
// recover the replacement, not the original.
func TestRecoveryAfterOverwrite(t *testing.T) {
	dir := t.TempDir()
	ts1, _, _, scheme := newDurableServer(t, dir, durable.OSFS{})
	for i := 0; i < 3; i++ {
		resp := putFingerprint(t, ts1, scheme, userID(i), profileFor(i))
		resp.Body.Close()
	}
	// Overwrite user-001 with user-000's exact profile.
	resp := putFingerprint(t, ts1, scheme, userID(1), profileFor(0))
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("overwrite: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	ts1.Close()

	ts2, _, rec, _ := newDurableServer(t, dir, durable.OSFS{})
	if len(rec.State.Users) != 3 || rec.State.MutSeq != 4 {
		t.Fatalf("recovered %d users at mutSeq %d, want 3 at 4", len(rec.State.Users), rec.State.MutSeq)
	}
	postBuild, err := http.Post(ts2.URL+"/graph/build?k=2", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if postBuild.StatusCode != http.StatusOK {
		t.Fatalf("build status %d", postBuild.StatusCode)
	}
	postBuild.Body.Close()
	status, nbrs := getNeighborList(t, ts2, userID(0))
	if status != http.StatusOK || len(nbrs) == 0 {
		t.Fatalf("neighbors: status %d, %d entries", status, len(nbrs))
	}
	if nbrs[0].User != userID(1) || nbrs[0].Similarity != 1 {
		t.Fatalf("top neighbor of %s = %+v, want %s at similarity 1 (overwrite must survive the kill)",
			userID(0), nbrs[0], userID(1))
	}
}

// TestRecoveryOfEpochFromAnotherBuilder: a data dir written by an older
// server can hold an epoch that another builder made. It recovers and
// serves as it is — neighbor reads, and graph-mode queries seeded from the
// default spread, since it carries no cluster assignment — and /stats names
// its builder, so an operator can see it and rebuild. The rebuild replaces
// it with a cluster epoch.
func TestRecoveryOfEpochFromAnotherBuilder(t *testing.T) {
	dir := t.TempDir()
	ts1, _, _, scheme := newDurableServer(t, dir, durable.OSFS{})
	const n, k = 30, 3
	for i := 0; i < n; i++ {
		putFingerprint(t, ts1, scheme, userID(i), profileFor(i)).Body.Close()
	}
	ts1.Close()

	st, rec, err := durable.Open(durable.Options{Dir: dir, Fsync: durable.FsyncAlways, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := core.NewPackedCorpus(1024, rec.State.FPS)
	if err != nil {
		t.Fatal(err)
	}
	g, stats := knn.Hyrec(knn.NewPackedSHFProvider(corpus), k, knn.Options{Seed: 1})
	if err := st.SaveEpoch(durable.EpochData{
		Seq: 1, K: k, Algorithm: "hyrec", BuiltAt: time.Now(), Stats: stats,
		MutSeq: rec.State.MutSeq, Users: rec.State.Users, Graph: g,
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	ts2, _, rec2, _ := newDurableServer(t, dir, durable.OSFS{})
	if rec2.Epoch == nil || rec2.Epoch.Algorithm != "hyrec" {
		t.Fatalf("recovered epoch %+v, want the saved hyrec epoch", rec2.Epoch)
	}
	if s := getStats(t, ts2); !s.GraphBuilt || s.GraphStale || s.Epoch != 1 || s.Algorithm != "hyrec" {
		t.Fatalf("stats after recovery = %+v, want live hyrec epoch 1", s)
	}
	if status, nbrs := getNeighborList(t, ts2, userID(0)); status != http.StatusOK || len(nbrs) != k {
		t.Fatalf("neighbors of %s: status %d, %d entries", userID(0), status, len(nbrs))
	}
	if res, served, status := postQuery(t, ts2, scheme, profileFor(4), "?k=3"); status != http.StatusOK || served != "graph" || len(res) != 3 {
		t.Fatalf("query on the recovered epoch: status %d served %q, %d results", status, served, len(res))
	}

	resp, br := buildGraph(t, ts2, "?k=3")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || br.Algorithm != "cluster" {
		t.Fatalf("rebuild: status %d result %+v", resp.StatusCode, br)
	}
	if s := getStats(t, ts2); s.Epoch != 2 || s.Algorithm != "cluster" {
		t.Fatalf("stats after rebuild = %+v, want cluster epoch 2", s)
	}
}

// TestDegradedReadOnlyMode flips the data dir unwritable mid-flight: PUTs
// must get 503 with Retry-After, while neighbor reads, queries, /healthz
// and /stats keep working off the in-memory state.
func TestDegradedReadOnlyMode(t *testing.T) {
	dir := t.TempDir()
	ffs := &durable.FaultFS{Inner: durable.OSFS{}}
	ts, store, _, scheme := newDurableServer(t, dir, ffs)
	for i := 0; i < 4; i++ {
		resp := putFingerprint(t, ts, scheme, userID(i), profileFor(i))
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("upload %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp, err := http.Post(ts.URL+"/graph/build?k=2", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("build status %d", resp.StatusCode)
	}
	resp.Body.Close()

	ffs.CrashNow() // the data dir just died

	// The first write after the failure flips degraded mode and gets 503.
	for attempt := 0; attempt < 2; attempt++ {
		resp := putFingerprint(t, ts, scheme, userID(10+attempt), profileFor(10+attempt))
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("degraded PUT attempt %d: status %d, want 503", attempt, resp.StatusCode)
		}
		assertRetryAfter(t, resp)
		resp.Body.Close()
	}
	if !store.Degraded() {
		t.Fatal("store not degraded after failed append")
	}

	// Reads keep serving from memory.
	status, nbrs := getNeighborList(t, ts, userID(0))
	if status != http.StatusOK || len(nbrs) != 2 {
		t.Fatalf("degraded neighbors: status %d, %d entries", status, len(nbrs))
	}
	var buf bytes.Buffer
	if err := core.WriteFingerprint(&buf, scheme.Fingerprint(profileFor(0))); err != nil {
		t.Fatal(err)
	}
	qresp, err := http.Post(ts.URL+"/query?k=2", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("degraded query: status %d", qresp.StatusCode)
	}
	qresp.Body.Close()

	// /healthz stays 200 (the node still serves reads; do not drain it) but
	// says so; /stats reports the condition.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 128)
	n, _ := hresp.Body.Read(body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("degraded healthz: status %d", hresp.StatusCode)
	}
	if !bytes.Contains(body[:n], []byte("degraded")) {
		t.Fatalf("degraded healthz body %q does not say degraded", body[:n])
	}
	st := getStats(t, ts)
	if !st.Durable || !st.Degraded {
		t.Fatalf("degraded stats = %+v", st)
	}
	if st.Users != 4 {
		t.Fatalf("degraded stats count %d users; rejected writes must not mutate state", st.Users)
	}
}

// TestMethodAndActionRouting pins the HTTP surface contract: a known
// action with the wrong method is 405 with the Allow header RFC 9110
// requires; an unknown action is 404.
func TestMethodAndActionRouting(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		method, path string
		wantStatus   int
		wantAllow    string
	}{
		{http.MethodPost, "/users/u1/fingerprint", http.StatusMethodNotAllowed, "PUT, DELETE"},
		{http.MethodGet, "/users/u1/fingerprint", http.StatusMethodNotAllowed, "PUT, DELETE"},
		// DELETE is a valid method now; for an unknown user it is a 404.
		{http.MethodDelete, "/users/u1/fingerprint", http.StatusNotFound, ""},
		{http.MethodPut, "/users/u1/neighbors", http.StatusMethodNotAllowed, "GET"},
		{http.MethodPost, "/users/u1/neighbors", http.StatusMethodNotAllowed, "GET"},
		{http.MethodGet, "/users/u1/profile", http.StatusNotFound, ""},
		{http.MethodPut, "/users/u1/fingerprints", http.StatusNotFound, ""},
		{http.MethodGet, "/query", http.StatusMethodNotAllowed, "POST"},
		{http.MethodPatch, "/graph/build", http.StatusMethodNotAllowed, "POST, DELETE"},
		{http.MethodGet, "/build", http.StatusMethodNotAllowed, "POST, DELETE"},
		{http.MethodPost, "/metrics", http.StatusMethodNotAllowed, "GET"},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.wantStatus {
			t.Errorf("%s %s: status %d, want %d", c.method, c.path, resp.StatusCode, c.wantStatus)
		}
		if got := resp.Header.Get("Allow"); got != c.wantAllow {
			t.Errorf("%s %s: Allow %q, want %q", c.method, c.path, got, c.wantAllow)
		}
	}
}

// TestOverwriteInvalidatesPackedCacheAcrossBuilds is the regression test
// for the packed-corpus cache: a PUT that overwrites an existing
// fingerprint must invalidate the cache, so the NEXT build (and query)
// sees the replacement, not the packing of the superseded corpus.
func TestOverwriteInvalidatesPackedCacheAcrossBuilds(t *testing.T) {
	ts, scheme := newTestServer(t)
	// a and b share a profile (similarity 1); c is disjoint from both.
	a, b, c := profile.New(1, 2, 3, 4, 5, 6, 7, 8), profile.New(1, 2, 3, 4, 5, 6, 7, 8), profile.New(900, 901, 902, 903, 904, 905, 906, 907)
	for id, p := range map[string]profile.Profile{"a": a, "b": b, "c": c} {
		resp := putFingerprint(t, ts, scheme, id, p)
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("upload %s: status %d", id, resp.StatusCode)
		}
		resp.Body.Close()
	}
	build := func() {
		t.Helper()
		resp, err := http.Post(ts.URL+"/graph/build?k=1", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("build status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	build()
	if _, nbrs := getNeighborList(t, ts, "a"); len(nbrs) != 1 || nbrs[0].User != "b" || nbrs[0].Similarity != 1 {
		t.Fatalf("pre-overwrite neighbor of a = %+v, want b at 1", nbrs)
	}

	// Overwrite b with c's profile: b is now identical to c, disjoint
	// from a. The first build packed the corpus into the cache; this PUT
	// must invalidate it.
	resp := putFingerprint(t, ts, scheme, "b", c)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("overwrite: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	build()
	_, nbrs := getNeighborList(t, ts, "b")
	if len(nbrs) != 1 || nbrs[0].User != "c" || nbrs[0].Similarity != 1 {
		t.Fatalf("post-overwrite neighbor of b = %+v, want c at 1 (stale packed corpus served?)", nbrs)
	}
	if _, anbrs := getNeighborList(t, ts, "a"); len(anbrs) == 1 && anbrs[0].User == "b" && anbrs[0].Similarity == 1 {
		t.Fatal("a still sees b at similarity 1 after the overwrite: packed cache not invalidated")
	}

	// The query path shares the cache and must also see the replacement.
	var buf bytes.Buffer
	if err := core.WriteFingerprint(&buf, scheme.Fingerprint(c)); err != nil {
		t.Fatal(err)
	}
	qresp, err := http.Post(ts.URL+"/query?k=2", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer qresp.Body.Close()
	var hits []NeighborJSON
	if err := json.NewDecoder(qresp.Body).Decode(&hits); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Fatalf("query returned %d hits, want 2", len(hits))
	}
	for _, h := range hits {
		if h.Similarity != 1 {
			t.Fatalf("query hit %+v, want both b and c at similarity 1", h)
		}
	}
	if !(hits[0].User == "b" && hits[1].User == "c") {
		t.Fatalf("query hits = %+v, want b then c", hits)
	}
}

// TestWALGrowthTriggersCompaction drives enough uploads through a tiny
// compaction threshold that the background compaction must fire and fold
// the WAL into a snapshot, without ever turning away a write.
func TestWALGrowthTriggersCompaction(t *testing.T) {
	dir := t.TempDir()
	st, rec, err := durable.Open(durable.Options{
		Dir: dir, FS: durable.OSFS{}, Fsync: durable.FsyncAlways,
		CompactBytes: 1, // every append crosses the threshold
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, err := NewServer(1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.UseStore(st, rec); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	scheme := core.MustScheme(1024, 7)
	for i := 0; i < 30; i++ {
		resp := putFingerprint(t, ts, scheme, fmt.Sprintf("u%02d", i), profileFor(i))
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("upload %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	// Compaction runs asynchronously; all that matters for correctness is
	// that a restart recovers every acked upload regardless of how many
	// compactions landed in between. One still in flight is waited out: it
	// would otherwise race the reopen below and the temp dir's removal.
	ts.Close()
	for srv.compacting.Load() {
		time.Sleep(time.Millisecond)
	}
	st.Close()
	_, rec2, err := durable.Open(durable.Options{Dir: dir, FS: durable.OSFS{}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rec2.State.Users); got != 30 {
		t.Fatalf("recovered %d users, want 30", got)
	}
	if rec2.State.MutSeq != 30 {
		t.Fatalf("recovered mutSeq %d, want 30", rec2.State.MutSeq)
	}
}

// TestUserIDBound: a user id has one bound, core.MaxUserIDBytes, checked
// before the WAL append. An id one byte over it is refused with 400 —
// also through a router, which passes the shard's 4xx through — and
// leaves no WAL record; an id at the bound survives a build (which saves
// the epoch and compacts) and a kill-restart, epoch included.
func TestUserIDBound(t *testing.T) {
	dir := t.TempDir()
	ts, store, _, scheme := newDurableServer(t, dir, durable.OSFS{})
	rt, err := router.New(router.Config{Shards: []router.ShardSpec{{Name: "shard-0", URL: ts.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	over := strings.Repeat("x", core.MaxUserIDBytes+1)
	for _, base := range []*httptest.Server{ts, rts} {
		resp := putFingerprint(t, base, scheme, over, profileFor(0))
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("PUT of a %d-byte id via %s: status %d, want 400", len(over), base.URL, resp.StatusCode)
		}
	}
	if n := store.Info().WALRecords; n != 0 {
		t.Fatalf("refused PUTs left %d WAL records", n)
	}

	maxID := over[1:]
	ids := []string{maxID, userID(1), userID(2)}
	for i, id := range ids {
		resp := putFingerprint(t, ts, scheme, id, profileFor(i))
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("PUT %d: status %d", i, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/graph/build?k=2", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("build: status %d", resp.StatusCode)
	}
	if st := getStats(t, ts); st.LastDurableError != "" || st.SnapshotGen == 0 {
		t.Fatalf("after build: snapshot gen %d, durable error %q", st.SnapshotGen, st.LastDurableError)
	}
	ts.Close() // the store handle is abandoned, not closed: a "kill"

	ts2, _, rec, _ := newDurableServer(t, dir, durable.OSFS{})
	if len(rec.State.Users) != len(ids) || rec.State.Users[0] != maxID {
		t.Fatalf("recovered %d users, want %d with the long id first", len(rec.State.Users), len(ids))
	}
	if rec.Epoch == nil || len(rec.Epoch.Users) != len(ids) || rec.Epoch.Users[0] != maxID {
		t.Fatal("the epoch holding the long id was not recovered")
	}
	if status, nbrs := getNeighborList(t, ts2, maxID); status != http.StatusOK || len(nbrs) != 2 {
		t.Fatalf("neighbors of the long id after restart: status %d, %d entries", status, len(nbrs))
	}
}
