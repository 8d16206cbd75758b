package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"goldfinger/internal/core"
	"goldfinger/internal/dataset"
	"goldfinger/internal/profile"
)

func newTestServer(t *testing.T) (*httptest.Server, *core.Scheme) {
	t.Helper()
	srv, err := NewServer(1024)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, core.MustScheme(1024, 7)
}

func putFingerprint(t *testing.T, ts *httptest.Server, scheme *core.Scheme, id string, p profile.Profile) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if err := core.WriteFingerprint(&buf, scheme.Fingerprint(p)); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/users/"+id+"/fingerprint", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(0); err == nil {
		t.Error("bits=0 accepted")
	}
}

func TestHealthAndStats(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v, %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Users != 0 || st.Bits != 1024 || st.GraphBuilt {
		t.Errorf("fresh stats = %+v", st)
	}
}

func TestUploadBuildNeighborsFlow(t *testing.T) {
	ts, scheme := newTestServer(t)
	d := dataset.Generate(dataset.ML1M, 0.01, 3)
	for i, p := range d.Profiles {
		resp := putFingerprint(t, ts, scheme, userID(i), p)
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("upload %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}

	resp, err := http.Post(ts.URL+"/graph/build?k=5", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("build status %d", resp.StatusCode)
	}
	var br BuildResult
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if br.Users != d.NumUsers() || br.K != 5 || br.Comparisons == 0 {
		t.Errorf("build result = %+v", br)
	}

	nresp, err := http.Get(ts.URL + "/users/" + userID(0) + "/neighbors")
	if err != nil {
		t.Fatal(err)
	}
	defer nresp.Body.Close()
	var nbrs []NeighborJSON
	if err := json.NewDecoder(nresp.Body).Decode(&nbrs); err != nil {
		t.Fatal(err)
	}
	if len(nbrs) != 5 {
		t.Fatalf("got %d neighbors, want 5", len(nbrs))
	}
	for i := 1; i < len(nbrs); i++ {
		if nbrs[i].Similarity > nbrs[i-1].Similarity {
			t.Error("neighbors not sorted by similarity")
		}
	}
}

func userID(i int) string {
	return "user-" + strings.Repeat("0", 3-len(itoa(i))) + itoa(i)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestUploadErrors(t *testing.T) {
	ts, scheme := newTestServer(t)

	// Wrong fingerprint length.
	small := core.MustScheme(64, 1)
	var buf bytes.Buffer
	if err := core.WriteFingerprint(&buf, small.Fingerprint(profile.New(1))); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/users/x/fingerprint", &buf)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("wrong-length upload: status %d", resp.StatusCode)
	}

	// Garbage payload.
	req, _ = http.NewRequest(http.MethodPut, ts.URL+"/users/x/fingerprint", strings.NewReader("garbage"))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage upload: status %d", resp.StatusCode)
	}

	// GET on fingerprint path.
	resp, err = http.Get(ts.URL + "/users/x/fingerprint")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET fingerprint: status %d", resp.StatusCode)
	}

	// Bad path.
	resp, err = http.Get(ts.URL + "/users/onlyid")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("bad path: status %d", resp.StatusCode)
	}
	_ = scheme
}

func TestBuildErrors(t *testing.T) {
	ts, scheme := newTestServer(t)

	// Too few users.
	resp, _ := http.Post(ts.URL+"/graph/build", "", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("empty build: status %d", resp.StatusCode)
	}

	putFingerprint(t, ts, scheme, "a", profile.New(1, 2)).Body.Close()
	putFingerprint(t, ts, scheme, "b", profile.New(2, 3)).Body.Close()

	// Bad k.
	resp, _ = http.Post(ts.URL+"/graph/build?k=zero", "", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad k: status %d", resp.StatusCode)
	}
	// Bad algorithm.
	resp, _ = http.Post(ts.URL+"/graph/build?algo=magic", "", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad algo: status %d", resp.StatusCode)
	}
	// GET instead of POST.
	resp, _ = http.Get(ts.URL + "/graph/build")
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET build: status %d", resp.StatusCode)
	}
}

func TestNeighborsErrors(t *testing.T) {
	ts, scheme := newTestServer(t)
	putFingerprint(t, ts, scheme, "a", profile.New(1, 2)).Body.Close()

	// Graph not built yet.
	resp, _ := http.Get(ts.URL + "/users/a/neighbors")
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("no graph: status %d", resp.StatusCode)
	}
	// Unknown user.
	resp, _ = http.Get(ts.URL + "/users/ghost/neighbors")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown user: status %d", resp.StatusCode)
	}
}

func TestQueryTopK(t *testing.T) {
	ts, scheme := newTestServer(t)
	putFingerprint(t, ts, scheme, "twin", profile.New(1, 2, 3, 4)).Body.Close()
	putFingerprint(t, ts, scheme, "close", profile.New(1, 2, 3, 9)).Body.Close()
	putFingerprint(t, ts, scheme, "far", profile.New(100, 200, 300)).Body.Close()

	var buf bytes.Buffer
	if err := core.WriteFingerprint(&buf, scheme.Fingerprint(profile.New(1, 2, 3, 4))); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/query?k=2", "application/octet-stream", &buf)
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
	if len(got) != 2 || got[0].User != "twin" || got[0].Similarity != 1 {
		t.Errorf("query result = %+v", got)
	}
	if got[1].User != "close" {
		t.Errorf("second hit = %+v, want close", got[1])
	}
}

func TestQueryErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, _ := http.Get(ts.URL + "/query")
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET query: status %d", resp.StatusCode)
	}
	resp, _ = http.Post(ts.URL+"/query?k=-1", "", strings.NewReader(""))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad k: status %d", resp.StatusCode)
	}
	resp, _ = http.Post(ts.URL+"/query", "", strings.NewReader("junk"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("junk body: status %d", resp.StatusCode)
	}
}

func TestHugeKIsClampedNotFatal(t *testing.T) {
	// k comes straight from the query string; before clamping, an absurd
	// value panicked in TopK's worker goroutines ("makeslice: cap out of
	// range"), which net/http's per-request recover does not catch — the
	// whole process died. With the clamp both endpoints serve normally.
	ts, scheme := newTestServer(t)
	putFingerprint(t, ts, scheme, "a", profile.New(1, 2)).Body.Close()
	putFingerprint(t, ts, scheme, "b", profile.New(2, 3)).Body.Close()

	var buf bytes.Buffer
	if err := core.WriteFingerprint(&buf, scheme.Fingerprint(profile.New(1, 2))); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/query?k=1000000000000000000", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("huge-k query: status %d", resp.StatusCode)
	}
	var got []NeighborJSON
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("huge-k query returned %d results, want all 2", len(got))
	}

	bresp, err := http.Post(ts.URL+"/graph/build?k=1000000000000000000", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer bresp.Body.Close()
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("huge-k build: status %d", bresp.StatusCode)
	}
	var br BuildResult
	if err := json.NewDecoder(bresp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if br.K != 1 {
		t.Errorf("huge-k build reported k=%d, want clamp to n-1=1", br.K)
	}
}

func TestConcurrentUploadsAndQueries(t *testing.T) {
	ts, scheme := newTestServer(t)
	d := dataset.Generate(dataset.ML1M, 0.01, 9)

	// Seed a few users and build once so queries have something to hit.
	for i := 0; i < 10; i++ {
		putFingerprint(t, ts, scheme, userID(i), d.Profiles[i]).Body.Close()
	}
	resp, err := http.Post(ts.URL+"/graph/build?k=3", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Hammer the server with concurrent uploads, queries and reads.
	done := make(chan error, 30)
	for w := 0; w < 10; w++ {
		go func(w int) {
			resp := putFingerprint(t, ts, scheme, userID(100+w), d.Profiles[w%10])
			resp.Body.Close()
			done <- nil
		}(w)
		go func(w int) {
			var buf bytes.Buffer
			if err := core.WriteFingerprint(&buf, scheme.Fingerprint(d.Profiles[w%10])); err != nil {
				done <- err
				return
			}
			resp, err := http.Post(ts.URL+"/query?k=3", "application/octet-stream", &buf)
			if err != nil {
				done <- err
				return
			}
			resp.Body.Close()
			done <- nil
		}(w)
		go func(w int) {
			resp, err := http.Get(ts.URL + "/users/" + userID(w%10) + "/neighbors")
			if err != nil {
				done <- err
				return
			}
			resp.Body.Close()
			done <- nil
		}(w)
	}
	for i := 0; i < 30; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestReuploadReplacesAndStaysLive(t *testing.T) {
	ts, scheme := newTestServer(t)
	putFingerprint(t, ts, scheme, "a", profile.New(1, 2)).Body.Close()
	putFingerprint(t, ts, scheme, "b", profile.New(2, 3)).Body.Close()
	resp, _ := http.Post(ts.URL+"/graph/build?k=1", "", nil)
	resp.Body.Close()

	// Re-upload a: the overwrite is applied to the live graph, so the user
	// count stays 2 and the epoch stays warm instead of flipping stale.
	putFingerprint(t, ts, scheme, "a", profile.New(5, 6)).Body.Close()
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st Stats
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Users != 2 {
		t.Errorf("users = %d after re-upload, want 2", st.Users)
	}
	if st.GraphStale || !st.GraphLive {
		t.Errorf("stats after re-upload = %+v, want warm live graph", st)
	}
}

// TestViewSharedUntilMutation: loads without an intervening mutation return
// the same immutable view, and any upload (new user or replacement)
// publishes a successor that reflects the new fingerprints while the old
// view keeps its rows.
func TestViewSharedUntilMutation(t *testing.T) {
	srv, err := NewServer(1024)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	scheme := core.MustScheme(1024, 7)

	putFingerprint(t, ts, scheme, "a", profile.New(1, 2, 3)).Body.Close()
	putFingerprint(t, ts, scheme, "b", profile.New(100, 200)).Body.Close()

	v1 := srv.view.Load()
	if v1.corpus.NumUsers() != 2 || v1.users.Len() != 2 {
		t.Fatalf("view has %d rows, %d users, want 2", v1.corpus.NumUsers(), v1.users.Len())
	}
	if v2 := srv.view.Load(); v1 != v2 {
		t.Error("back-to-back loads returned different views")
	}

	// Replacing a's fingerprint publishes a new view holding the new bits
	// at a's index; the old view still holds the old ones.
	putFingerprint(t, ts, scheme, "a", profile.New(7, 8, 9)).Body.Close()
	v3 := srv.view.Load()
	if v3 == v1 {
		t.Fatal("view after re-upload is the pre-upload view")
	}
	want := scheme.Fingerprint(profile.New(7, 8, 9))
	if got := core.Jaccard(want, v3.corpus.Fingerprint(0)); got != 1 {
		t.Errorf("new view row 0 has Jaccard %v vs the re-uploaded fingerprint, want 1", got)
	}
	old := scheme.Fingerprint(profile.New(1, 2, 3))
	if got := core.Jaccard(old, v1.corpus.Fingerprint(0)); got != 1 {
		t.Errorf("old view row 0 changed under its reader: Jaccard %v vs the original, want 1", got)
	}
}

// TestQueryReflectsReupload drives the same invalidation through the public
// API: after "b" re-uploads the query profile's exact fingerprint, /query
// must rank b first — a stale packed cache would keep serving the old bits.
func TestQueryReflectsReupload(t *testing.T) {
	ts, scheme := newTestServer(t)
	putFingerprint(t, ts, scheme, "a", profile.New(1, 2, 3)).Body.Close()
	putFingerprint(t, ts, scheme, "b", profile.New(100, 200)).Body.Close()

	query := func() []NeighborJSON {
		t.Helper()
		var buf bytes.Buffer
		if err := core.WriteFingerprint(&buf, scheme.Fingerprint(profile.New(1, 2, 3))); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/query?k=1", "application/octet-stream", &buf)
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

	if got := query(); len(got) != 1 || got[0].User != "a" || got[0].Similarity != 1 {
		t.Fatalf("before re-upload: got %+v, want a at sim 1", got)
	}
	putFingerprint(t, ts, scheme, "b", profile.New(1, 2, 3)).Body.Close()
	putFingerprint(t, ts, scheme, "a", profile.New(500, 600)).Body.Close()
	if got := query(); len(got) != 1 || got[0].User != "b" || got[0].Similarity != 1 {
		t.Fatalf("after re-upload: got %+v, want b at sim 1", got)
	}
}
