package service

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"goldfinger/internal/admit"
	"goldfinger/internal/core"
	"goldfinger/internal/durable"
	"goldfinger/internal/profile"
)

// assertRetryAfter asserts the response carries a Retry-After header that
// parses as a non-negative integer — the RFC 9110 contract every 409/429/
// 503 this server emits must honor so retrying clients can obey it.
func assertRetryAfter(t *testing.T, resp *http.Response) {
	t.Helper()
	v := resp.Header.Get("Retry-After")
	if v == "" {
		t.Fatalf("status %d without Retry-After header", resp.StatusCode)
	}
	secs, err := strconv.Atoi(v)
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", v, err)
	}
	if secs < 0 {
		t.Fatalf("Retry-After %d is negative", secs)
	}
}

// tinyAdmission is a config small enough to saturate from a unit test.
func tinyAdmission() admit.Config {
	return admit.Config{
		Read:  admit.ClassConfig{MaxInflight: 8, MaxQueue: 8, Timeout: 5 * time.Second},
		Query: admit.ClassConfig{MaxInflight: 1, MaxQueue: 1, Timeout: 5 * time.Second},
		Write: admit.ClassConfig{MaxInflight: 1, MaxQueue: 0, Timeout: 5 * time.Second},
	}
}

// blockedBuildServer returns a server whose next build blocks until the
// returned release func is called — the build occupies one Write slot for
// its whole duration, which is exactly what the admission tests need.
func blockedBuildServer(t *testing.T, cfg admit.Config) (*Server, *httptest.Server, *core.Scheme, func()) {
	t.Helper()
	srv, err := NewServer(1024)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetAdmission(cfg)
	gate := make(chan struct{})
	var once sync.Once
	srv.buildHook = func() { <-gate }
	release := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, core.MustScheme(1024, 7), release
}

// TestWriteShedWhileBuildHoldsSlot: with Write MaxInflight=1/MaxQueue=0, a
// blocked build occupies the only write slot, so an upload is shed with
// 503 + parseable Retry-After, fast.
func TestWriteShedWhileBuildHoldsSlot(t *testing.T) {
	_, ts, scheme, release := blockedBuildServer(t, tinyAdmission())
	putFingerprint(t, ts, scheme, "a", profile.New(1, 2)).Body.Close()
	putFingerprint(t, ts, scheme, "b", profile.New(2, 3)).Body.Close()

	buildDone := make(chan struct{})
	go func() {
		defer close(buildDone)
		resp, err := http.Post(ts.URL+"/graph/build?k=1", "", nil)
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitUntil(t, func() bool { return getStats(t, ts).BuildRunning })

	start := time.Now()
	resp := putFingerprint(t, ts, scheme, "c", profile.New(3, 4))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed PUT: status %d, want 503", resp.StatusCode)
	}
	assertRetryAfter(t, resp)
	if d := time.Since(start); d > time.Second {
		t.Errorf("shed PUT took %v, want fail-fast", d)
	}

	st := getStats(t, ts)
	if st.Admission["write"].Shed == 0 {
		t.Errorf("write shed not counted: %+v", st.Admission["write"])
	}
	release()
	<-buildDone

	// With the build finished the slot is free again: the upload goes
	// through — shedding is transient, not sticky.
	resp2 := putFingerprint(t, ts, scheme, "c", profile.New(3, 4))
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNoContent {
		t.Fatalf("post-build PUT: status %d, want 204", resp2.StatusCode)
	}
}

// TestDeadlineExceededInQueue: Write MaxQueue=1 queues the upload behind
// the blocked build; its X-Request-Timeout expires in the queue and it
// fails with 503 + Retry-After near the deadline, not at the class
// default 5s, and the decision is counted.
func TestDeadlineExceededInQueue(t *testing.T) {
	cfg := tinyAdmission()
	cfg.Write.MaxQueue = 1
	_, ts, scheme, release := blockedBuildServer(t, cfg)
	putFingerprint(t, ts, scheme, "a", profile.New(1, 2)).Body.Close()
	putFingerprint(t, ts, scheme, "b", profile.New(2, 3)).Body.Close()

	buildDone := make(chan struct{})
	go func() {
		defer close(buildDone)
		resp, err := http.Post(ts.URL+"/graph/build?k=1", "", nil)
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitUntil(t, func() bool { return getStats(t, ts).BuildRunning })
	defer func() { release(); <-buildDone }()

	var buf bytes.Buffer
	if err := core.WriteFingerprint(&buf, core.MustScheme(1024, 7).Fingerprint(profile.New(9))); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/users/q/fingerprint", &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(HeaderRequestTimeout, "100ms")
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queued-deadline PUT: status %d, want 503", resp.StatusCode)
	}
	assertRetryAfter(t, resp)
	if d := time.Since(start); d < 80*time.Millisecond || d > 2*time.Second {
		t.Errorf("queued-deadline PUT took %v, want ≈100ms", d)
	}
	if st := getStats(t, ts); st.Admission["write"].DeadlineExceeded == 0 {
		t.Errorf("deadline decision not counted: %+v", st.Admission["write"])
	}
}

// TestRateLimit429: an exhausted token bucket answers 429 with a
// parseable Retry-After on every class.
func TestRateLimit429(t *testing.T) {
	srv, err := NewServer(1024)
	if err != nil {
		t.Fatal(err)
	}
	cfg := admit.DefaultConfig()
	cfg.Rate = 1e-9 // one initial token, effectively no refill
	cfg.Burst = 1
	srv.SetAdmission(cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request spent the token: status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("rate-limited request: status %d, want 429", resp.StatusCode)
	}
	assertRetryAfter(t, resp)

	// /healthz bypasses admission: probes must survive rate limiting.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz under rate limit: status %d, want 200", hresp.StatusCode)
	}
}

// TestRequestTimeoutHeader: malformed and non-positive values are 400;
// a microscopic timeout aborts the query mid-scan with 503 + Retry-After
// and bumps query.deadline.total.
func TestRequestTimeoutHeader(t *testing.T) {
	ts, scheme := newTestServer(t)
	putFingerprint(t, ts, scheme, "a", profile.New(1, 2)).Body.Close()
	putFingerprint(t, ts, scheme, "b", profile.New(2, 3)).Body.Close()

	query := func(timeout string) *http.Response {
		t.Helper()
		var buf bytes.Buffer
		if err := core.WriteFingerprint(&buf, scheme.Fingerprint(profile.New(1, 2))); err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/query?k=1", &buf)
		if err != nil {
			t.Fatal(err)
		}
		if timeout != "" {
			req.Header.Set(HeaderRequestTimeout, timeout)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	for _, bad := range []string{"garbage", "-1s", "0", "-3"} {
		resp := query(bad)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("timeout header %q: status %d, want 400", bad, resp.StatusCode)
		}
	}

	// Sane timeouts in both syntaxes succeed.
	for _, good := range []string{"2s", "2"} {
		resp := query(good)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("timeout header %q: status %d, want 200", good, resp.StatusCode)
		}
	}

	// 1ns is parsed fine but expires before the scan's first tile: the
	// query must abort with 503 + Retry-After, counted as a deadline.
	resp := query("1ns")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("1ns timeout: status %d, want 503", resp.StatusCode)
	}
	assertRetryAfter(t, resp)
	if st := getStats(t, ts); st.QueryDeadlines == 0 {
		t.Errorf("query deadline not counted: %+v", st)
	}
}

// TestQueryClientDisconnectCounted: a query whose client vanished is
// abandoned (knn.TopKRangeCtx refuses the dead context) and counted in
// query_canceled, without burning a scan.
func TestQueryClientDisconnectCounted(t *testing.T) {
	srv, err := NewServer(1024)
	if err != nil {
		t.Fatal(err)
	}
	scheme := core.MustScheme(1024, 7)
	h := srv.Handler()

	upload := func(id string, p profile.Profile) {
		var buf bytes.Buffer
		if err := core.WriteFingerprint(&buf, scheme.Fingerprint(p)); err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPut, "/users/"+id+"/fingerprint", &buf)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusNoContent {
			t.Fatalf("upload %s: status %d", id, rec.Code)
		}
	}
	upload("a", profile.New(1, 2))
	upload("b", profile.New(2, 3))

	var buf bytes.Buffer
	if err := core.WriteFingerprint(&buf, scheme.Fingerprint(profile.New(1, 2))); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is already gone
	req := httptest.NewRequest(http.MethodPost, "/query?k=1", &buf).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Errorf("disconnected query: status %d, want %d", rec.Code, statusClientClosedRequest)
	}
	if got := srv.obs.Counter(metricQueryCanceled).Value(); got != 1 {
		t.Errorf("query.canceled.total = %d, want 1", got)
	}
}

// TestBuildConflictRetryAfterComputed: the 409 for a concurrent build
// carries a Retry-After derived from build state — with a 90s build
// timeout configured, the advice must reflect the remaining deadline, not
// the old hardcoded "1".
func TestBuildConflictRetryAfterComputed(t *testing.T) {
	srv, ts, scheme, release := blockedBuildServer(t, admit.DefaultConfig())
	srv.SetBuildTimeout(90 * time.Second)
	putFingerprint(t, ts, scheme, "a", profile.New(1, 2)).Body.Close()
	putFingerprint(t, ts, scheme, "b", profile.New(2, 3)).Body.Close()

	buildDone := make(chan struct{})
	go func() {
		defer close(buildDone)
		resp, err := http.Post(ts.URL+"/graph/build?k=1", "", nil)
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitUntil(t, func() bool { return getStats(t, ts).BuildRunning })
	defer func() { release(); <-buildDone }()

	resp, err := http.Post(ts.URL+"/graph/build?k=1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("concurrent build: status %d, want 409", resp.StatusCode)
	}
	assertRetryAfter(t, resp)
	secs, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
	if secs < 30 || secs > 90 {
		t.Errorf("Retry-After = %ds, want within the remaining 90s build deadline", secs)
	}
}

// TestDegradedAndAdmissionInterplay is the degraded-mode × admission
// matrix: with the durable store read-only, queries and neighbor reads
// are still admitted under their classes, writes are rejected, and
// /healthz + /stats report the degraded and overloaded conditions
// distinctly (degraded without overload here).
func TestDegradedAndAdmissionInterplay(t *testing.T) {
	dir := t.TempDir()
	ffs := &durable.FaultFS{Inner: durable.OSFS{}}
	ts, store, _, scheme := newDurableServer(t, dir, ffs)
	t.Cleanup(func() { store.Close() })

	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("u%d", i)
		resp := putFingerprint(t, ts, scheme, id, profile.New(profile.ItemID(i), profile.ItemID(i+1)))
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("seed upload %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp, err := http.Post(ts.URL+"/graph/build?k=1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	ffs.CrashNow() // data dir dies; next write flips degraded

	// Writes: admitted by the write class, then rejected by the store.
	wresp := putFingerprint(t, ts, scheme, "late", profile.New(50))
	defer wresp.Body.Close()
	if wresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded PUT: status %d, want 503", wresp.StatusCode)
	}
	assertRetryAfter(t, wresp)

	// Queries and reads: still admitted and served.
	var buf bytes.Buffer
	if err := core.WriteFingerprint(&buf, scheme.Fingerprint(profile.New(0, 1))); err != nil {
		t.Fatal(err)
	}
	qresp, err := http.Post(ts.URL+"/query?k=1", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	qresp.Body.Close()
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("degraded query: status %d, want 200", qresp.StatusCode)
	}
	nresp, err := http.Get(ts.URL + "/users/u0/neighbors")
	if err != nil {
		t.Fatal(err)
	}
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusOK {
		t.Fatalf("degraded neighbors: status %d, want 200", nresp.StatusCode)
	}

	// The two conditions are reported distinctly: degraded yes (sticky),
	// overloaded no (nothing is queueing).
	st := getStats(t, ts)
	if !st.Durable || !st.Degraded {
		t.Errorf("stats degraded fields: %+v", st)
	}
	if st.Overloaded {
		t.Error("stats reports overloaded with idle limiters")
	}
	if st.Admission["query"].Admitted+st.Admission["query"].QueuedAdmitted == 0 {
		t.Errorf("degraded query not admitted under query class: %+v", st.Admission["query"])
	}
	if st.Admission["write"].Shed != 0 {
		t.Errorf("degraded write counted as admission shed (it was admitted, then refused by the store): %+v", st.Admission["write"])
	}
	hbody := healthzBody(t, ts)
	if !bytes.Contains(hbody, []byte("degraded")) || bytes.Contains(hbody, []byte("overloaded")) {
		t.Errorf("healthz body %q: want degraded only", hbody)
	}
}

// TestServiceOverloadGracefulDegradation is the in-package overload
// check: many more concurrent queries than MaxInflight+MaxQueue, every
// response is 200 or a fast 503-with-Retry-After, and the goroutine count
// returns to baseline.
func TestServiceOverloadGracefulDegradation(t *testing.T) {
	srv, err := NewServer(1024)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetAdmission(tinyAdmission()) // query: 1 in flight, 1 queued
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	scheme := core.MustScheme(1024, 7)
	for i := 0; i < 50; i++ {
		putFingerprint(t, ts, scheme, fmt.Sprintf("u%d", i), profile.New(profile.ItemID(i), profile.ItemID(2*i+1))).Body.Close()
	}

	baseline := runtime.NumGoroutine()
	var ok200, shed503, other atomic.Int64
	var wg sync.WaitGroup
	client := &http.Client{Timeout: 10 * time.Second}
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				var buf bytes.Buffer
				if err := core.WriteFingerprint(&buf, scheme.Fingerprint(profile.New(1, 2))); err != nil {
					other.Add(1)
					return
				}
				resp, err := client.Post(ts.URL+"/query?k=3", "application/octet-stream", &buf)
				if err != nil {
					other.Add(1)
					continue
				}
				switch resp.StatusCode {
				case http.StatusOK:
					ok200.Add(1)
				case http.StatusServiceUnavailable:
					if resp.Header.Get("Retry-After") == "" {
						other.Add(1)
					} else {
						shed503.Add(1)
					}
				default:
					other.Add(1)
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	if other.Load() != 0 {
		t.Errorf("%d responses were neither 200 nor 503+Retry-After", other.Load())
	}
	if ok200.Load() == 0 {
		t.Error("no queries succeeded under overload")
	}
	t.Logf("overload: %d ok, %d shed", ok200.Load(), shed503.Load())

	// Goroutines drain back to (near) baseline once the storm stops.
	http.DefaultClient.CloseIdleConnections()
	client.CloseIdleConnections()
	waitUntil(t, func() bool { return runtime.NumGoroutine() <= baseline+10 })
}

func healthzBody(t *testing.T, ts *httptest.Server) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 256)
	n, _ := resp.Body.Read(buf)
	return buf[:n]
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached within 10s")
}
