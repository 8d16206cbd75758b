package router

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"goldfinger/internal/obs"
)

// fakeShard is a scriptable backend: an httptest server whose /query
// answer, failure mode and latency are mutable mid-test.
type fakeShard struct {
	srv   *httptest.Server
	hits  atomic.Pointer[[]Hit]
	mode  atomic.Int32 // 0 ok, 1 http-500, 2 shed-429, 3 shed-503+RA, 4 stall
	delay atomic.Int64 // ns, applied to /query before answering
	puts  chan string  // user ids of received mutations
	calls atomic.Int64
	rings atomic.Int64 // POST /ring pushes received
}

const (
	modeOK = iota
	mode500
	mode429
	mode503RA
	modeStall
)

func newFakeShard(t *testing.T, hits []Hit) *fakeShard {
	t.Helper()
	fs := &fakeShard{puts: make(chan string, 256)}
	fs.hits.Store(&hits)
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if fs.mode.Load() != modeOK {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"users": %d, "epoch": 1}`, len(*fs.hits.Load()))
	})
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		fs.calls.Add(1)
		if d := fs.delay.Load(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		switch fs.mode.Load() {
		case mode500:
			http.Error(w, "boom", http.StatusInternalServerError)
		case mode429:
			w.Header().Set("Retry-After", "1")
			http.Error(w, "rate limited", http.StatusTooManyRequests)
		case mode503RA:
			w.Header().Set("Retry-After", "2")
			http.Error(w, "shedding", http.StatusServiceUnavailable)
		case modeStall:
			// Swallow the request until the router's deadline reaps it. The
			// body must be drained first: net/http only watches for client
			// disconnect once the body is consumed, and without that the
			// context never fires and Server.Close deadlocks on this handler.
			io.Copy(io.Discard, r.Body)
			select {
			case <-r.Context().Done():
			case <-time.After(5 * time.Second): // test-shutdown backstop
			}
		default:
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(*fs.hits.Load())
		}
	})
	mux.HandleFunc("/ring", func(w http.ResponseWriter, r *http.Request) {
		fs.rings.Add(1)
		fmt.Fprintln(w, "{}")
	})
	// A migration step between fake shards moves nothing and succeeds.
	mux.HandleFunc("/migrate/", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "{}")
	})
	mux.HandleFunc("/users/", func(w http.ResponseWriter, r *http.Request) {
		parts := strings.Split(strings.TrimPrefix(r.URL.Path, "/users/"), "/")
		switch fs.mode.Load() {
		case mode500:
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		case mode503RA:
			w.Header().Set("Retry-After", "2")
			http.Error(w, "degraded (read-only)", http.StatusServiceUnavailable)
			return
		}
		switch r.Method {
		case http.MethodPut:
			fs.puts <- parts[0]
			w.WriteHeader(http.StatusNoContent)
		case http.MethodGet:
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"user": %q, "neighbors": []}`, parts[0])
		case http.MethodDelete:
			w.WriteHeader(http.StatusNoContent)
		}
	})
	fs.srv = httptest.NewServer(mux)
	t.Cleanup(fs.srv.Close)
	return fs
}

// newTestRouter assembles a router over the given fake shards with tight,
// test-friendly timings. Hedging defaults off for determinism; tests that
// exercise it override cfg.
func newTestRouter(t *testing.T, cfg Config, shards ...*fakeShard) *Router {
	t.Helper()
	for i, fs := range shards {
		cfg.Shards = append(cfg.Shards, ShardSpec{Name: fmt.Sprintf("shard-%d", i), URL: fs.srv.URL})
	}
	if cfg.QueryTimeout == 0 {
		cfg.QueryTimeout = 2 * time.Second
	}
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = -1 // deterministic unless a test opts in
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 25 * time.Millisecond
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

func postQuery(t *testing.T, h http.Handler, k int) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/query?k="+strconv.Itoa(k), strings.NewReader("fp"))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decodeHits(t *testing.T, body io.Reader) []Hit {
	t.Helper()
	var hits []Hit
	if err := json.NewDecoder(body).Decode(&hits); err != nil {
		t.Fatalf("decoding hits: %v", err)
	}
	return hits
}

func TestScatterGatherMergesAllShards(t *testing.T) {
	a := newFakeShard(t, []Hit{{User: "a1", Similarity: 0.9}, {User: "a2", Similarity: 0.3}})
	b := newFakeShard(t, []Hit{{User: "b1", Similarity: 0.7}})
	c := newFakeShard(t, []Hit{{User: "c1", Similarity: 0.5}})
	r := newTestRouter(t, Config{}, a, b, c)
	h := r.Handler()

	rec := postQuery(t, h, 3)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(HeaderPartialResults); got != "3/3" {
		t.Errorf("%s = %q, want 3/3", HeaderPartialResults, got)
	}
	hits := decodeHits(t, rec.Body)
	want := []Hit{{User: "a1", Similarity: 0.9}, {User: "b1", Similarity: 0.7}, {User: "c1", Similarity: 0.5}}
	if len(hits) != 3 || hits[0] != want[0] || hits[1] != want[1] || hits[2] != want[2] {
		t.Errorf("merged = %v, want %v", hits, want)
	}
}

func TestPartialResultsWhenMinorityDown(t *testing.T) {
	a := newFakeShard(t, []Hit{{User: "a1", Similarity: 0.9}})
	b := newFakeShard(t, []Hit{{User: "b1", Similarity: 0.7}})
	c := newFakeShard(t, []Hit{{User: "c1", Similarity: 0.5}})
	d := newFakeShard(t, []Hit{{User: "d1", Similarity: 0.4}})
	r := newTestRouter(t, Config{Retries: -1}, a, b, c, d)
	h := r.Handler()
	d.srv.Close() // hard-kill one of four

	rec := postQuery(t, h, 10)
	if rec.Code != http.StatusOK {
		t.Fatalf("status with 3/4 alive = %d, want 200: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(HeaderPartialResults); got != "3/4" {
		t.Errorf("%s = %q, want 3/4", HeaderPartialResults, got)
	}
	if hits := decodeHits(t, rec.Body); len(hits) != 3 {
		t.Errorf("got %d hits from the surviving shards, want 3", len(hits))
	}
}

func TestQuorum503CarriesRetryAfter(t *testing.T) {
	a := newFakeShard(t, []Hit{{User: "a1", Similarity: 0.9}})
	b := newFakeShard(t, []Hit{{User: "b1", Similarity: 0.7}})
	r := newTestRouter(t, Config{Quorum: 0.75, Retries: -1,
		Breaker: BreakerConfig{ConsecutiveFails: 1, OpenFor: 30 * time.Second}}, a, b)
	h := r.Handler()
	b.srv.Close() // 1/2 < quorum 0.75 → must refuse

	rec := postQuery(t, h, 10)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status below quorum = %d, want 503: %s", rec.Code, rec.Body.String())
	}
	ra := rec.Header().Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Fatalf("below-quorum 503 Retry-After = %q, want integer seconds ≥ 1", ra)
	}
	// The first 503's Retry-After may predate the breaker trip (the failure
	// that trips it is this very request); once the breaker is open the
	// Retry-After must reflect its half-open deadline.
	rec = postQuery(t, h, 10)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("second status = %d, want 503", rec.Code)
	}
	secs, err = strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil || secs < 2 {
		t.Errorf("open-breaker 503 Retry-After = %q, want ≥ 2s (breaker holds 30s)", rec.Header().Get("Retry-After"))
	}
}

// TestShedDoesNotTripBreakerOrFailQuery pins the satellite: one shard
// shedding with 429 must neither trip its breaker nor fail the whole
// scatter-gather — the query still answers 200 from the remaining shards.
func TestShedDoesNotTripBreakerOrFailQuery(t *testing.T) {
	a := newFakeShard(t, []Hit{{User: "a1", Similarity: 0.9}})
	b := newFakeShard(t, nil)
	b.mode.Store(mode429)
	r := newTestRouter(t, Config{Breaker: BreakerConfig{ConsecutiveFails: 2, MinSamples: 4, ErrorRate: 0.25}}, a, b)
	h := r.Handler()

	for i := 0; i < 20; i++ {
		rec := postQuery(t, h, 5)
		if rec.Code != http.StatusOK {
			t.Fatalf("query %d: status %d, want 200 despite one shard shedding: %s", i, rec.Code, rec.Body.String())
		}
		if got := rec.Header().Get(HeaderPartialResults); got != "1/2" {
			t.Fatalf("query %d: %s = %q, want 1/2", i, HeaderPartialResults, got)
		}
	}
	if st := r.testShard(1).breaker.State(); st != BreakerClosed {
		t.Errorf("breaker of the shedding shard = %v, want closed — backpressure is not failure", st)
	}
	// Same for an honest 503+Retry-After (admission shed / degraded mode).
	b.mode.Store(mode503RA)
	for i := 0; i < 20; i++ {
		if rec := postQuery(t, h, 5); rec.Code != http.StatusOK {
			t.Fatalf("query %d with 503+RA shard: status %d, want 200", i, rec.Code)
		}
	}
	if st := r.testShard(1).breaker.State(); st != BreakerClosed {
		t.Errorf("breaker after 503+Retry-After sheds = %v, want closed", st)
	}
}

func TestBreakerOpensOnFailuresAndRecovers(t *testing.T) {
	a := newFakeShard(t, []Hit{{User: "a1", Similarity: 0.9}})
	b := newFakeShard(t, []Hit{{User: "b1", Similarity: 0.7}})
	b.mode.Store(mode500)
	r := newTestRouter(t, Config{
		Retries: -1,
		Breaker: BreakerConfig{ConsecutiveFails: 3, OpenFor: 100 * time.Millisecond},
	}, a, b)
	h := r.Handler()

	for i := 0; i < 5; i++ {
		if rec := postQuery(t, h, 5); rec.Code != http.StatusOK {
			t.Fatalf("query %d: status %d, want 200 (partial)", i, rec.Code)
		}
	}
	if st := r.testShard(1).breaker.State(); st != BreakerOpen {
		t.Fatalf("breaker after persistent 500s = %v, want open", st)
	}
	calls := b.calls.Load()
	postQuery(t, h, 5)
	if b.calls.Load() != calls {
		t.Error("open breaker still dialed the sick shard")
	}

	// Shard recovers; the active prober must re-close the breaker without
	// any live traffic volunteering as the probe.
	b.mode.Store(modeOK)
	deadline := time.Now().Add(3 * time.Second)
	for r.testShard(1).breaker.State() != BreakerClosed {
		if time.Now().After(deadline) {
			t.Fatalf("breaker did not re-close within one open interval + probe; state %v", r.testShard(1).breaker.State())
		}
		time.Sleep(10 * time.Millisecond)
	}
	rec := postQuery(t, h, 5)
	if got := rec.Header().Get(HeaderPartialResults); got != "2/2" {
		t.Errorf("coverage after recovery = %q, want 2/2", got)
	}
}

func TestRetryRecoversTransientFailure(t *testing.T) {
	a := newFakeShard(t, []Hit{{User: "a1", Similarity: 0.9}})
	var first atomic.Bool
	first.Store(true)
	// Fail exactly the first /query attempt, then heal.
	orig := a.srv.Config.Handler
	a.srv.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/query" && first.CompareAndSwap(true, false) {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		orig.ServeHTTP(w, r)
	})
	r := newTestRouter(t, Config{Retries: 1, RetryBase: 5 * time.Millisecond}, a)
	rec := postQuery(t, r.Handler(), 5)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 via retry: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(HeaderPartialResults); got != "1/1" {
		t.Errorf("%s = %q, want 1/1", HeaderPartialResults, got)
	}
	if n := r.obs.Counter(metricRetries).Value(); n != 1 {
		t.Errorf("retry counter = %d, want 1", n)
	}
}

func TestHedgingBeatsStraggler(t *testing.T) {
	a := newFakeShard(t, []Hit{{User: "a1", Similarity: 0.9}})
	var slowOnce atomic.Bool
	slowOnce.Store(true)
	orig := a.srv.Config.Handler
	// First /query attempt stalls 2s; the hedge (and anything after) is
	// fast. Without hedging the query would ride out the stall.
	a.srv.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/query" && slowOnce.CompareAndSwap(true, false) {
			select {
			case <-time.After(2 * time.Second):
			case <-r.Context().Done():
				return
			}
		}
		orig.ServeHTTP(w, r)
	})
	r := newTestRouter(t, Config{HedgeAfter: 20 * time.Millisecond, QueryTimeout: 5 * time.Second}, a)
	start := time.Now()
	rec := postQuery(t, r.Handler(), 5)
	elapsed := time.Since(start)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if elapsed > time.Second {
		t.Errorf("hedged query took %v, want well under the 2s straggler stall", elapsed)
	}
	if n := r.obs.Counter(metricHedges).Value(); n < 1 {
		t.Error("no hedge launched for a stalled first attempt")
	}
	if n := r.obs.Counter(metricHedgeWins).Value(); n < 1 {
		t.Error("hedge did not win against a 2s straggler")
	}
}

func TestMutationRoutesToOwner(t *testing.T) {
	a := newFakeShard(t, nil)
	b := newFakeShard(t, nil)
	r := newTestRouter(t, Config{}, a, b)
	h := r.Handler()
	shards := []*fakeShard{a, b}

	for i := 0; i < 16; i++ {
		id := fmt.Sprintf("user-%d", i)
		req := httptest.NewRequest(http.MethodPut, "/users/"+id+"/fingerprint", strings.NewReader("fp"))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusNoContent {
			t.Fatalf("PUT %s: status %d, want 204", id, rec.Code)
		}
		owner := r.Placement().Owner(id)
		select {
		case got := <-shards[owner].puts:
			if got != id {
				t.Fatalf("owner shard %d received %q, want %q", owner, got, id)
			}
		default:
			t.Fatalf("PUT %s did not reach its owner shard %d", id, owner)
		}
		for s, fs := range shards {
			select {
			case got := <-fs.puts:
				t.Fatalf("non-owner shard %d received %q", s, got)
			default:
			}
		}
	}
}

func TestMutationPassthroughPreservesBackpressure(t *testing.T) {
	a := newFakeShard(t, nil)
	a.mode.Store(mode503RA)
	r := newTestRouter(t, Config{}, a)
	req := httptest.NewRequest(http.MethodPut, "/users/x/fingerprint", strings.NewReader("fp"))
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want the shard's 503 passed through", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want the shard's own %q relayed verbatim", got, "2")
	}
	if r.testShard(0).breaker.State() != BreakerClosed {
		t.Error("degraded-mode 503+Retry-After tripped the breaker")
	}
}

// TestOpenBreakerMutation503RetryAfter pins the satellite: router-originated
// 503s carry a Retry-After computed from the breaker's half-open deadline.
func TestOpenBreakerMutation503RetryAfter(t *testing.T) {
	a := newFakeShard(t, nil)
	r := newTestRouter(t, Config{ProbeInterval: -1,
		Breaker: BreakerConfig{ConsecutiveFails: 1, OpenFor: 7 * time.Second}}, a)
	b := r.testShard(0).breaker
	b.mu.Lock()
	b.trip()
	b.mu.Unlock()

	req := httptest.NewRequest(http.MethodPut, "/users/x/fingerprint", strings.NewReader("fp"))
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 from the open breaker", rec.Code)
	}
	secs, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q is not integer seconds", rec.Header().Get("Retry-After"))
	}
	if secs < 5 || secs > 7 {
		t.Errorf("Retry-After = %ds, want ≈ the breaker's 7s half-open deadline", secs)
	}
}

// TestStatsShardsSection pins the satellite: /stats (and /healthz) carry a
// per-shard section with state, last error and inflight.
func TestStatsShardsSection(t *testing.T) {
	a := newFakeShard(t, []Hit{{User: "a1", Similarity: 0.9}})
	b := newFakeShard(t, nil)
	r := newTestRouter(t, Config{Retries: -1, ProbeInterval: -1,
		Breaker: BreakerConfig{ConsecutiveFails: 1, OpenFor: time.Minute}}, a, b)
	h := r.Handler()
	b.srv.Close()
	postQuery(t, h, 5) // trips shard-1's breaker

	req := httptest.NewRequest(http.MethodGet, "/stats", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/stats status %d", rec.Code)
	}
	var st RouterStats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("/stats does not parse: %v", err)
	}
	if !st.Router || st.ShardsTotal != 2 || len(st.Shards) != 2 {
		t.Fatalf("stats header wrong: %+v", st)
	}
	if st.ShardsHealthy != 1 || st.Quorum != 1 {
		t.Errorf("healthy/quorum = %d/%d, want 1/1", st.ShardsHealthy, st.Quorum)
	}
	if st.Shards[0].State != "healthy" || st.Shards[0].Users != 1 {
		t.Errorf("shard-0 row = %+v, want healthy with live users=1", st.Shards[0])
	}
	if st.Shards[1].State != "open-breaker" {
		t.Errorf("shard-1 state = %q, want open-breaker", st.Shards[1].State)
	}
	if st.Shards[1].LastError == "" {
		t.Error("shard-1 last_error empty; operators need the why")
	}

	// /healthz: one of two shards down meets the default quorum (1) → 200
	// with the sick shard named.
	req = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200 at quorum", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "shard-1: open-breaker") {
		t.Errorf("/healthz body does not name the sick shard:\n%s", rec.Body.String())
	}

	// Trip the last shard too → below quorum → 503 with Retry-After.
	ba := r.testShard(0).breaker
	ba.mu.Lock()
	ba.trip()
	ba.mu.Unlock()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz below quorum = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("/healthz 503 missing Retry-After")
	}
}

func TestClientErrorRelayedNotPartial(t *testing.T) {
	a := newFakeShard(t, nil)
	r := newTestRouter(t, Config{}, a)
	req := httptest.NewRequest(http.MethodPost, "/query?k=bogus", strings.NewReader("fp"))
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad k = %d, want 400", rec.Code)
	}
}

func TestStalledShardIsDeadlinedNotWaitedFor(t *testing.T) {
	a := newFakeShard(t, []Hit{{User: "a1", Similarity: 0.9}})
	b := newFakeShard(t, nil)
	b.mode.Store(modeStall)
	r := newTestRouter(t, Config{QueryTimeout: 400 * time.Millisecond, Retries: -1}, a, b)
	start := time.Now()
	rec := postQuery(t, r.Handler(), 5)
	elapsed := time.Since(start)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 partial around the stalled shard", rec.Code)
	}
	if got := rec.Header().Get(HeaderPartialResults); got != "1/2" {
		t.Errorf("%s = %q, want 1/2", HeaderPartialResults, got)
	}
	if elapsed > 2*time.Second {
		t.Errorf("query took %v; the stalled shard was waited for past its budget", elapsed)
	}
}

func TestBuildFansOutToAllShards(t *testing.T) {
	a := newFakeShard(t, nil)
	b := newFakeShard(t, nil)
	var builds atomic.Int64
	for _, fs := range []*fakeShard{a, b} {
		orig := fs.srv.Config.Handler
		fs.srv.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/graph/build" {
				builds.Add(1)
				w.Header().Set("Content-Type", "application/json")
				fmt.Fprint(w, `{"epoch": 1}`)
				return
			}
			orig.ServeHTTP(w, r)
		})
	}
	r := newTestRouter(t, Config{}, a, b)
	req := httptest.NewRequest(http.MethodPost, "/graph/build?k=4", nil)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("build fan-out status = %d: %s", rec.Code, rec.Body.String())
	}
	if builds.Load() != 2 {
		t.Errorf("build reached %d shards, want 2", builds.Load())
	}
	var out struct {
		Built int `json:"built"`
		Total int `json:"total"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out.Built != 2 || out.Total != 2 {
		t.Errorf("aggregate = %s (err %v), want built 2/2", rec.Body.String(), err)
	}
}

// TestBuildPassesUnanimousClientError: when every shard refuses a build
// with the same 4xx, the request is at fault and the router answers that
// status with the usual aggregate body; a split answer is still a 502.
func TestBuildPassesUnanimousClientError(t *testing.T) {
	buildShard := func(status int) *fakeShard {
		fs := newFakeShard(t, nil)
		orig := fs.srv.Config.Handler
		fs.srv.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/graph/build" {
				if status != http.StatusOK {
					http.Error(w, "unknown algorithm", status)
					return
				}
				w.Header().Set("Content-Type", "application/json")
				fmt.Fprint(w, `{"epoch": 1}`)
				return
			}
			orig.ServeHTTP(w, r)
		})
		return fs
	}
	for _, tc := range []struct {
		name     string
		statuses []int
		want     int
		built    int
	}{
		{"all-400", []int{400, 400}, http.StatusBadRequest, 0},
		{"400-and-200", []int{400, 200}, http.StatusBadGateway, 1},
		{"400-and-409", []int{400, 409}, http.StatusBadGateway, 0},
		{"all-503", []int{503, 503}, http.StatusBadGateway, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var shards []*fakeShard
			for _, st := range tc.statuses {
				shards = append(shards, buildShard(st))
			}
			r := newTestRouter(t, Config{}, shards...)
			rec := httptest.NewRecorder()
			r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/graph/build?algo=hyrec", nil))
			if rec.Code != tc.want {
				t.Fatalf("status = %d, want %d: %s", rec.Code, tc.want, rec.Body.String())
			}
			var out struct {
				Built  int               `json:"built"`
				Total  int               `json:"total"`
				Errors map[string]string `json:"errors"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatalf("aggregate body %q: %v", rec.Body.String(), err)
			}
			if out.Built != tc.built || out.Total != len(tc.statuses) || len(out.Errors) != len(tc.statuses)-tc.built {
				t.Errorf("aggregate = %s, want built %d of %d", rec.Body.String(), tc.built, len(tc.statuses))
			}
		})
	}
}
