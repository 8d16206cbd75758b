package router_test

// Integration tests for the dynamic cluster tier: real service.Server
// shard-cores behind httptest servers, a real router in front, and the
// full join → transition → import → cutover → retire machinery driven
// through the router's public HTTP surface. (External test package:
// service imports router, so these tests cannot live in package router.)

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"goldfinger/internal/core"
	"goldfinger/internal/obs"
	"goldfinger/internal/profile"
	"goldfinger/internal/router"
	"goldfinger/internal/service"
)

const clusterBits = 256

func newShardProc(t *testing.T, name string) (*httptest.Server, *service.Server) {
	t.Helper()
	srv, err := service.NewServer(clusterBits)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetShardName(name)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

func newClusterRouter(t *testing.T, cfg router.Config) (*router.Router, *httptest.Server) {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	rt, err := router.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	return rt, front
}

func putUser(t *testing.T, base, id string, fp core.Fingerprint) int {
	t.Helper()
	var body strings.Builder
	if err := core.WriteFingerprint(&body, fp); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, base+"/users/"+id+"/fingerprint", strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

func clusterView(t *testing.T, base string) (epoch uint64, mode string) {
	t.Helper()
	resp, err := http.Get(base + "/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cv struct {
		RingEpoch uint64 `json:"ring_epoch"`
		RingMode  string `json:"ring_mode"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cv); err != nil {
		t.Fatal(err)
	}
	return cv.RingEpoch, cv.RingMode
}

func waitForRing(t *testing.T, base string, epoch uint64, mode string, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		e, m := clusterView(t, base)
		if e == epoch && m == mode {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("ring did not reach epoch %d %s within %v (at epoch %d %s)", epoch, mode, within, e, m)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func shardLiveUsers(t *testing.T, ts *httptest.Server) int {
	t.Helper()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st service.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.Users - st.DeletedUsers
}

func postJSONBody(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestClusterJoinMigratesAndLeaveMigratesBack: a shard joining a loaded
// single-shard cluster receives ~1/N of the users through the migration
// protocol; its clean departure streams them back. No user is ever lost
// or duplicated (live counts across shards always sum to N), and after
// each stable epoch every id answers through the router.
func TestClusterJoinMigratesAndLeaveMigratesBack(t *testing.T) {
	const n = 80
	tsA, _ := newShardProc(t, "shard-0")
	tsB, _ := newShardProc(t, "shard-1")

	_, front := newClusterRouter(t, router.Config{
		Shards:        []router.ShardSpec{{Name: "shard-0", URL: tsA.URL}},
		ProbeInterval: 20 * time.Millisecond,
		QueryTimeout:  2 * time.Second,
	})

	scheme := core.MustScheme(clusterBits, 7)
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("user-%04d", i)
		fp := scheme.Fingerprint(testProfile(i))
		if status := putUser(t, front.URL, ids[i], fp); status != http.StatusNoContent {
			t.Fatalf("seed PUT %s: status %d", ids[i], status)
		}
	}

	// Grow: shard-1 joins; the reconcile loop must migrate its slice over
	// and reach stable epoch 2.
	resp := postJSONBody(t, front.URL+"/cluster/join", map[string]string{"name": "shard-1", "url": tsB.URL})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	waitForRing(t, front.URL, 2, "stable", 15*time.Second)

	moved := 0
	newNames := []string{"shard-0", "shard-1"}
	for _, id := range ids {
		if router.NewPlacement(newNames, 0).OwnerName(newNames, id) == "shard-1" {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("degenerate ring: no user moved to the joiner")
	}
	// Retire is asynchronous cleanup after cutover; poll briefly.
	waitFor(t, 5*time.Second, "post-join user split", func() error {
		liveA, liveB := shardLiveUsers(t, tsA), shardLiveUsers(t, tsB)
		if liveA+liveB != n || liveB != moved {
			return fmt.Errorf("live split A=%d B=%d, want total %d with B=%d", liveA, liveB, n, moved)
		}
		return nil
	})

	// Every id still answers through the router (404 would mean lost).
	for _, id := range ids {
		resp, err := http.Get(front.URL + "/users/" + id + "/neighbors")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			t.Fatalf("user %s lost after join migration", id)
		}
	}

	// Shrink: shard-1 leaves cleanly; its users must stream back.
	resp = postJSONBody(t, front.URL+"/cluster/leave", map[string]string{"name": "shard-1"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("leave: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	waitForRing(t, front.URL, 3, "stable", 15*time.Second)
	waitFor(t, 5*time.Second, "post-leave user split", func() error {
		liveA, liveB := shardLiveUsers(t, tsA), shardLiveUsers(t, tsB)
		if liveA != n || liveB != 0 {
			return fmt.Errorf("live split A=%d B=%d, want %d and 0", liveA, liveB, n)
		}
		return nil
	})
	for _, id := range ids {
		resp, err := http.Get(front.URL + "/users/" + id + "/neighbors")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			t.Fatalf("user %s lost after leave migration", id)
		}
	}
}

// TestMigrationFencesWritesAndServesReads: during the transition window,
// mutations of moving ids fail fast with 503+Retry-After while reads of
// the same ids keep answering from the old owner; after cutover the
// writes succeed at the gainer.
func TestMigrationFencesWritesAndServesReads(t *testing.T) {
	const n = 60
	tsA, _ := newShardProc(t, "shard-0")
	tsB, srvB := newShardProc(t, "shard-1")
	// Pace the import to ~40 users/s so the transition window is wide
	// enough (hundreds of ms) to observe deterministically.
	srvB.SetMigrateRate(40)

	_, front := newClusterRouter(t, router.Config{
		Shards:        []router.ShardSpec{{Name: "shard-0", URL: tsA.URL}},
		ProbeInterval: 20 * time.Millisecond,
	})
	scheme := core.MustScheme(clusterBits, 7)
	newNames := []string{"shard-0", "shard-1"}
	var movedID string
	var movedFP core.Fingerprint
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("user-%04d", i)
		fp := scheme.Fingerprint(testProfile(i))
		if status := putUser(t, front.URL, id, fp); status != http.StatusNoContent {
			t.Fatalf("seed PUT %s: status %d", id, status)
		}
		if movedID == "" && router.NewPlacement(newNames, 0).OwnerName(newNames, id) == "shard-1" {
			movedID, movedFP = id, fp
		}
	}
	if movedID == "" {
		t.Fatal("no seeded id moves to shard-1")
	}

	resp := postJSONBody(t, front.URL+"/cluster/join", map[string]string{"name": "shard-1", "url": tsB.URL})
	resp.Body.Close()

	// Catch the transition window.
	waitForRing(t, front.URL, 2, "transition", 10*time.Second)

	var body strings.Builder
	if err := core.WriteFingerprint(&body, movedFP); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPut, front.URL+"/users/"+movedID+"/fingerprint", strings.NewReader(body.String()))
	wresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, wresp.Body)
	wresp.Body.Close()
	if _, mode := clusterView(t, front.URL); mode == "transition" {
		// Only assert if the window is still open — otherwise the write
		// legitimately raced cutover and landed.
		if wresp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("write of moving id during transition: status %d, want 503", wresp.StatusCode)
		} else if wresp.Header.Get("Retry-After") == "" {
			t.Error("fenced write 503 lacks Retry-After")
		}
		// A read of the same id must keep answering (from the old owner).
		rresp, err := http.Get(front.URL + "/users/" + movedID + "/neighbors")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, rresp.Body)
		rresp.Body.Close()
		if rresp.StatusCode == http.StatusNotFound || rresp.StatusCode == http.StatusServiceUnavailable {
			t.Errorf("read of moving id during transition: status %d, want served", rresp.StatusCode)
		}
	} else {
		t.Log("transition closed before the fenced write; skipping window asserts")
	}

	waitForRing(t, front.URL, 2, "stable", 15*time.Second)
	// After cutover the same write lands at the gainer.
	req, _ = http.NewRequest(http.MethodPut, front.URL+"/users/"+movedID+"/fingerprint", strings.NewReader(body.String()))
	wresp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, wresp.Body)
	wresp.Body.Close()
	if wresp.StatusCode != http.StatusNoContent {
		t.Errorf("write of moved id after cutover: status %d, want 204", wresp.StatusCode)
	}
}

// TestPlacementDriftRedirects: a shard whose installed ring disagrees
// with the router answers 421 naming the owner; the router must count
// the drift and retry once at the named shard.
func TestPlacementDriftRedirects(t *testing.T) {
	tsA, srvA := newShardProc(t, "shard-0")
	tsB, srvB := newShardProc(t, "shard-1")
	// Both shards believe shard-1 owns everything (a ring the router
	// never installed — manufactured drift at a higher epoch so the
	// router's pushes cannot overwrite it mid-test).
	for _, srv := range []*service.Server{srvA, srvB} {
		if err := srv.InstallRing(service.RingInfo{Epoch: 99, Mode: service.RingStable, Names: []string{"shard-1"}}); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	_, front := newClusterRouter(t, router.Config{
		Shards: []router.ShardSpec{
			{Name: "shard-0", URL: tsA.URL},
			{Name: "shard-1", URL: tsB.URL},
		},
		ProbeInterval: -1, // keep the router from pushing its own ring
		Metrics:       reg,
	})

	// Find an id the router routes to shard-0.
	names := []string{"shard-0", "shard-1"}
	var id string
	for i := 0; ; i++ {
		cand := fmt.Sprintf("user-%04d", i)
		if router.NewPlacement(names, 0).OwnerName(names, cand) == "shard-0" {
			id = cand
			break
		}
	}
	scheme := core.MustScheme(clusterBits, 7)
	if status := putUser(t, front.URL, id, scheme.Fingerprint(testProfile(3))); status != http.StatusNoContent {
		t.Fatalf("drift-redirected PUT: status %d, want 204 after one redirect", status)
	}
	if got := reg.Counter("router.placement_drift.total").Value(); got != 1 {
		t.Errorf("placement drift counter = %d, want 1", got)
	}
	// The user must have landed on shard-1 (the shard the 421 named).
	if live := shardLiveUsers(t, tsB); live != 1 {
		t.Errorf("shard-1 live users = %d, want the redirected PUT's 1", live)
	}
}

// TestProberBacksOffAgainstLongDeadShard: probe attempts against a shard
// that stays dead must decay exponentially (capped), not fire at full
// rate forever.
func TestProberBacksOffAgainstLongDeadShard(t *testing.T) {
	var healthProbes atomic.Int64
	counting := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if strings.HasSuffix(req.URL.Path, "/healthz") {
			healthProbes.Add(1)
		}
		return http.DefaultTransport.RoundTrip(req)
	})
	_, front := newClusterRouter(t, router.Config{
		// A dead port: every dial fails instantly with connection refused.
		Shards:        []router.ShardSpec{{Name: "shard-0", URL: "http://127.0.0.1:1"}},
		ProbeInterval: 10 * time.Millisecond,
		Breaker: router.BreakerConfig{
			Window: 8, MinSamples: 1, ErrorRate: 0.5,
			ConsecutiveFails: 1, OpenFor: 10 * time.Millisecond, HalfOpenProbes: 1,
		},
		Transport: counting,
	})

	// Trip the breaker with one real request so the prober takes over.
	resp, err := http.Get(front.URL + "/users/u-1/neighbors")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	time.Sleep(1 * time.Second)
	probes := healthProbes.Load()
	// Full rate would be ~100 probes (10ms interval, 10ms open window).
	// Exponential backoff from 10ms capped at 100ms allows ~15 plus a few
	// races; 35 is far below linear while immune to scheduler noise.
	if probes == 0 {
		t.Fatal("prober never dialed the dead shard")
	}
	if probes > 35 {
		t.Errorf("%d probes against a dead shard in 1s; backoff is not decaying (linear would be ~100)", probes)
	}
	t.Logf("probes against dead shard in 1s: %d", probes)
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// testProfile derives a small deterministic profile from a seed so each
// user gets a distinct fingerprint.
func testProfile(i int) profile.Profile {
	return profile.New(
		profile.ItemID(i*3+1),
		profile.ItemID(i*7+2),
		profile.ItemID(i*11+5),
		profile.ItemID(i%13),
	)
}

func waitFor(t *testing.T, within time.Duration, what string, fn func() error) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		err := fn()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s not reached within %v: %v", what, within, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestShardOwnershipMatchesRouting: every shard builds its ring from the
// body the router pushes, so for every id the shard that accepts it is the
// shard the router sends it to — in stable mode, and in transition mode,
// where a moving id is fenced for writes, read from its old owner and
// already owned by its gainer. A ring the router built differently from
// the one it sends (another virtual-node count, say) would bounce every
// mutation with 421.
func TestShardOwnershipMatchesRouting(t *testing.T) {
	const ids = 10000
	names := []string{"shard-0", "shard-1", "shard-2"}
	handlers := map[string]http.Handler{}
	urls := map[string]string{}
	importing, release := make(chan struct{}, 1), make(chan struct{})
	for _, name := range names {
		srv, err := service.NewServer(clusterBits)
		if err != nil {
			t.Fatal(err)
		}
		srv.SetShardName(name)
		h := srv.Handler()
		handlers[name] = h
		front := h
		if name == "shard-2" {
			// Hold the joiner's import so the ring stays in transition.
			front = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/migrate/import" {
					select {
					case importing <- struct{}{}:
					default:
					}
					<-release
				}
				h.ServeHTTP(w, r)
			})
		}
		ts := httptest.NewServer(front)
		t.Cleanup(ts.Close)
		urls[name] = ts.URL
	}
	rt, front := newClusterRouter(t, router.Config{
		Shards:        []router.ShardSpec{{Name: "shard-0", URL: urls["shard-0"]}, {Name: "shard-1", URL: urls["shard-1"]}},
		ProbeInterval: 10 * time.Millisecond,
	})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	// ringOn waits until every named shard has installed the ring at epoch
	// and mode — the router's own push, not one this test makes.
	ringOn := func(epoch uint64, mode string, on ...string) {
		waitFor(t, 10*time.Second, fmt.Sprintf("ring %d %s on %v", epoch, mode, on), func() error {
			for _, name := range on {
				rec := httptest.NewRecorder()
				handlers[name].ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/ring", nil))
				var info service.RingInfo
				if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil || info.Epoch != epoch || info.Mode != mode {
					return fmt.Errorf("%s holds %+v (%d)", name, info, rec.Code)
				}
			}
			return nil
		})
	}
	// check asks every shard about every id: a shard that does not own it
	// answers 421 naming the owner under its ring.
	check := func(mode string, on ...string) {
		t.Helper()
		fenced := 0
		for i := 0; i < ids; i++ {
			id := fmt.Sprintf("user-%05d", i)
			accepts := map[string]bool{}
			owner := ""
			for _, name := range on {
				rec := httptest.NewRecorder()
				handlers[name].ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/users/"+id+"/neighbors", nil))
				if rec.Code != http.StatusMisdirectedRequest {
					accepts[name] = true
					continue
				}
				named := rec.Header().Get(service.HeaderOwnerShard)
				if owner != "" && named != owner {
					t.Fatalf("%s: shards disagree on the owner of %s: %s and %s", mode, id, owner, named)
				}
				owner = named
			}
			primary, _, moving := rt.RouteNames(id, true)
			if moving {
				// Fenced for writes: the old owner serves reads, the gainer
				// owns the id under the new ring, and both accept it.
				fenced++
				old, gainer, _ := rt.RouteNames(id, false)
				primary = gainer
				if !accepts[old] || !accepts[gainer] {
					t.Fatalf("%s: moving id %s: old owner %s accepts=%v, gainer %s accepts=%v",
						mode, id, old, accepts[old], gainer, accepts[gainer])
				}
			} else if len(accepts) != 1 || !accepts[primary] {
				t.Fatalf("%s: router routes %s to %s, shards accepting it: %v", mode, id, primary, accepts)
			}
			if owner != primary {
				t.Fatalf("%s: router routes %s to %s, shards name %s its owner", mode, id, primary, owner)
			}
		}
		if (mode == service.RingTransition) != (fenced > 0) {
			t.Fatalf("%s: %d of %d ids fenced", mode, fenced, ids)
		}
	}

	ringOn(1, service.RingStable, "shard-0", "shard-1")
	check(service.RingStable, "shard-0", "shard-1")

	rt.Join(context.Background(), "shard-2", urls["shard-2"])
	select {
	case <-importing:
	case <-time.After(10 * time.Second):
		t.Fatal("the joiner was never asked to import")
	}
	ringOn(2, service.RingTransition, names...)
	check(service.RingTransition, names...)

	close(release)
	waitForRing(t, front.URL, 2, service.RingStable, 15*time.Second)
	ringOn(2, service.RingStable, names...)
	check(service.RingStable, names...)
}
