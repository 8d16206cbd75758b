package router

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// clusterDoc is the router's GET /cluster body.
type clusterDoc struct {
	RingEpoch uint64      `json:"ring_epoch"`
	RingMode  string      `json:"ring_mode"`
	RingNames []string    `json:"ring_names"`
	Peers     []ShardSpec `json:"peers"`
}

func getCluster(t *testing.T, r *Router) clusterDoc {
	t.Helper()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/cluster", nil))
	var cv clusterDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &cv); err != nil {
		t.Fatalf("/cluster (%d) does not parse: %v", rec.Code, err)
	}
	return cv
}

func postLeave(r *Router, name string) int {
	rec := httptest.NewRecorder()
	body := strings.NewReader(`{"name":"` + name + `"}`)
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/cluster/leave", body))
	return rec.Code
}

// waitSettled blocks until the ring is stable at epoch with the given
// names and every shard on it has acked the installed generation, so no
// push is still in flight when the caller starts counting.
func waitSettled(t *testing.T, r *Router, epoch uint64, names ...string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := r.ring.Load()
		settled := st.epoch == epoch && st.mig == nil && reflect.DeepEqual(st.names, names)
		for _, sh := range st.shards {
			settled = settled && sh.ringSynced.Load() == st.gen
		}
		if settled {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("ring never settled at epoch %d %v (at epoch %d %v, migrating=%v)",
				epoch, names, st.epoch, st.names, st.mig != nil)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJoinReportsMemberChanges: a new name and a moved URL are changes;
// a same-URL rejoin is not, but gets the ring re-pushed before Join
// returns, and a moved URL gets a fresh runtime with a closed breaker.
func TestJoinReportsMemberChanges(t *testing.T) {
	a, b, b2 := newFakeShard(t, nil), newFakeShard(t, nil), newFakeShard(t, nil)
	r := newTestRouter(t, Config{ProbeInterval: -1}, a)
	ctx := context.Background()

	if !r.Join(ctx, "shard-1", b.srv.URL) {
		t.Fatal("first join of shard-1 reported no change")
	}
	waitSettled(t, r, 2, "shard-0", "shard-1")
	want := []ShardSpec{{Name: "shard-0", URL: a.srv.URL}, {Name: "shard-1", URL: b.srv.URL}}
	if cv := getCluster(t, r); !reflect.DeepEqual(cv.Peers, want) || cv.RingMode != RingStable {
		t.Fatalf("/cluster after join = %+v, want stable with peers %+v", cv, want)
	}

	pushes := b.rings.Load()
	if r.Join(ctx, "shard-1", b.srv.URL) {
		t.Fatal("same-URL rejoin reported a change")
	}
	if got := b.rings.Load(); got != pushes+1 {
		t.Fatalf("same-URL rejoin: %d ring pushes before Join returned, want 1", got-pushes)
	}
	if cv := getCluster(t, r); cv.RingEpoch != 2 {
		t.Fatalf("same-URL rejoin moved the ring to epoch %d", cv.RingEpoch)
	}

	old, _ := r.lookupShard("shard-1")
	for old.breaker.State() != BreakerOpen {
		old.breaker.Record(time.Millisecond, true, false)
	}
	if !r.Join(ctx, "shard-1", b2.srv.URL) {
		t.Fatal("URL move reported no change")
	}
	moved, _ := r.lookupShard("shard-1")
	if moved == old || moved.spec.URL != b2.srv.URL || moved.breaker.State() != BreakerClosed {
		t.Fatalf("URL move kept the old runtime or its open breaker (breaker %s)", moved.breaker.State())
	}
	// The replacement takes the name's slot on the same ring epoch, and
	// gets that ring pushed.
	for deadline := time.Now().Add(5 * time.Second); r.ring.Load().byName["shard-1"] != moved; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the ring never took up the moved shard")
		}
	}
	waitSettled(t, r, 2, "shard-0", "shard-1")
}

// TestLeaveRemovesMember: a leave is 202 and takes the name off the ring
// once the reconcile loop has run; leaving twice, or leaving a name that
// never joined, is 404; a rejoin after a leave is a change.
func TestLeaveRemovesMember(t *testing.T) {
	a, b := newFakeShard(t, nil), newFakeShard(t, nil)
	r := newTestRouter(t, Config{ProbeInterval: -1}, a, b)

	if code := postLeave(r, "shard-1"); code != http.StatusAccepted {
		t.Fatalf("leave: status %d, want 202", code)
	}
	waitSettled(t, r, 2, "shard-0")
	if cv := getCluster(t, r); !reflect.DeepEqual(cv.RingNames, []string{"shard-0"}) || len(cv.Peers) != 1 {
		t.Fatalf("/cluster after leave = %+v, want shard-0 alone", cv)
	}
	if _, ok := r.lookupShard("shard-1"); !ok {
		t.Fatal("the leaver's runtime is gone; a migration could not reach it")
	}
	if code := postLeave(r, "shard-1"); code != http.StatusNotFound {
		t.Fatalf("second leave: status %d, want 404", code)
	}
	if code := postLeave(r, "shard-7"); code != http.StatusNotFound {
		t.Fatalf("leave of an unknown name: status %d, want 404", code)
	}
	if !r.Join(context.Background(), "shard-1", b.srv.URL) {
		t.Fatal("rejoin after a leave reported no change")
	}
	waitSettled(t, r, 3, "shard-0", "shard-1")
}

// TestFailingProbesKeepShardOnRing: a shard whose health probes keep
// failing is a fault, not a departure. It stays on the ring, at the same
// epoch, with its breaker's verdict in /stats.
func TestFailingProbesKeepShardOnRing(t *testing.T) {
	var probes atomic.Int64
	counting := roundTripper(func(req *http.Request) (*http.Response, error) {
		if req.URL.Host == "127.0.0.1:1" && req.URL.Path == "/healthz" {
			probes.Add(1)
		}
		return http.DefaultTransport.RoundTrip(req)
	})
	a := newFakeShard(t, nil)
	r := newTestRouter(t, Config{
		// A dead port: every dial fails at once with connection refused.
		Shards:        []ShardSpec{{Name: "shard-dead", URL: "http://127.0.0.1:1"}},
		ProbeInterval: 5 * time.Millisecond,
		Breaker:       BreakerConfig{ConsecutiveFails: 1, OpenFor: 5 * time.Millisecond},
		Transport:     counting,
	}, a)
	dead, _ := r.lookupShard("shard-dead")
	dead.breaker.Record(time.Millisecond, true, false) // trip it; the prober takes over

	// Eight straight failures is where a liveness verdict would call the
	// shard dead.
	deadline := time.Now().Add(5 * time.Second)
	for probes.Load() < 8 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d probes of the dead shard in 5s", probes.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
	cv := getCluster(t, r)
	if cv.RingEpoch != 1 || len(cv.RingNames) != 2 || cv.RingNames[0] != "shard-dead" || len(cv.Peers) != 2 {
		t.Fatalf("/cluster after %d failed probes = %+v, want epoch 1 with both shards", probes.Load(), cv)
	}
	if st := r.shardStatus(dead); st.State == "healthy" {
		t.Fatalf("/stats calls a shard that fails every probe healthy")
	}
}

type roundTripper func(*http.Request) (*http.Response, error)

func (f roundTripper) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }
