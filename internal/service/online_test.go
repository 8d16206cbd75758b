package service

// Tests for the live-mutation serving surface: the DELETE endpoint and
// tombstone semantics (410s, graph exclusion, revival), and the
// concurrency contract — mutations racing graph-mode queries and a full
// rebuild under -race, with a monotonic mutation counter and no torn
// epoch reads.

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// deleteFingerprint issues DELETE /users/{id}/fingerprint.
func deleteFingerprint(t *testing.T, ts string, id string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts+"/users/"+id+"/fingerprint", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestDeleteFingerprintLifecycle walks one user through the full
// tombstone lifecycle: delete → 410 on reads, invisible to queries and
// neighbor lists, live graph stays warm; re-PUT revives; re-delete is
// idempotent.
func TestDeleteFingerprintLifecycle(t *testing.T) {
	_, ts, scheme := newInstrumentedServer(t)
	const n = 20
	for i := 0; i < n; i++ {
		putFingerprint(t, ts, scheme, "u"+itoa(i), queryProfile(i)).Body.Close()
	}
	resp, _ := buildGraph(t, ts, "?k=3&algo=bruteforce")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("build status %d", resp.StatusCode)
	}

	if code := deleteFingerprint(t, ts.URL, "u5"); code != http.StatusNoContent {
		t.Fatalf("delete: status %d, want 204", code)
	}
	st := getStats(t, ts)
	if st.DeletedUsers != 1 || st.Users != n {
		t.Fatalf("stats after delete = %+v, want %d users with 1 tombstone", st, n)
	}
	if st.GraphStale || !st.GraphLive || st.OnlineLive != n-1 {
		t.Fatalf("graph not warm after delete: %+v", st)
	}

	// Reads of the tombstoned user say Gone, not NotFound: the id stays
	// reserved.
	if status, _ := getNeighborList(t, ts, "u5"); status != http.StatusGone {
		t.Fatalf("neighbors of deleted user: status %d, want 410", status)
	}

	// The deleted user never appears in query results — even querying its
	// own fingerprint, in both serving modes.
	for _, mode := range []string{"graph", "scan"} {
		got, _, status := postQuery(t, ts, scheme, queryProfile(5), "?k="+itoa(n)+"&mode="+mode)
		if status != http.StatusOK {
			t.Fatalf("mode %s query: status %d", mode, status)
		}
		for _, nb := range got {
			if nb.User == "u5" {
				t.Errorf("mode %s query returned the deleted user", mode)
			}
		}
	}

	// Neighbor lists of surviving users are filtered too.
	for _, id := range []string{"u4", "u6"} {
		status, nbrs := getNeighborList(t, ts, id)
		if status != http.StatusOK {
			t.Fatalf("neighbors of %s: status %d", id, status)
		}
		for _, nb := range nbrs {
			if nb.User == "u5" {
				t.Errorf("neighbor list of %s still contains the deleted user", id)
			}
		}
	}

	// Re-PUT revives the same id: reads work again, tombstone count drops,
	// user count unchanged.
	putFingerprint(t, ts, scheme, "u5", queryProfile(5)).Body.Close()
	if status, nbrs := getNeighborList(t, ts, "u5"); status != http.StatusOK || len(nbrs) == 0 {
		t.Fatalf("revived user: status %d with %d neighbors, want 200 with edges", status, len(nbrs))
	}
	st = getStats(t, ts)
	if st.DeletedUsers != 0 || st.Users != n || st.GraphStale {
		t.Fatalf("stats after revival = %+v", st)
	}

	// Deleting twice is idempotent (both acked); unknown users are 404.
	if code := deleteFingerprint(t, ts.URL, "u5"); code != http.StatusNoContent {
		t.Fatalf("re-delete: status %d, want 204", code)
	}
	if code := deleteFingerprint(t, ts.URL, "u5"); code != http.StatusNoContent {
		t.Fatalf("idempotent re-delete: status %d, want 204", code)
	}
	if code := deleteFingerprint(t, ts.URL, "nobody"); code != http.StatusNotFound {
		t.Fatalf("delete of unknown user: status %d, want 404", code)
	}
	if st = getStats(t, ts); st.DeletedUsers != 1 || st.OnlineLive != n-1 {
		t.Fatalf("stats after re-delete = %+v", st)
	}
}

// TestOnlineMutationsRaceQueriesAndBuild is the -race concurrency bar for
// the tentpole: inserts, overwrites and deletes race graph-mode queries
// and a concurrent full rebuild. The assertions are (a) no data race (the
// detector), (b) every request returns a sane status — no 5xx, no torn
// epoch read panicking the handler, (c) the sampled mutation counter is
// monotonic, and (d) the final state is coherent: the epoch converges back
// to warm and covers every user.
func TestOnlineMutationsRaceQueriesAndBuild(t *testing.T) {
	srv, ts, scheme := newInstrumentedServer(t)
	const base = 60
	for i := 0; i < base; i++ {
		putFingerprint(t, ts, scheme, "u"+itoa(i), queryProfile(i)).Body.Close()
	}
	resp, _ := buildGraph(t, ts, "?k=3&algo=bruteforce")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed build status %d", resp.StatusCode)
	}

	var (
		wg       sync.WaitGroup
		bad      atomic.Int64
		stopSeq  = make(chan struct{})
		seqDone  = make(chan struct{})
		seqViola atomic.Int64
	)
	// Sampler: the mutation counter must never move backwards. Lives
	// outside wg — it runs until the workers have drained.
	go func() {
		defer close(seqDone)
		var last uint64
		for {
			select {
			case <-stopSeq:
				return
			default:
			}
			cur := srv.view.Load().mutSeq
			if cur < last {
				seqViola.Add(1)
				return
			}
			last = cur
			time.Sleep(100 * time.Microsecond)
		}
	}()

	// Mutators: new users, overwrites of the seed range, deletes+revivals.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				switch i % 3 {
				case 0:
					resp := putFingerprint(t, ts, scheme, fmt.Sprintf("new-%d-%d", w, i), queryProfile(200+w*25+i))
					resp.Body.Close()
					if resp.StatusCode != http.StatusNoContent {
						bad.Add(1)
					}
				case 1:
					resp := putFingerprint(t, ts, scheme, "u"+itoa((w*7+i)%base), queryProfile(300+i))
					resp.Body.Close()
					if resp.StatusCode != http.StatusNoContent {
						bad.Add(1)
					}
				default:
					id := "u" + itoa((w*11+i)%base)
					if code := deleteFingerprint(t, ts.URL, id); code != http.StatusNoContent {
						bad.Add(1)
					}
					resp := putFingerprint(t, ts, scheme, id, queryProfile(i))
					resp.Body.Close()
					if resp.StatusCode != http.StatusNoContent {
						bad.Add(1)
					}
				}
			}
		}(w)
	}
	// Readers: graph-mode and auto queries plus neighbor reads while the
	// graph is mutating under them.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				_, _, status := postQuery(t, ts, scheme, queryProfile(w*13+i), "?k=5&mode=auto")
				if status != http.StatusOK {
					bad.Add(1)
				}
				_, _, status = postQuery(t, ts, scheme, queryProfile(i), "?k=5&mode=graph")
				if status != http.StatusOK && status != http.StatusConflict {
					bad.Add(1)
				}
				if status, _ := getNeighborList(t, ts, "u"+itoa(i%base)); status != http.StatusOK &&
					status != http.StatusGone && status != http.StatusConflict {
					bad.Add(1)
				}
			}
		}(w)
	}
	// One full rebuild racing all of the above: its publish path must
	// drain the concurrent mutations, not lose them.
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, _ := buildGraph(t, ts, "?k=3&algo=bruteforce")
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
			bad.Add(1)
		}
	}()

	wg.Wait()
	close(stopSeq)
	<-seqDone
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d requests returned unexpected statuses under churn", n)
	}
	if seqViola.Load() != 0 {
		t.Fatal("mutation counter moved backwards")
	}

	// Quiesced: the served epoch must have converged back to warm and the
	// online node table must cover every user (4 workers × ~9 new users).
	st := getStats(t, ts)
	if st.GraphStale || !st.GraphLive {
		t.Fatalf("epoch not warm after churn quiesced: %+v", st)
	}
	if st.OnlineNodes != st.Users {
		t.Fatalf("online nodes %d != users %d after churn", st.OnlineNodes, st.Users)
	}
	// And a post-churn query must serve from the graph and find a user
	// inserted during the race.
	got, served, status := postQuery(t, ts, scheme, queryProfile(200), "?k=1")
	if status != http.StatusOK || served != "graph" {
		t.Fatalf("post-churn query: status %d served %q", status, served)
	}
	if len(got) != 1 {
		t.Fatalf("post-churn query returned %d results", len(got))
	}
}
