package service

// Tests for the published view: a reader that holds an old view keeps
// reading exactly what was published, and what a mutation plus the query
// after it allocate does not grow with the corpus.

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"goldfinger/internal/core"
	"goldfinger/internal/dataset"
	"goldfinger/internal/knn"
)

// viewFixture is memberFixture with the epoch built.
func viewFixture(t *testing.T, n, extra int) (*Server, []core.Fingerprint) {
	t.Helper()
	srv, fps := memberFixture(t, n, extra)
	if rec := serve(srv, http.MethodPost, "/graph/build?k=8", nil); rec.Code != http.StatusOK {
		t.Fatalf("build: status %d: %s", rec.Code, rec.Body)
	}
	return srv, fps
}

// memberFixture fingerprints n+extra seeded ML-shaped users and registers
// the first n as u0..u(n-1) through the mutation site.
func memberFixture(t *testing.T, n, extra int) (*Server, []core.Fingerprint) {
	t.Helper()
	ds := dataset.Generate(dataset.ML10M, float64(n+extra+2)/float64(dataset.ML10M.Users), 29)
	if len(ds.Profiles) < n+extra {
		t.Fatalf("generator produced %d users, want %d", len(ds.Profiles), n+extra)
	}
	fps := core.MustScheme(1024, 29).FingerprintAll(ds.Profiles[:n+extra])
	srv, err := NewServer(1024)
	if err != nil {
		t.Fatal(err)
	}
	for i, fp := range fps[:n] {
		if _, err := srv.applyPut(memberID(i), fp); err != nil {
			t.Fatal(err)
		}
	}
	return srv, fps
}

// serve runs one request through the handler in the caller's goroutine.
func serve(srv *Server, method, target string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	return rec
}

func wireBytes(t *testing.T, fp core.Fingerprint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := core.WriteFingerprint(&buf, fp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// viewCopy is a deep copy of everything a view lets a reader reach.
type viewCopy struct {
	rows     [][]uint64
	cards    []int
	users    []string
	deleted  []bool
	dead     int
	mutSeq   uint64
	adj, nav [][]knn.Neighbor
	liveDead []bool
}

func copyView(v *view) viewCopy {
	c := viewCopy{
		users:    v.users.Flat(),
		deleted:  v.deleted.Flat(),
		dead:     v.dead,
		mutSeq:   v.mutSeq,
		liveDead: v.live.DeadFlags(),
	}
	for i := 0; i < v.corpus.NumUsers(); i++ {
		c.rows = append(c.rows, slices.Clone(v.corpus.Row(i)))
		c.cards = append(c.cards, v.corpus.Cardinality(i))
	}
	for _, l := range v.live.Graph().Neighbors {
		c.adj = append(c.adj, slices.Clone(l))
	}
	for _, l := range v.live.Nav().Neighbors {
		c.nav = append(c.nav, slices.Clone(l))
	}
	return c
}

// TestOnlineViewImmutableUnderMutations: a reader holding an old view sees
// byte-identical rows, user table, tombstones and adjacency after a
// thousand later mutations of every kind — while other readers query the
// newest view and re-read the old one as the writer copies the pages it
// came from, so the race detector checks that no shared page is ever
// written in place.
func TestOnlineViewImmutableUnderMutations(t *testing.T) {
	const n = 400
	srv, fps := viewFixture(t, n, 300)
	// A few tombstones before the view is taken, so its flags are not all
	// false.
	for _, i := range []int{3, 77, 250} {
		if _, err := srv.applyDelete(memberID(i)); err != nil {
			t.Fatal(err)
		}
	}
	held := srv.view.Load()
	want := copyView(held)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			body := wireBytes(t, fps[r])
			for i := r; ; i = (i + 7) % n {
				select {
				case <-stop:
					return
				default:
				}
				if rec := serve(srv, http.MethodPost, "/query?k=5", body); rec.Code != http.StatusOK {
					t.Errorf("query during churn: status %d", rec.Code)
					return
				}
				if !slices.Equal(held.corpus.Row(i), want.rows[i]) || held.users.At(i) != want.users[i] ||
					held.deleted.At(i) != want.deleted[i] || len(held.live.Neighbors(int32(i))) != len(want.adj[i]) {
					t.Errorf("held view changed under a reader at user %d", i)
					return
				}
			}
		}(r)
	}
	rng := rand.New(rand.NewSource(7))
	for m := 0; m < 1000; m++ {
		fp := fps[rng.Intn(len(fps))]
		var err error
		switch rng.Intn(4) {
		case 0:
			_, err = srv.applyPut(fmt.Sprintf("new-%d", m), fp)
		case 1:
			_, err = srv.applyDelete(memberID(rng.Intn(n)))
		default: // overwrite or revival
			_, err = srv.applyPut(memberID(rng.Intn(n)), fp)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if cur := srv.view.Load(); cur.mutSeq != want.mutSeq+1000 || cur.live.Seq != cur.mutSeq {
		t.Fatalf("server at mutSeq %d (graph %d) after 1000 mutations from %d", cur.mutSeq, cur.live.Seq, want.mutSeq)
	}
	if got := copyView(held); !reflect.DeepEqual(got, want) {
		t.Error("held view differs from the deep copy taken when it was loaded")
	}
}

// TestOnlineMutationAllocScaling: an overwrite and the query after it must
// not allocate in proportion to the corpus — the mutation publishes the
// pages it touched, and the query finds its view ready. At 8x the users the
// budget is 1.5x the bytes.
func TestOnlineMutationAllocScaling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation volume is not meaningful under -race")
	}
	perOp := func(n int) float64 {
		srv, fps := viewFixture(t, n, 200)
		run := func(from, to int) {
			for m := from; m < to; m++ {
				body := wireBytes(t, fps[n+m])
				if rec := serve(srv, http.MethodPut, "/users/"+memberID(m*31%n)+"/fingerprint", body); rec.Code != http.StatusNoContent {
					t.Fatalf("overwrite: status %d", rec.Code)
				}
				rec := serve(srv, http.MethodPost, "/query?k=10", body)
				if rec.Code != http.StatusOK || rec.Header().Get(HeaderQueryMode) != "graph" {
					t.Fatalf("query after overwrite: status %d, served %q", rec.Code, rec.Header().Get(HeaderQueryMode))
				}
			}
		}
		// Warm the pooled search scratch, then hold GC off: a collection
		// empties sync.Pool and would charge the O(n) scratch to the ops.
		run(0, 40)
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(40, 200)
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / 160
	}
	small, large := perOp(5000), perOp(40000)
	t.Logf("bytes per overwrite+query: %.0f at n=5k, %.0f at n=40k (x%.2f)", small, large, large/small)
	if large > 1.5*small {
		t.Errorf("overwrite+query allocates %.0f B at n=40k against %.0f B at n=5k: publication cost grows with n", large, small)
	}
}

func memberID(i int) string { return fmt.Sprintf("u%d", i) }
