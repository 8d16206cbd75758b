package main

// Shard-tier chaos harness: boots the real sharded stack — four
// shard-cores behind a scatter-gather router — with a byte-level TCP
// chaos proxy in front of each shard, then kills and slow-lorises
// shards mid-load and asserts the router's degradation contract:
//
//   - /query keeps answering 200 with X-Partial-Results: 3/4 while one
//     of four shards is hard-dead, under 2× the healthy request load;
//   - p99 stays under 2× the healthy baseline (with a small absolute
//     floor so machine noise on a quiet box cannot flake the ratio);
//   - recall@10 degrades proportionally to the lost coverage — the dead
//     shard owns a measured fraction of every ground-truth neighborhood
//     and the degraded recall must sit within a few points of
//     healthy × (1 − that fraction), and never below 0.70 × healthy;
//   - mutations for users on the dead shard fail fast with 503 and a
//     Retry-After from the breaker, while mutations for live shards
//     keep succeeding;
//   - after the shard comes back the breaker re-closes via the active
//     prober and full 4/4 coverage resumes within one open interval
//     plus a probe tick.
//
// `make shardcheck` records the measured numbers in BENCH_load.json under
// "shard_chaos" (-record); a plain `go test` records nothing.

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"goldfinger/internal/admit"
	"goldfinger/internal/core"
	"goldfinger/internal/knn"
	"goldfinger/internal/obs"
	"goldfinger/internal/profile"
	"goldfinger/internal/router"
	"goldfinger/internal/service"
)

// Chaos proxy modes. The proxy sits on the wire between router and
// shard, so every failure it injects is exactly what a real network
// partition or dead process looks like to the router's transport.
const (
	proxyPass int32 = iota
	// proxyKill refuses new connections (accept-then-close, the shape of
	// a crashed process whose port is gone) and severs in-flight ones.
	proxyKill
	// proxyStall slow-lorises: accepts, swallows the request bytes and
	// never answers, leaving the router's per-shard deadline as the only
	// way out.
	proxyStall
)

type chaosProxy struct {
	ln     net.Listener
	target string
	mode   atomic.Int32
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

func newChaosProxy(t *testing.T, target string) *chaosProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &chaosProxy{ln: ln, target: target, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p
}

func (p *chaosProxy) addr() string { return p.ln.Addr().String() }

// setMode switches the failure mode. Entering a failure mode severs
// in-flight connections too — a crash does not finish the requests it
// was serving.
func (p *chaosProxy) setMode(m int32) {
	p.mode.Store(m)
	if m != proxyPass {
		p.mu.Lock()
		for c := range p.conns {
			c.Close()
		}
		p.mu.Unlock()
	}
}

func (p *chaosProxy) track(c net.Conn) {
	p.mu.Lock()
	p.conns[c] = struct{}{}
	p.mu.Unlock()
}

func (p *chaosProxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *chaosProxy) acceptLoop() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return // listener closed: shutting down
		}
		switch p.mode.Load() {
		case proxyKill:
			c.Close()
		case proxyStall:
			p.track(c)
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				defer p.untrack(c)
				io.Copy(io.Discard, c) // swallow; never answer
				c.Close()
			}()
		default:
			backend, err := net.DialTimeout("tcp", p.target, time.Second)
			if err != nil {
				c.Close()
				continue
			}
			p.track(c)
			p.track(backend)
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				defer p.untrack(c)
				defer p.untrack(backend)
				var pipes sync.WaitGroup
				pipes.Add(2)
				go func() {
					defer pipes.Done()
					io.Copy(backend, c)
					backend.(*net.TCPConn).CloseWrite()
				}()
				go func() {
					defer pipes.Done()
					io.Copy(c, backend)
					c.(*net.TCPConn).CloseWrite()
				}()
				pipes.Wait()
				c.Close()
				backend.Close()
			}()
		}
	}
}

func (p *chaosProxy) close() {
	p.ln.Close()
	p.setMode(proxyKill) // sever whatever is still piping
	p.wg.Wait()
}

// chaosPhase aggregates one measurement window of concurrent queries.
type chaosPhase struct {
	mu        sync.Mutex
	total     int
	ok200     int
	partial   int            // 200s admitting less than full coverage
	statuses  map[int]int    // non-200 statuses
	partials  map[string]int // X-Partial-Results values on 200s
	lats      []float64      // ms, 200s only
	recallSum float64
	transport int
}

func (ph *chaosPhase) p99() float64 {
	sort.Float64s(ph.lats)
	return percentile(ph.lats, 0.99)
}

func (ph *chaosPhase) p50() float64 {
	sort.Float64s(ph.lats)
	return percentile(ph.lats, 0.50)
}

func (ph *chaosPhase) recall() float64 {
	if ph.ok200 == 0 {
		return 0
	}
	return ph.recallSum / float64(ph.ok200)
}

// shardChaosJSON is the BENCH_load.json "shard_chaos" section.
type shardChaosJSON struct {
	Shards            int             `json:"shards"`
	SeedUsers         int             `json:"seed_users"`
	Bits              int             `json:"bits"`
	K                 int             `json:"k"`
	KilledShard       string          `json:"killed_shard"`
	KilledTruthShare  float64         `json:"killed_truth_share"`
	ExpectedRecall    float64         `json:"expected_degraded_recall"`
	Healthy           chaosPhaseJSON  `json:"healthy"`
	Degraded          chaosPhaseJSON  `json:"degraded"`
	RecoveredWithinMS float64         `json:"recovered_within_ms"`
	BreakerReclosed   bool            `json:"breaker_reclosed"`
	StallPhase        *chaosPhaseJSON `json:"stall,omitempty"`
	MeasuredAt        string          `json:"measured_at"`
}

type chaosPhaseJSON struct {
	Queries    int     `json:"queries"`
	OK200      int     `json:"status_200"`
	Partial    int     `json:"partial_responses"`
	RecallAt10 float64 `json:"recall_at_10"`
	P50Ms      float64 `json:"p50_ms"`
	P99Ms      float64 `json:"p99_ms"`
}

func phaseJSON(ph *chaosPhase) chaosPhaseJSON {
	return chaosPhaseJSON{
		Queries: ph.total, OK200: ph.ok200, Partial: ph.partial,
		RecallAt10: ph.recall(), P50Ms: ph.p50(), P99Ms: ph.p99(),
	}
}

// TestShardChaosKillOneOfFour is the acceptance test for the
// fault-tolerant shard tier (make shardcheck). See the file comment for
// the contract it proves.
func TestShardChaosKillOneOfFour(t *testing.T) {
	const (
		bits    = 256
		nShards = 4
		nUsers  = 1600
		k       = 10
		nQuery  = 32
	)
	names := make([]string, nShards)
	for i := range names {
		names[i] = fmt.Sprintf("shard-%d", i)
	}
	place := router.NewPlacement(names, 0)
	ring := service.RingInfo{Epoch: 1, Mode: service.RingStable, Names: names}

	// Real shard-cores behind real HTTP servers behind chaos proxies.
	shards := make([]*service.Server, nShards)
	proxies := make([]*chaosProxy, nShards)
	specs := make([]router.ShardSpec, nShards)
	for i := 0; i < nShards; i++ {
		srv, err := service.NewServer(bits)
		if err != nil {
			t.Fatal(err)
		}
		srv.SetAdmission(admit.DefaultConfig())
		srv.SetShardName(names[i])
		if err := srv.InstallRing(ring); err != nil {
			t.Fatal(err)
		}
		shards[i] = srv
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		httpSrv := &http.Server{
			Handler:           srv.Handler(),
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       10 * time.Second,
			WriteTimeout:      30 * time.Second,
		}
		go httpSrv.Serve(ln)
		defer httpSrv.Close()
		proxies[i] = newChaosProxy(t, ln.Addr().String())
		defer proxies[i].close()
		specs[i] = router.ShardSpec{Name: names[i], URL: "http://" + proxies[i].addr()}
	}

	// Tight chaos-scale timings: a 600ms query budget so a stalled shard
	// costs at most ~half a second before the deadline reaps it, a 500ms
	// breaker open interval and a 100ms prober tick so recovery is
	// measurable within the test's seconds-scale windows.
	rt, err := router.New(router.Config{
		Shards:       specs,
		Quorum:       0.5,
		QueryTimeout: 600 * time.Millisecond,
		HedgeAfter:   25 * time.Millisecond,
		Retries:      1,
		RetryBase:    10 * time.Millisecond,
		Breaker: router.BreakerConfig{
			Window: 32, MinSamples: 4, ErrorRate: 0.5,
			ConsecutiveFails: 3, OpenFor: 500 * time.Millisecond,
			HalfOpenProbes: 1,
		},
		ProbeInterval: 100 * time.Millisecond,
		Metrics:       obs.NewRegistry(),
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	frontLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	front := &http.Server{Handler: rt.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go front.Serve(frontLn)
	defer front.Close()
	base := "http://" + frontLn.Addr().String()
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()

	// Seed distinct-profile users directly into their owning shard-core
	// (in-process: no TCP) and keep the fingerprints for ground truth.
	rng := rand.New(rand.NewSource(271828))
	scheme := core.MustScheme(bits, 17)
	mkProfile := func() profile.Profile {
		items := make([]profile.ItemID, 0, 24)
		for len(items) < 24 {
			items = append(items, profile.ItemID(rng.Intn(4000)+1))
		}
		return profile.New(items...)
	}
	ids := make([]string, nUsers)
	fps := make([]core.Fingerprint, nUsers)
	owners := make([]int, nUsers)
	for i := 0; i < nUsers; i++ {
		ids[i] = fmt.Sprintf("u-%04d", i)
		fps[i] = scheme.Fingerprint(mkProfile())
		owners[i] = place.Owner(ids[i])
		var body strings.Builder
		if err := core.WriteFingerprint(&body, fps[i]); err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPut,
			"/users/"+ids[i]+"/fingerprint", strings.NewReader(body.String()))
		rec := httptest.NewRecorder()
		shards[owners[i]].Handler().ServeHTTP(rec, req)
		if rec.Code/100 != 2 {
			t.Fatalf("seed %s on %s: %d %s", ids[i], names[owners[i]], rec.Code, rec.Body.String())
		}
	}

	// Exact ground truth: full-corpus Jaccard top-k per query fingerprint
	// (mode=scan serves exactly this, so healthy recall is ~1 and every
	// degraded loss is attributable to the killed shard's users).
	corpus, err := core.NewPackedCorpus(bits, fps)
	if err != nil {
		t.Fatal(err)
	}
	qfps := make([]core.Fingerprint, nQuery)
	qblobs := make([][]byte, nQuery)
	truths := make([]map[string]bool, nQuery)
	for q := 0; q < nQuery; q++ {
		qfps[q] = scheme.Fingerprint(mkProfile())
		var buf strings.Builder
		if err := core.WriteFingerprint(&buf, qfps[q]); err != nil {
			t.Fatal(err)
		}
		qblobs[q] = []byte(buf.String())
		fp := qfps[q]
		best := knn.TopKRange(nUsers, k, 0, func(lo, hi int, out []float64) {
			corpus.JaccardQueryInto(fp, lo, hi, out)
		})
		truths[q] = make(map[string]bool, k)
		for _, b := range best {
			truths[q][ids[b.ID]] = true
		}
	}

	// The victim is the shard owning the smallest slice of the ground
	// truth: killing it maximizes headroom under the ≥0.70×healthy floor
	// while still proving proportional degradation.
	truthCount := make([]int, nShards)
	truthTotal := 0
	for q := range truths {
		for id := range truths[q] {
			var idx int
			fmt.Sscanf(id, "u-%d", &idx)
			truthCount[owners[idx]]++
			truthTotal++
		}
	}
	victim := 0
	for i := 1; i < nShards; i++ {
		if truthCount[i] < truthCount[victim] {
			victim = i
		}
	}
	victimShare := float64(truthCount[victim]) / float64(truthTotal)
	t.Logf("truth ownership %v; killing %s (%.1f%% of ground truth)",
		truthCount, names[victim], 100*victimShare)

	queryOnce := func(q int) (status int, partialHdr string, hitUsers []string, ms float64, err error) {
		start := time.Now()
		resp, err := client.Post(
			fmt.Sprintf("%s/query?k=%d&mode=scan", base, k),
			"application/octet-stream", strings.NewReader(string(qblobs[q])))
		if err != nil {
			return 0, "", nil, 0, err
		}
		defer resp.Body.Close()
		blob, _ := io.ReadAll(resp.Body)
		ms = float64(time.Since(start)) / float64(time.Millisecond)
		partialHdr = resp.Header.Get(router.HeaderPartialResults)
		if resp.StatusCode == http.StatusOK {
			var hits []router.Hit
			if err := json.Unmarshal(blob, &hits); err != nil {
				return resp.StatusCode, partialHdr, nil, ms, fmt.Errorf("bad hits: %v", err)
			}
			for _, h := range hits {
				hitUsers = append(hitUsers, h.User)
			}
		}
		return resp.StatusCode, partialHdr, hitUsers, ms, nil
	}

	runPhase := func(workers int, d time.Duration) *chaosPhase {
		ph := &chaosPhase{statuses: make(map[int]int), partials: make(map[string]int)}
		var next atomic.Int64
		stop := time.Now().Add(d)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(stop) {
					q := int(next.Add(1)) % nQuery
					status, partialHdr, hits, ms, err := queryOnce(q)
					ph.mu.Lock()
					ph.total++
					if err != nil {
						ph.transport++
					} else if status == http.StatusOK {
						ph.ok200++
						ph.lats = append(ph.lats, ms)
						ph.partials[partialHdr]++
						if isPartialCoverage(partialHdr) {
							ph.partial++
						}
						got := 0
						for _, u := range hits {
							if truths[q][u] {
								got++
							}
						}
						ph.recallSum += float64(got) / float64(k)
					} else {
						ph.statuses[status]++
					}
					ph.mu.Unlock()
				}
			}()
		}
		wg.Wait()
		return ph
	}

	routerStats := func() router.RouterStats {
		resp, err := client.Get(base + "/stats")
		if err != nil {
			t.Fatalf("router stats: %v", err)
		}
		defer resp.Body.Close()
		var st router.RouterStats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("router stats decode: %v", err)
		}
		return st
	}

	// Warm up connections and latency windows, then the healthy baseline.
	for q := 0; q < 4; q++ {
		if status, partialHdr, _, _, err := queryOnce(q); err != nil || status != 200 || partialHdr != "4/4" {
			t.Fatalf("warm-up query: status %d partial %q err %v", status, partialHdr, err)
		}
	}
	healthy := runPhase(4, 1200*time.Millisecond)
	if healthy.ok200 != healthy.total || healthy.transport > 0 {
		t.Fatalf("healthy phase not clean: %d/%d ok, %d transport errors, statuses %v",
			healthy.ok200, healthy.total, healthy.transport, healthy.statuses)
	}
	if r := healthy.recall(); r < 0.9 {
		t.Fatalf("healthy recall %.3f < 0.9: scan ground truth disagrees with the service", r)
	}
	t.Logf("healthy: %d queries, recall %.3f, p50 %.2fms p99 %.2fms",
		healthy.total, healthy.recall(), healthy.p50(), healthy.p99())

	// Hard-kill the victim mid-load: double the worker count (2× load)
	// and keep querying while its connections die.
	proxies[victim].setMode(proxyKill)
	degraded := runPhase(8, 1800*time.Millisecond)
	t.Logf("degraded: %d queries (%d ok, %d partial, statuses %v, partials %v), recall %.3f, p99 %.2fms",
		degraded.total, degraded.ok200, degraded.partial, degraded.statuses,
		degraded.partials, degraded.recall(), degraded.p99())

	if degraded.total < 50 {
		t.Fatalf("degraded phase only issued %d queries; load too thin to mean anything", degraded.total)
	}
	// Availability: the dead minority must not surface as client errors.
	if float64(degraded.ok200) < 0.95*float64(degraded.total) {
		t.Errorf("only %d/%d degraded queries answered 200; a 1-of-4 kill must not fail queries",
			degraded.ok200, degraded.total)
	}
	// Coverage honesty: the 200s must admit the hole.
	want := fmt.Sprintf("%d/%d", nShards-1, nShards)
	if degraded.partials[want] < degraded.ok200*9/10 {
		t.Errorf("only %d/%d degraded 200s carried X-Partial-Results: %s (saw %v)",
			degraded.partials[want], degraded.ok200, want, degraded.partials)
	}
	// Tail latency: a dead shard fails fast (conn refused or open
	// breaker), so the tail must stay near the healthy baseline. The
	// 250ms floor absorbs scheduler noise on a loaded CI box; it is
	// still well under half the 600ms budget a stall would consume.
	p99Bound := 2 * healthy.p99()
	if p99Bound < 250 {
		p99Bound = 250
	}
	if degraded.p99() > p99Bound {
		t.Errorf("degraded p99 %.2fms exceeds %.2fms (2× healthy %.2fms)",
			degraded.p99(), p99Bound, healthy.p99())
	}
	// Recall: proportional to lost coverage, and above the hard floor.
	expected := healthy.recall() * (1 - victimShare)
	if got := degraded.recall(); got < 0.70*healthy.recall() {
		t.Errorf("degraded recall %.3f below 0.70× healthy %.3f", got, healthy.recall())
	} else if got < expected-0.05 || got > expected+0.05 {
		t.Errorf("degraded recall %.3f not proportional to lost coverage: expected %.3f±0.05 (victim owns %.1f%% of truth)",
			got, expected, 100*victimShare)
	}

	// Mutations while the victim is dead: the breaker has tripped by now
	// (the load above hammered it), so a write routed to the dead shard
	// must fail fast with 503 + Retry-After, and writes to live shards
	// must still succeed.
	var deadID, liveID string
	for i := 0; i < nUsers && (deadID == "" || liveID == ""); i++ {
		if owners[i] == victim {
			deadID = ids[i]
		} else {
			liveID = ids[i]
		}
	}
	var body strings.Builder
	if err := core.WriteFingerprint(&body, fps[0]); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPut, base+"/users/"+deadID+"/fingerprint",
		strings.NewReader(body.String()))
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("mutation to dead shard: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusServiceUnavailable:
		if resp.Header.Get("Retry-After") == "" {
			t.Error("503 for dead-shard mutation lacks Retry-After")
		}
	case http.StatusBadGateway, http.StatusGatewayTimeout:
		// Breaker raced half-open and the probe attempt hit the dead
		// proxy: also a legal fast failure.
	default:
		t.Errorf("mutation to dead shard: status %d, want 503 (or 502/504)", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodPut, base+"/users/"+liveID+"/fingerprint",
		strings.NewReader(body.String()))
	resp, err = client.Do(req)
	if err != nil {
		t.Fatalf("mutation to live shard: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		t.Errorf("mutation to a live shard failed with %d while another shard was dead", resp.StatusCode)
	}

	// Restart the shard (restore the wire) and time recovery: the active
	// prober must re-close the breaker and restore 4/4 coverage within
	// one open interval (500ms) plus a probe tick (100ms) plus slack.
	proxies[victim].setMode(proxyPass)
	restoreStart := time.Now()
	recovered := false
	var recoveredIn time.Duration
	for time.Since(restoreStart) < 3*time.Second {
		st := routerStats()
		if st.ShardsHealthy == nShards {
			recovered = true
			recoveredIn = time.Since(restoreStart)
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !recovered {
		t.Fatalf("breaker did not re-close within 3s of the shard coming back: %+v", routerStats())
	}
	if recoveredIn > 2*time.Second {
		t.Errorf("recovery took %v, want within one open interval + probe tick (≈600ms) + slack", recoveredIn)
	}
	t.Logf("recovered to %d/%d healthy in %v", nShards, nShards, recoveredIn)
	if status, partialHdr, _, _, err := queryOnce(0); err != nil || status != 200 || partialHdr != "4/4" {
		t.Errorf("post-recovery query: status %d partial %q err %v, want 200 4/4", status, partialHdr, err)
	}

	// Slow-loris a different shard briefly: queries must still answer 200
	// — first rounds pay the per-shard deadline, then the breaker trips
	// on the timeouts and the tail drops back — and admit 3/4 coverage.
	stallVictim := (victim + 1) % nShards
	proxies[stallVictim].setMode(proxyStall)
	stall := runPhase(4, 1500*time.Millisecond)
	proxies[stallVictim].setMode(proxyPass)
	t.Logf("stall(%s): %d queries (%d ok, %d partial, statuses %v), p99 %.2fms",
		names[stallVictim], stall.total, stall.ok200, stall.partial, stall.statuses, stall.p99())
	if float64(stall.ok200) < 0.95*float64(stall.total) {
		t.Errorf("only %d/%d queries answered 200 under a stalled shard", stall.ok200, stall.total)
	}
	if stall.partial == 0 {
		t.Error("no query admitted partial coverage under a stalled shard: deadlines are not reaping it")
	}

	// Record the run in BENCH_load.json's shard_chaos section.
	section := shardChaosJSON{
		Shards: nShards, SeedUsers: nUsers, Bits: bits, K: k,
		KilledShard: names[victim], KilledTruthShare: victimShare,
		ExpectedRecall: expected,
		Healthy:        phaseJSON(healthy), Degraded: phaseJSON(degraded),
		RecoveredWithinMS: float64(recoveredIn) / float64(time.Millisecond),
		BreakerReclosed:   true,
		MeasuredAt:        time.Now().UTC().Format(time.RFC3339),
	}
	stallJSON := phaseJSON(stall)
	section.StallPhase = &stallJSON
	mergeBenchSections(t, map[string]any{"shard_chaos": section})
}

// recordTo names the JSON document the chaos runs merge their measured
// sections into. Empty — what a plain `go test` runs with — records
// nothing, so tests leave tracked files alone; `make shardcheck` and
// `make clustercheck` pass BENCH_load.json.
var recordTo = flag.String("record", "", "merge the measured chaos sections into this JSON file")

// mergeBenchSections merges named sections into the -record document,
// preserving every key it does not own (the other harness's sections).
func mergeBenchSections(t *testing.T, sections map[string]any) {
	t.Helper()
	path := *recordTo
	if path == "" {
		return
	}
	doc := make(map[string]any)
	if blob, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(blob, &doc); err != nil {
			t.Logf("existing %s does not parse (%v); rewriting from scratch", path, err)
			doc = make(map[string]any)
		}
	}
	for k, v := range sections {
		doc[k] = v
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		t.Fatalf("recording bench sections: %v", err)
	}
}
