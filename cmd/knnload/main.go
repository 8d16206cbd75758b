// Command knnload drives a running knnserver with an open-loop load mix
// and reports how it degrades: latency percentiles for the requests the
// server accepted, fail-fast behavior for the ones it shed, and whether
// every rejection carried a parseable Retry-After. Open-loop means
// arrivals happen on the clock, not after the previous response — the
// generator does not slow down just because the server does, which is
// exactly the regime admission control exists for.
//
// The workload is a query/mutation mix against a corpus the generator
// seeds itself: -mix splits arrivals between /query POSTs and mutations,
// and -delmix further splits the mutations between fingerprint PUTs
// (fresh users, plus overwrites and revivals of the seeded namespace) and
// DELETEs of seeded users — live-graph churn, not just appends. On top of
// that ride two optional chaos modes: -slow holds slow-loris
// connections that dribble a byte at a time into the request body (the
// server's read timeout must reap them), and -oversize sends fingerprint
// bodies larger than the server's wire size (the server must answer 413
// without reading the flood).
//
// The JSON report (-out, the Report type) separates accepted from
// rejected latencies: a healthy overloaded server shows accepted p99
// close to its unloaded p99 and rejected p99 near zero — shedding is only
// graceful if saying no is fast and the work that was said yes to stays
// fast. It goes to stdout unless -out names a file, which it replaces
// whole: never name BENCH_load.json, which holds only the chaos sections
// `make shardcheck` and `make clustercheck` record.
//
// -build POSTs /graph/build after seeding, with no algo parameter, so the
// server builds with its one builder, Cluster-and-Conquer. (Older servers
// built Hyrec for the same request: graph-mode load reports from them
// measure a different graph.) -mode graph then sends every query down the
// navigated path.
//
// Usage:
//
//	knnload -addr localhost:8080 -duration 30s -rate 2000 -mix 0.9 \
//	  -delmix 0.2 -slow 16 -oversize 8
package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"goldfinger/internal/core"
	"goldfinger/internal/profile"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "knnload:", err)
		os.Exit(1)
	}
}

// LatencySummary is the percentile digest of one latency population.
type LatencySummary struct {
	Count int64   `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
}

// Report is the JSON report -out writes.
type Report struct {
	Addr        string  `json:"addr"`
	DurationSec float64 `json:"duration_sec"`
	TargetRate  float64 `json:"target_rate"`
	QueryMix    float64 `json:"query_mix"`
	DeleteMix   float64 `json:"delete_mix"`
	K           int     `json:"k"`
	Bits        int     `json:"bits"`
	SeedUsers   int     `json:"seed_users"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	MeasuredAt  string  `json:"measured_at"`

	// Sent counts requests actually dispatched; ClientDropped counts
	// arrivals the generator refused to dispatch because -max-outstanding
	// was reached (the open-loop equivalent of a client giving up).
	Sent            int64   `json:"sent"`
	AchievedRate    float64 `json:"achieved_rate"`
	ClientDropped   int64   `json:"client_dropped"`
	TransportErrors int64   `json:"transport_errors"`

	// StatusCounts keys are numeric HTTP statuses as strings ("200",
	// "503", ...), values are response counts.
	StatusCounts map[string]int64 `json:"status_counts"`

	// Accepted digests 2xx responses; Rejected digests 429/503 — the
	// fail-fast path, whose latencies should be near zero under overload.
	Accepted LatencySummary `json:"accepted"`
	Rejected LatencySummary `json:"rejected"`
	// BadRetryAfter counts 429/503 responses whose Retry-After header was
	// missing or did not parse as a non-negative integer (an RFC 9110
	// violation the overload tests treat as a failure).
	BadRetryAfter int64 `json:"bad_retry_after"`

	// PartialResults counts 200 answers whose X-Partial-Results header
	// reported less than full shard coverage — a sharded deployment
	// serving around dead shards. Always 0 against a single node.
	PartialResults int64 `json:"partial_results,omitempty"`

	// Chaos results. SlowReaped counts slow-loris connections the server
	// terminated (its read timeout working); OversizeRejected counts
	// oversized uploads answered 413.
	SlowConns        int   `json:"slow_conns"`
	SlowReaped       int64 `json:"slow_reaped"`
	OversizeSent     int64 `json:"oversize_sent"`
	OversizeRejected int64 `json:"oversize_rejected"`
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("knnload", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", "", "target server host:port (required)")
	duration := fs.Duration("duration", 10*time.Second, "load duration")
	rate := fs.Float64("rate", 200, "open-loop arrival rate, requests/second")
	mix := fs.Float64("mix", 0.9, "fraction of arrivals that are /query POSTs; the rest are mutations")
	delmix := fs.Float64("delmix", 0, "fraction of the mutation arrivals that are DELETEs of seeded users; the rest are fingerprint PUTs")
	k := fs.Int("k", 10, "neighbors per query")
	mode := fs.String("mode", "auto", "/query mode to drive: auto, scan or graph")
	build := fs.Bool("build", false, "POST /graph/build after seeding so graph-mode queries have a fresh epoch")
	bits := fs.Int("bits", 1024, "fingerprint length; must match the server's -bits")
	seedUsers := fs.Int("users", 512, "users to upload before the run so queries scan a real corpus")
	timeout := fs.Duration("timeout", 5*time.Second, "per-request client timeout")
	maxOutstanding := fs.Int("max-outstanding", 4096, "in-flight request cap; arrivals beyond it are counted client_dropped")
	slow := fs.Int("slow", 0, "concurrent slow-loris connections dribbling a body one byte at a time")
	oversize := fs.Int("oversize", 0, "oversized fingerprint uploads to send (each must get 413)")
	outPath := fs.String("out", "-", "JSON report path ('-' for stdout)")
	seed := fs.Int64("seed", 1, "random seed for the synthetic profiles")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *addr == "" {
		return fmt.Errorf("-addr is required")
	}
	if *rate <= 0 || *duration <= 0 || *mix < 0 || *mix > 1 {
		return fmt.Errorf("need -rate > 0, -duration > 0, 0 <= -mix <= 1")
	}
	if *delmix < 0 || *delmix > 1 {
		return fmt.Errorf("need 0 <= -delmix <= 1")
	}
	if *seedUsers < 1 || *k < 1 || *maxOutstanding < 1 {
		return fmt.Errorf("need -users >= 1, -k >= 1, -max-outstanding >= 1")
	}
	switch *mode {
	case "auto", "scan", "graph":
	default:
		return fmt.Errorf("bad -mode %q (auto, scan, graph)", *mode)
	}

	scheme, err := core.NewScheme(*bits, uint64(*seed))
	if err != nil {
		return err
	}
	l := &loader{
		base:    "http://" + *addr,
		k:       *k,
		mode:    *mode,
		seedN:   *seedUsers,
		maxOut:  int64(*maxOutstanding),
		timeout: *timeout,
		client: &http.Client{
			Timeout: *timeout,
			Transport: &http.Transport{
				MaxIdleConns:        *maxOutstanding,
				MaxIdleConnsPerHost: *maxOutstanding,
			},
		},
		statuses: make(map[string]int64),
	}
	l.makeBodies(scheme, *seed)

	fmt.Fprintf(out, "knnload: seeding %d users at %s\n", *seedUsers, *addr)
	if err := l.seed(ctx, *seedUsers); err != nil {
		return fmt.Errorf("seeding corpus: %w", err)
	}
	if *build {
		fmt.Fprintf(out, "knnload: building graph (k=%d)\n", *k)
		if err := l.build(ctx); err != nil {
			return fmt.Errorf("building graph: %w", err)
		}
	}

	fmt.Fprintf(out, "knnload: %v open-loop at %.0f req/s (mix %.0f%% query, %.0f%% of mutations DELETE), %d slow conns, %d oversized\n",
		*duration, *rate, *mix*100, *delmix*100, *slow, *oversize)
	runCtx, cancel := context.WithTimeout(ctx, *duration)
	defer cancel()

	var chaos sync.WaitGroup
	for i := 0; i < *slow; i++ {
		chaos.Add(1)
		go func() { defer chaos.Done(); l.slowLoris(runCtx, *addr) }()
	}
	for i := 0; i < *oversize; i++ {
		chaos.Add(1)
		go func() { defer chaos.Done(); l.oversized(runCtx) }()
	}

	start := time.Now()
	l.openLoop(runCtx, *rate, *mix, *delmix, *seed)
	l.wg.Wait() // drain in-flight requests before reading the tallies
	chaos.Wait()
	elapsed := time.Since(start)
	// Drop the keep-alive pool: a generator that leaves thousands of idle
	// conns parked would hide server-side connection leaks from the
	// post-run goroutine checks.
	l.client.CloseIdleConnections()

	rep := l.report()
	rep.Addr = *addr
	rep.DurationSec = elapsed.Seconds()
	rep.TargetRate = *rate
	rep.QueryMix = *mix
	rep.DeleteMix = *delmix
	rep.K = *k
	rep.Bits = *bits
	rep.SeedUsers = *seedUsers
	rep.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.MeasuredAt = time.Now().UTC().Format(time.RFC3339)
	rep.SlowConns = *slow
	if elapsed > 0 {
		rep.AchievedRate = float64(rep.Sent) / elapsed.Seconds()
	}

	fmt.Fprintf(out, "knnload: sent %d (%.0f/s achieved), accepted p99 %.1fms, rejected p99 %.1fms, dropped %d, bad Retry-After %d\n",
		rep.Sent, rep.AchievedRate, rep.Accepted.P99Ms, rep.Rejected.P99Ms, rep.ClientDropped, rep.BadRetryAfter)

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if *outPath == "-" {
		_, err = out.Write(blob)
		return err
	}
	if err := os.WriteFile(*outPath, blob, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", *outPath)
	return nil
}

// loader owns the shared client, the pre-encoded fingerprint bodies, and
// the tallies every request goroutine reports into.
type loader struct {
	base    string
	k       int
	mode    string // /query mode parameter: auto, scan or graph
	seedN   int    // seeded-corpus size: mutation targets for DELETEs and revivals
	maxOut  int64
	timeout time.Duration
	client  *http.Client

	bodies [][]byte // pre-encoded fingerprint wire blobs
	next   atomic.Int64

	wg          sync.WaitGroup
	outstanding atomic.Int64
	sent        atomic.Int64
	dropped     atomic.Int64
	transport   atomic.Int64
	badRetry    atomic.Int64
	partial     atomic.Int64
	reaped      atomic.Int64
	overSent    atomic.Int64
	overOK      atomic.Int64

	mu       sync.Mutex
	statuses map[string]int64
	accepted []float64 // ms
	rejected []float64 // ms
}

// makeBodies pre-encodes a pool of fingerprint wire blobs so the hot loop
// never pays hashing or serialization — the generator must stay far
// cheaper than the server under test.
func (l *loader) makeBodies(scheme *core.Scheme, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	const pool = 64
	l.bodies = make([][]byte, pool)
	for i := range l.bodies {
		items := make([]profile.ItemID, 0, 40)
		for j := 0; j < 40; j++ {
			items = append(items, profile.ItemID(rng.Intn(5000)))
		}
		var buf bytes.Buffer
		if err := core.WriteFingerprint(&buf, scheme.Fingerprint(profile.New(items...))); err != nil {
			panic(err) // bytes.Buffer writes cannot fail
		}
		l.bodies[i] = buf.Bytes()
	}
}

func (l *loader) body() []byte {
	return l.bodies[int(l.next.Add(1))%len(l.bodies)]
}

// seed uploads n users with bounded concurrency and fails on the first
// non-2xx answer: a corpus that did not seed invalidates the whole run.
func (l *loader) seed(ctx context.Context, n int) error {
	sem := make(chan struct{}, 32)
	errc := make(chan error, 1)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case sem <- struct{}{}:
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			url := fmt.Sprintf("%s/users/load-%d/fingerprint", l.base, i)
			req, _ := http.NewRequestWithContext(ctx, http.MethodPut, url, bytes.NewReader(l.body()))
			resp, err := l.client.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode/100 != 2 {
					err = fmt.Errorf("seed %s: status %d", url, resp.StatusCode)
				}
			}
			if err != nil {
				select {
				case errc <- err:
				default:
				}
			}
		}(i)
	}
	wg.Wait()
	select {
	case err := <-errc:
		return err
	default:
		return nil
	}
}

// build POSTs /graph/build so graph-mode queries find a fresh epoch. The
// request runs without the per-request client timeout — a build over the
// seeded corpus can legitimately take longer than one query is allowed to.
func (l *loader) build(ctx context.Context) error {
	url := fmt.Sprintf("%s/graph/build?k=%d", l.base, l.k)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, nil)
	if err != nil {
		return err
	}
	client := &http.Client{Transport: l.client.Transport}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return nil
}

// openLoop dispatches arrivals on the clock until ctx expires. When the
// generator falls behind schedule it fires immediately without sleeping —
// arrivals owed are arrivals sent, which is what makes the loop open.
func (l *loader) openLoop(ctx context.Context, rate, mix, delmix float64, seed int64) {
	interval := time.Duration(float64(time.Second) / rate)
	rng := rand.New(rand.NewSource(seed + 1))
	start := time.Now()
	for i := int64(0); ; i++ {
		due := start.Add(time.Duration(float64(i) * float64(interval)))
		if d := time.Until(due); d > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(d):
			}
		} else if ctx.Err() != nil {
			return
		}
		if l.outstanding.Load() >= l.maxOut {
			l.dropped.Add(1)
			continue
		}
		isQuery := rng.Float64() < mix
		isDelete := !isQuery && rng.Float64() < delmix
		// A quarter of the PUTs overwrite (or revive, after a DELETE hit
		// them) the seeded namespace; the rest land on fresh ids. Deletes
		// always target seeded users so they tombstone real graph nodes.
		seedTarget := !isQuery && rng.Intn(4) == 0
		userID := rng.Intn(1 << 20)
		seedID := rng.Intn(l.seedN)
		l.outstanding.Add(1)
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			defer l.outstanding.Add(-1)
			switch {
			case isQuery:
				l.fire(http.MethodPost, fmt.Sprintf("%s/query?k=%d&mode=%s", l.base, l.k, l.mode))
			case isDelete:
				l.fire(http.MethodDelete, fmt.Sprintf("%s/users/load-%d/fingerprint", l.base, seedID))
			case seedTarget:
				l.fire(http.MethodPut, fmt.Sprintf("%s/users/load-%d/fingerprint", l.base, seedID))
			default:
				l.fire(http.MethodPut, fmt.Sprintf("%s/users/load-put-%d/fingerprint", l.base, userID))
			}
		}()
	}
}

// fire sends one request and tallies the outcome. Requests deliberately
// carry no context beyond the client timeout: a generator that cancels
// its own laggards would hide exactly the hangs the report must expose.
func (l *loader) fire(method, url string) {
	l.sent.Add(1)
	var body io.Reader
	if method != http.MethodDelete {
		body = bytes.NewReader(l.body())
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		l.transport.Add(1)
		return
	}
	startReq := time.Now()
	resp, err := l.client.Do(req)
	lat := time.Since(startReq)
	if err != nil {
		l.transport.Add(1)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	ms := float64(lat) / float64(time.Millisecond)
	if resp.StatusCode/100 == 2 && isPartialCoverage(resp.Header.Get("X-Partial-Results")) {
		l.partial.Add(1)
	}
	rejected := resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable
	badRetry := false
	if rejected {
		ra := resp.Header.Get("Retry-After")
		if secs, err := strconv.Atoi(ra); err != nil || secs < 0 {
			badRetry = true
		}
	}

	l.mu.Lock()
	l.statuses[strconv.Itoa(resp.StatusCode)]++
	switch {
	case resp.StatusCode/100 == 2:
		l.accepted = append(l.accepted, ms)
	case rejected:
		l.rejected = append(l.rejected, ms)
	}
	l.mu.Unlock()
	if badRetry {
		l.badRetry.Add(1)
	}
}

// slowLoris holds one connection open and dribbles an upload one byte per
// write, far below any legitimate client rate. A hardened server reaps it
// via ReadTimeout; the victim of the test is the server's connection
// budget, never the generator's.
func (l *loader) slowLoris(ctx context.Context, addr string) {
	d := net.Dialer{Timeout: l.timeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return
	}
	defer conn.Close()
	head := fmt.Sprintf("PUT /users/slow/fingerprint HTTP/1.1\r\nHost: %s\r\nContent-Length: 1000000\r\n\r\n", addr)
	if _, err := conn.Write([]byte(head)); err != nil {
		l.reaped.Add(1)
		return
	}
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			conn.SetWriteDeadline(time.Now().Add(l.timeout))
			if _, err := conn.Write([]byte{0x00}); err != nil {
				// The server hung up on us mid-dribble: that is the read
				// timeout doing its job.
				l.reaped.Add(1)
				return
			}
		}
	}
}

// oversized uploads a body far beyond the fingerprint wire size; the
// server must answer 413 without buffering the flood. The body opens
// with a well-formed header declaring a huge bit length — a garbage
// header would be rejected as a 400 parse error before the size cap
// ever engaged, which is not the defense under test.
func (l *loader) oversized(ctx context.Context) {
	l.overSent.Add(1)
	body := make([]byte, 1<<20)
	copy(body, "SHF1")
	binary.LittleEndian.PutUint32(body[4:8], 1<<24) // declared bits, far past any server's -bits
	url := l.base + "/users/flood/fingerprint"
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, url, bytes.NewReader(body))
	if err != nil {
		return
	}
	resp, err := l.client.Do(req)
	if err != nil {
		// The server may slam the connection after answering 413 without
		// draining; Go surfaces that as a transport error on some kernels.
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusRequestEntityTooLarge {
		l.overOK.Add(1)
	}
	l.mu.Lock()
	l.statuses[strconv.Itoa(resp.StatusCode)]++
	l.mu.Unlock()
}

func (l *loader) report() Report {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Report{
		Sent:             l.sent.Load(),
		ClientDropped:    l.dropped.Load(),
		TransportErrors:  l.transport.Load(),
		StatusCounts:     l.statuses,
		Accepted:         summarize(l.accepted),
		Rejected:         summarize(l.rejected),
		BadRetryAfter:    l.badRetry.Load(),
		PartialResults:   l.partial.Load(),
		SlowReaped:       l.reaped.Load(),
		OversizeSent:     l.overSent.Load(),
		OversizeRejected: l.overOK.Load(),
	}
}

// isPartialCoverage parses an X-Partial-Results "served/total" value and
// reports whether it admits to less than full coverage.
func isPartialCoverage(v string) bool {
	var served, total int
	if _, err := fmt.Sscanf(v, "%d/%d", &served, &total); err != nil {
		return false
	}
	return served < total
}

// summarize sorts in place and digests one latency population.
func summarize(ms []float64) LatencySummary {
	if len(ms) == 0 {
		return LatencySummary{}
	}
	sort.Float64s(ms)
	return LatencySummary{
		Count: int64(len(ms)),
		P50Ms: percentile(ms, 0.50),
		P90Ms: percentile(ms, 0.90),
		P99Ms: percentile(ms, 0.99),
		MaxMs: ms[len(ms)-1],
	}
}

// percentile reads the nearest-rank percentile from a sorted slice.
func percentile(sorted []float64, q float64) float64 {
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
