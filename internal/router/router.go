package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"goldfinger/internal/admit"
	"goldfinger/internal/obs"
)

// ShardSpec names one backend shard-core: a stable name (the placement
// ring hashes it) and the base URL the router dials.
type ShardSpec struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// Config configures a Router. Zero values select the documented defaults.
type Config struct {
	// Shards is the backend set. Placement, scatter width and quorum all
	// derive from it. Must be non-empty.
	Shards []ShardSpec
	// Quorum is the minimum fraction of shards that must contribute to a
	// /query for a 200: served ≥ ceil(Quorum×total), floored at 1 shard.
	// Below it the router answers 503 with a Retry-After computed from
	// the sick shards' breaker deadlines. 0 selects 0.5 — a minority of
	// shards down degrades, a majority down fails.
	Quorum float64
	// QueryTimeout is the default full-request budget for /query and
	// neighbor reads when the client sets no X-Request-Timeout and the
	// request context no deadline. Per-shard deadlines are derived from
	// it (budget minus a merge reserve). 0 selects 10s.
	QueryTimeout time.Duration
	// MutateTimeout is the same budget for PUT/DELETE mutations. 0
	// selects 15s (WAL fsync under load is slower than a read).
	MutateTimeout time.Duration
	// HedgeAfter is how long the router waits on a shard before hedging a
	// duplicate request at it. 0 derives it per shard from the breaker's
	// latency window: 2× the windowed p99, clamped to [10ms, budget/2]
	// (budget/4 while the window is empty) — the hedge fires only for
	// genuine stragglers. Negative disables hedging.
	HedgeAfter time.Duration
	// Retries bounds the extra attempts for idempotent reads after a
	// breaker-relevant failure, with exponential backoff from RetryBase.
	// Mutations are never retried by the router. Default 1; negative
	// disables.
	Retries int
	// RetryBase is the first retry's backoff. 0 selects 25ms.
	RetryBase time.Duration
	// Breaker tunes every shard's circuit breaker.
	Breaker BreakerConfig
	// ProbeInterval paces the active prober that re-tests open shards
	// (GET /healthz) so breakers re-close without waiting for live
	// traffic to volunteer as probes. 0 derives half the breaker's open
	// interval, floored at 100ms. Negative disables active probing.
	// Consecutive probe failures back the cadence off exponentially (per
	// shard, capped at 10× the interval bounded by 10s) so a long-dead
	// shard is not hammered at full rate forever.
	ProbeInterval time.Duration
	// MigrateTimeout bounds how long the migration driver retries one
	// shard-to-shard import before giving up on that slice (the slice
	// then stays on the losing shard, unrouted, until the gainer rejoins
	// and a later ring change retries). 0 selects 120s.
	MigrateTimeout time.Duration
	// MaxBodyBytes bounds the request and response bodies the router
	// buffers (fingerprints in, top-k JSON out). 0 selects 1 MiB.
	MaxBodyBytes int64
	// Metrics receives router and per-shard metrics. May be nil.
	Metrics *obs.Registry
	// Transport overrides the HTTP transport (tests inject faults here).
	Transport http.RoundTripper
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

func (c Config) quorumCount(total int) int {
	q := c.Quorum
	if q <= 0 {
		q = 0.5
	}
	if q > 1 {
		q = 1
	}
	n := int(q * float64(total))
	if float64(n) < q*float64(total) {
		n++ // ceil
	}
	if n < 1 {
		n = 1
	}
	if n > total {
		n = total
	}
	return n
}

func (c Config) queryTimeout() time.Duration {
	if c.QueryTimeout <= 0 {
		return 10 * time.Second
	}
	return c.QueryTimeout
}

func (c Config) mutateTimeout() time.Duration {
	if c.MutateTimeout <= 0 {
		return 15 * time.Second
	}
	return c.MutateTimeout
}

func (c Config) retries() int {
	if c.Retries < 0 {
		return 0
	}
	if c.Retries == 0 {
		return 1
	}
	return c.Retries
}

func (c Config) retryBase() time.Duration {
	if c.RetryBase <= 0 {
		return 25 * time.Millisecond
	}
	return c.RetryBase
}

func (c Config) probeInterval() time.Duration {
	if c.ProbeInterval > 0 {
		return c.ProbeInterval
	}
	iv := c.Breaker.openFor() / 2
	if iv < 100*time.Millisecond {
		iv = 100 * time.Millisecond
	}
	return iv
}

func (c Config) migrateTimeout() time.Duration {
	if c.MigrateTimeout <= 0 {
		return 120 * time.Second
	}
	return c.MigrateTimeout
}

func (c Config) maxBodyBytes() int64 {
	if c.MaxBodyBytes <= 0 {
		return 1 << 20
	}
	return c.MaxBodyBytes
}

// Router-level metric names.
const (
	metricQueries      = "router.query.total"
	metricQueryPartial = "router.query.partial.total"
	metricQueryFailed  = "router.query.failed.total"
	metricQuerySecs    = "router.query.seconds"
	metricHedges       = "router.hedge.total"
	metricHedgeWins    = "router.hedge.wins.total"
	metricRetries      = "router.retry.total"
)

// HeaderPartialResults reports scatter-gather coverage on every routed
// /query response: "served/total" shards. "3/4" on a 200 is the partial-
// result contract — the answer is missing at most the dead shard's share.
const HeaderPartialResults = "X-Partial-Results"

// shard is one backend's runtime state.
type shard struct {
	spec    ShardSpec
	breaker *Breaker
	lats    *obs.Window

	inflight  *obs.Gauge
	requests  *obs.Counter
	failures  *obs.Counter
	sheds     *obs.Counter
	openSkips *obs.Counter

	degraded  atomic.Bool
	lastErr   atomic.Pointer[string]
	lastErrAt atomic.Int64 // unix nanos

	// ringSynced is the highest ringState generation this shard has acked
	// via POST /ring; the prober re-pushes while it lags the current one.
	ringSynced atomic.Uint64

	// Prober backoff state (satellite: a long-down shard is probed at a
	// decaying, capped cadence, not hammered at full rate forever).
	probeMu   sync.Mutex
	probeWait time.Duration
	probeNext time.Time
}

// probeDue reports whether the backoff schedule allows a probe now.
func (s *shard) probeDue(now time.Time) bool {
	s.probeMu.Lock()
	defer s.probeMu.Unlock()
	return s.probeNext.IsZero() || !now.Before(s.probeNext)
}

// probeFailed doubles the shard's probe backoff up to the cap.
func (s *shard) probeFailed(base, cap time.Duration) {
	s.probeMu.Lock()
	defer s.probeMu.Unlock()
	if s.probeWait == 0 {
		s.probeWait = base
	} else {
		s.probeWait *= 2
	}
	if s.probeWait > cap {
		s.probeWait = cap
	}
	s.probeNext = time.Now().Add(s.probeWait)
}

// probeSucceeded resets the backoff schedule.
func (s *shard) probeSucceeded() {
	s.probeMu.Lock()
	defer s.probeMu.Unlock()
	s.probeWait = 0
	s.probeNext = time.Time{}
}

func (s *shard) noteError(err string) {
	s.lastErr.Store(&err)
	s.lastErrAt.Store(time.Now().UnixNano())
}

func (s *shard) lastError() string {
	if p := s.lastErr.Load(); p != nil {
		return *p
	}
	return ""
}

// Router is the scatter-gather front tier. Create with New, serve its
// Handler, and Close it on shutdown (stops the active prober and the
// ring-reconcile driver).
type Router struct {
	cfg    Config
	client *http.Client
	obs    *obs.Registry

	// ring is the current routing epoch, swapped atomically on membership
	// change (see cluster.go for the migration state machine around it).
	ring    atomic.Pointer[ringState]
	ringGen atomic.Uint64

	// members is the cluster's member table, and the router its authority:
	// the URL of every shard that joined and has not left, by name. byName
	// holds every shard runtime ever resolved, so breaker history survives
	// ring changes and a shard that left stays reachable until its slice
	// has streamed away. A replacement process (same name, new URL) gets a
	// fresh runtime.
	shardsMu sync.Mutex
	members  map[string]string
	byName   map[string]*shard

	// retired maps a losing shard to the last epoch it was retired at —
	// changeRing consults it so a loser feeding two gainers retires once.
	// Touched only from the reconcile goroutine.
	retired map[string]uint64

	kick      chan struct{}
	stop      context.CancelFunc
	probeDone chan struct{}
	reconDone chan struct{}
}

// New builds a router over the configured shards and starts its active
// health prober (disable with ProbeInterval < 0) and its ring-reconcile
// driver. Shards may be empty: a multi-process deployment starts the
// router bare and shard processes register via POST /cluster/join.
func New(cfg Config) (*Router, error) {
	names := make([]string, len(cfg.Shards))
	seen := map[string]bool{}
	for i, s := range cfg.Shards {
		if s.Name == "" || s.URL == "" {
			return nil, fmt.Errorf("router: shard %d needs a name and a URL", i)
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("router: duplicate shard name %q", s.Name)
		}
		seen[s.Name] = true
		names[i] = s.Name
	}
	transport := cfg.Transport
	if transport == nil {
		transport = &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}
	}
	r := &Router{
		cfg:     cfg,
		client:  &http.Client{Transport: transport},
		obs:     cfg.Metrics,
		members: map[string]string{},
		byName:  map[string]*shard{},
		retired: map[string]uint64{},
		kick:    make(chan struct{}, 1),
	}
	shards := make([]*shard, len(cfg.Shards))
	for i, spec := range cfg.Shards {
		r.members[spec.Name] = spec.URL
		shards[i] = r.getShard(spec)
	}
	st := &ringState{epoch: 1, names: names, shards: shards, byName: shardMap(shards)}
	if len(names) > 0 {
		st.place = NewPlacement(names, 0)
	}
	r.installRing(st)

	ctx, stop := context.WithCancel(context.Background())
	r.stop = stop
	r.reconDone = make(chan struct{})
	go r.reconcileLoop(ctx)
	if cfg.ProbeInterval >= 0 {
		r.probeDone = make(chan struct{})
		go r.probeLoop(ctx)
	}
	return r, nil
}

// newShard builds one shard runtime (metrics, breaker). Callers hold no
// lock; getShard is the map-aware entry point.
func (r *Router) newShard(spec ShardSpec) *shard {
	prefix := "router.shard." + spec.Name + "."
	lats := r.obs.Window(prefix+"latency", 128)
	sh := &shard{
		spec:      spec,
		lats:      lats,
		inflight:  r.obs.Gauge(prefix + "inflight"),
		requests:  r.obs.Counter(prefix + "requests.total"),
		failures:  r.obs.Counter(prefix + "failures.total"),
		sheds:     r.obs.Counter(prefix + "shed.total"),
		openSkips: r.obs.Counter(prefix + "open_skips.total"),
	}
	sh.breaker = NewBreaker(r.cfg.Breaker, lats,
		r.obs.Gauge(prefix+"breaker.state"), r.obs.Counter(prefix+"breaker.trips.total"))
	return sh
}

// Close stops the prober and reconcile driver and drops idle connections.
func (r *Router) Close() {
	if r.stop != nil {
		r.stop()
		if r.probeDone != nil {
			<-r.probeDone
		}
		<-r.reconDone
	}
	r.client.CloseIdleConnections()
}

// Placement returns the current ring's consistent-hash placement —
// in-process shard-cores share it so ownership checks agree with routing.
// Nil while no shard has joined.
func (r *Router) Placement() *Placement { return r.ring.Load().place }

// Metrics returns the router's metrics registry (may be nil).
func (r *Router) Metrics() *obs.Registry { return r.obs }

func (r *Router) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// probeLoop actively re-tests shards whose breaker is not closed: a GET
// /healthz counts as the half-open probe, so a restarted shard re-closes
// its breaker within one probe interval even with zero live traffic
// willing to be the guinea pig. Consecutive failures back each shard's
// probe cadence off exponentially (capped), so a shard that stays dead
// for an hour is not dialed at full rate for an hour. The loop also
// backfills ring distribution: any shard that has not acked the current
// ring generation gets it re-pushed here.
func (r *Router) probeLoop(ctx context.Context) {
	defer close(r.probeDone)
	iv := r.cfg.probeInterval()
	capWait := 10 * iv
	if capWait > 10*time.Second {
		capWait = 10 * time.Second
	}
	tick := time.NewTicker(iv)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		st := r.ring.Load()
		now := time.Now()
		for _, sh := range st.reach() {
			// Backfill the ring on shards that missed a push — but only when
			// the shard is believed healthy or its probe backoff has elapsed,
			// so a long-dead shard is not hammered on /ring either.
			if sh.ringSynced.Load() < st.gen &&
				(sh.breaker.State() == BreakerClosed || sh.probeDue(now)) {
				go r.pushRingTo(ctx, sh, st)
			}
			if sh.breaker.State() == BreakerClosed {
				sh.probeSucceeded()
				continue
			}
			if !sh.probeDue(now) {
				continue
			}
			ok, probe := sh.breaker.Allow()
			if !ok {
				continue
			}
			go r.probeShard(ctx, sh, probe, iv, capWait)
		}
	}
}

func (r *Router) probeShard(ctx context.Context, sh *shard, probe bool, iv, capWait time.Duration) {
	pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, sh.spec.URL+"/healthz", nil)
	if err != nil {
		sh.breaker.Forget(probe)
		return
	}
	start := time.Now()
	resp, err := r.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			sh.breaker.Forget(probe) // router shutting down, not shard sickness
			return
		}
		sh.noteError(err.Error())
		sh.breaker.Record(time.Since(start), true, probe)
		sh.probeFailed(iv, capWait)
		return
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	healthy := resp.StatusCode == http.StatusOK
	sh.degraded.Store(strings.HasPrefix(string(body), "degraded"))
	sh.breaker.Record(time.Since(start), !healthy, probe)
	if healthy {
		sh.probeSucceeded()
		if probe {
			r.logf("router: shard %s healthy again, breaker %s", sh.spec.Name, sh.breaker.State())
		}
	} else {
		sh.probeFailed(iv, capWait)
	}
}

// outcomeKind classifies one logical shard call.
type outcomeKind int

const (
	// outcomeOK: a 2xx answer with a body.
	outcomeOK outcomeKind = iota
	// outcomeFinal: an honest non-2xx answer to pass through — client
	// errors (4xx) and backpressure (429, or 503 carrying Retry-After).
	// Final answers never feed the breaker's failure side and are never
	// retried or hedged over.
	outcomeFinal
	// outcomeFail: the shard is not answering usefully — transport error,
	// timeout, 5xx without honest backpressure. Feeds the breaker.
	outcomeFail
	// outcomeOpen: the breaker refused the call; the shard was not dialed.
	outcomeOpen
)

// outcome is one logical shard call's result.
type outcome struct {
	kind   outcomeKind
	status int
	header http.Header
	body   []byte
	err    error
	shed   bool // a 429 or 503+Retry-After final answer
}

// isShed reports whether a response is honest backpressure: rate-limit
// 429, or a 503 that carries the Retry-After every admission and
// degraded-mode path computes. Backpressure is a healthy shard saying
// "not now" — it must not trip the breaker (satellite: one shard's shed
// must not fail the scatter-gather) and must not be retried into a storm.
func isShed(status int, header http.Header) bool {
	if status == http.StatusTooManyRequests {
		return true
	}
	return status == http.StatusServiceUnavailable && header.Get("Retry-After") != ""
}

// attemptResult is one physical attempt's classification.
type attemptResult struct {
	out      outcome
	canceled bool // canceled by the logical call settling; says nothing about the shard
	hedge    bool
}

// oneAttempt performs one physical HTTP exchange against sh and classifies
// it. Breaker accounting happens here: failures and successes are
// recorded with the attempt's latency; attempts canceled because a
// sibling won are forgotten, not recorded.
func (r *Router) oneAttempt(ctx context.Context, sh *shard, probe bool, mk func(ctx context.Context) (*http.Request, error), hedge bool) attemptResult {
	req, err := mk(ctx)
	if err != nil {
		sh.breaker.Forget(probe)
		return attemptResult{out: outcome{kind: outcomeFail, err: err}, hedge: hedge}
	}
	sh.requests.Inc()
	sh.inflight.Add(1)
	start := time.Now()
	resp, err := r.client.Do(req)
	lat := time.Since(start)
	sh.inflight.Add(-1)
	if err != nil {
		if errors.Is(ctx.Err(), context.Canceled) {
			sh.breaker.Forget(probe)
			return attemptResult{canceled: true, hedge: hedge}
		}
		sh.failures.Inc()
		sh.noteError(err.Error())
		sh.breaker.Record(lat, true, probe)
		return attemptResult{out: outcome{kind: outcomeFail, err: err}, hedge: hedge}
	}
	body, rerr := io.ReadAll(io.LimitReader(resp.Body, r.cfg.maxBodyBytes()+1))
	resp.Body.Close()
	if rerr != nil || int64(len(body)) > r.cfg.maxBodyBytes() {
		if rerr == nil {
			rerr = fmt.Errorf("shard %s response exceeds %d bytes", sh.spec.Name, r.cfg.maxBodyBytes())
		}
		sh.failures.Inc()
		sh.noteError(rerr.Error())
		sh.breaker.Record(lat, true, probe)
		return attemptResult{out: outcome{kind: outcomeFail, err: rerr}, hedge: hedge}
	}
	switch {
	case resp.StatusCode/100 == 2:
		sh.breaker.Record(lat, false, probe)
		return attemptResult{out: outcome{kind: outcomeOK, status: resp.StatusCode, header: resp.Header, body: body}, hedge: hedge}
	case isShed(resp.StatusCode, resp.Header):
		sh.sheds.Inc()
		sh.breaker.Record(lat, false, probe)
		return attemptResult{out: outcome{kind: outcomeFinal, status: resp.StatusCode, header: resp.Header, body: body, shed: true}, hedge: hedge}
	case resp.StatusCode/100 == 4:
		sh.breaker.Record(lat, false, probe)
		return attemptResult{out: outcome{kind: outcomeFinal, status: resp.StatusCode, header: resp.Header, body: body}, hedge: hedge}
	default: // 5xx without honest backpressure
		sh.failures.Inc()
		sh.noteError(fmt.Sprintf("status %d from %s", resp.StatusCode, sh.spec.Name))
		sh.breaker.Record(lat, true, probe)
		return attemptResult{out: outcome{kind: outcomeFail, status: resp.StatusCode, header: resp.Header, body: body}, hedge: hedge}
	}
}

// hedgeDelay resolves when to hedge a call at sh given its budget.
func (r *Router) hedgeDelay(sh *shard, budget time.Duration) time.Duration {
	if r.cfg.HedgeAfter > 0 {
		return r.cfg.HedgeAfter
	}
	if sh.lats.Len() >= 8 {
		d := time.Duration(2 * sh.lats.Quantile(0.99) * float64(time.Second))
		lo, hi := 10*time.Millisecond, budget/2
		if d < lo {
			d = lo
		}
		if hi > 0 && d > hi {
			d = hi
		}
		return d
	}
	return budget / 4
}

// call runs one logical request against sh: breaker check, a first
// attempt, an optional hedged duplicate once the straggler delay elapses
// (idempotent calls only), and bounded exponential-backoff retries after
// failures (idempotent calls only). The first settled answer wins; the
// loser is canceled and its outcome forgotten.
func (r *Router) call(ctx context.Context, sh *shard, idempotent bool, budget time.Duration, mk func(ctx context.Context) (*http.Request, error)) outcome {
	allowed, probe := sh.breaker.Allow()
	if !allowed {
		sh.openSkips.Inc()
		return outcome{kind: outcomeOpen}
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()

	hedging := idempotent && !probe && r.cfg.HedgeAfter >= 0
	retries := 0
	if idempotent && !probe {
		retries = r.cfg.retries()
	}
	results := make(chan attemptResult, retries+2)
	launch := func(hedge bool) {
		go func() { results <- r.oneAttempt(actx, sh, probe, mk, hedge) }()
	}
	// Only the first Allow carries the probe token; a probe is a single
	// gentle attempt. (probe implies hedging and retries are off above.)
	launch(false)
	inflight := 1

	var hedgeTimer <-chan time.Time
	if hedging {
		hedgeTimer = time.After(r.hedgeDelay(sh, budget))
	}
	var retryTimer <-chan time.Time
	backoff := r.cfg.retryBase()
	hedged := false
	var last outcome
	lastValid := false

	for {
		select {
		case <-ctx.Done():
			if lastValid {
				return last
			}
			return outcome{kind: outcomeFail, err: ctx.Err()}
		case <-hedgeTimer:
			hedgeTimer = nil
			if inflight > 0 && !hedged {
				hedged = true
				r.obs.Counter(metricHedges).Inc()
				inflight++
				launch(true)
			}
		case <-retryTimer:
			retryTimer = nil
			inflight++
			launch(false)
		case res := <-results:
			inflight--
			if res.canceled {
				if inflight == 0 && retryTimer == nil {
					if lastValid {
						return last
					}
					return outcome{kind: outcomeFail, err: ctx.Err()}
				}
				continue
			}
			if res.out.kind != outcomeFail {
				if res.hedge {
					r.obs.Counter(metricHedgeWins).Inc()
				}
				return res.out
			}
			last, lastValid = res.out, true
			// A failure: retry with backoff while attempts and budget
			// remain; otherwise settle once nothing else is in flight.
			if retries > 0 && retryTimer == nil && ctx.Err() == nil {
				retries--
				r.obs.Counter(metricRetries).Inc()
				retryTimer = time.After(backoff)
				backoff *= 2
				continue
			}
			if inflight == 0 && retryTimer == nil {
				return last
			}
		}
	}
}

// Handler returns the router's HTTP routes — the same surface a
// single-node knnserver exposes, so clients and load generators cannot
// tell (except by reading X-Partial-Results) whether they talk to one
// node or a fleet.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", r.handleHealth)
	mux.HandleFunc("/stats", r.handleStats)
	mux.HandleFunc("/metrics", r.handleMetrics)
	mux.HandleFunc("/query", r.handleQuery)
	mux.HandleFunc("/users/", r.handleUsers)
	mux.HandleFunc("/graph/build", r.handleBuild)
	mux.HandleFunc("/build", r.handleBuild)
	mux.HandleFunc("/cluster", r.handleCluster)
	mux.HandleFunc("/cluster/join", r.handleClusterJoin)
	mux.HandleFunc("/cluster/leave", r.handleClusterLeave)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// budget resolves a request's full time budget: the configured default,
// lowered by the client's X-Request-Timeout and by any deadline already
// on the request context.
func budgetFor(req *http.Request, def time.Duration) (time.Duration, error) {
	b, err := admit.ClientTimeout(req, def)
	if err != nil {
		return 0, err
	}
	if dl, ok := req.Context().Deadline(); ok {
		if rem := time.Until(dl); rem < b {
			b = rem
		}
	}
	if b <= 0 {
		b = time.Millisecond
	}
	return b, nil
}

// shardDeadline derives the per-shard deadline from the full budget: the
// budget minus a reserve for the merge and response write, floored so a
// tight budget still dials out.
func shardDeadline(budget time.Duration) time.Duration {
	reserve := budget / 10
	if reserve > 250*time.Millisecond {
		reserve = 250 * time.Millisecond
	}
	d := budget - reserve
	if d < 10*time.Millisecond {
		d = 10 * time.Millisecond
	}
	return d
}

// fmtShardTimeout renders a per-shard deadline for the downstream
// X-Request-Timeout header.
func fmtShardTimeout(d time.Duration) string { return d.Round(time.Millisecond).String() }

// handleQuery scatter-gathers POST /query across every shard and merges
// the per-shard top-k deterministically. Coverage is reported on every
// response via X-Partial-Results; below-quorum coverage is a 503 with
// Retry-After from the sick shards' breakers.
func (r *Router) handleQuery(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	k := 10
	if v := req.URL.Query().Get("k"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed <= 0 {
			httpError(w, http.StatusBadRequest, "bad k %q", v)
			return
		}
		k = parsed
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, r.cfg.maxBodyBytes()))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, "query body exceeds %d bytes", r.cfg.maxBodyBytes())
			return
		}
		httpError(w, http.StatusBadRequest, "reading request body: %v", err)
		return
	}
	budget, err := budgetFor(req, r.cfg.queryTimeout())
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	start := time.Now()
	r.obs.Counter(metricQueries).Inc()

	// The scatter set: the ring's shards, plus — during a migration — the
	// old ring's departing shards, which still hold their users until
	// retire. The merge deduplicates by user id, so a user transiently
	// resident on two shards is counted once. No coverage hole either way.
	st := r.ring.Load()
	scatter := st.reach()
	if len(scatter) == 0 {
		admit.SetRetryAfter(w, time.Second)
		httpError(w, http.StatusServiceUnavailable, "no shards have joined this router")
		return
	}
	perShard := shardDeadline(budget)
	sctx, cancel := context.WithTimeout(context.WithoutCancel(req.Context()), budget)
	defer cancel()
	// Scatter. Each shard call carries the derived deadline both as a
	// context (transport-level) and as the downstream X-Request-Timeout
	// (the shard's admission queue honors it, so work that cannot finish
	// inside our budget is shed there instead of burning a slot).
	path := "/query?" + req.URL.RawQuery
	type gathered struct {
		sh  *shard
		out outcome
	}
	results := make(chan gathered, len(scatter))
	for _, sh := range scatter {
		go func(sh *shard) {
			cctx, ccancel := context.WithTimeout(sctx, perShard)
			defer ccancel()
			out := r.call(cctx, sh, true, perShard, func(ctx context.Context) (*http.Request, error) {
				hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, sh.spec.URL+path, bytes.NewReader(body))
				if err != nil {
					return nil, err
				}
				hreq.Header.Set("Content-Type", "application/octet-stream")
				hreq.Header.Set(admit.HeaderRequestTimeout, fmtShardTimeout(perShard))
				return hreq, nil
			})
			results <- gathered{sh: sh, out: out}
		}(sh)
	}

	lists := make([][]Hit, 0, len(scatter))
	served := 0
	var clientErr *outcome
	for range scatter {
		g := <-results
		switch g.out.kind {
		case outcomeOK:
			var hits []Hit
			if err := json.Unmarshal(g.out.body, &hits); err != nil {
				g.sh.noteError("bad /query body: " + err.Error())
				continue
			}
			lists = append(lists, hits)
			served++
		case outcomeFinal:
			// Backpressure leaves a coverage hole (partial result), a real
			// client error (bad k, bad fingerprint, oversized body) is the
			// same answer every shard would give — relay the first one.
			if !g.out.shed && clientErr == nil {
				o := g.out
				clientErr = &o
			}
		}
	}
	total := len(scatter)
	if clientErr != nil {
		copyHeaders(w.Header(), clientErr.header)
		w.WriteHeader(clientErr.status)
		w.Write(clientErr.body)
		return
	}
	w.Header().Set(HeaderPartialResults, fmt.Sprintf("%d/%d", served, total))
	if served < r.cfg.quorumCount(total) {
		r.obs.Counter(metricQueryFailed).Inc()
		admit.SetRetryAfter(w, r.sickRetryAfter())
		httpError(w, http.StatusServiceUnavailable,
			"%d of %d shards answered, quorum is %d; retry later", served, total, r.cfg.quorumCount(total))
		return
	}
	if served < total {
		r.obs.Counter(metricQueryPartial).Inc()
	}
	r.obs.Histogram(metricQuerySecs, obs.DefWaitBuckets).ObserveSince(start)
	writeJSON(w, http.StatusOK, MergeTopK(k, lists))
}

// sickRetryAfter is the Retry-After for below-quorum 503s: the soonest
// half-open deadline among open breakers — the earliest instant at which
// coverage can possibly improve — floored at 1s.
func (r *Router) sickRetryAfter() time.Duration {
	best := time.Duration(0)
	for _, sh := range r.ring.Load().reach() {
		if sh.breaker.State() != BreakerClosed {
			ra := sh.breaker.RetryAfter()
			if best == 0 || ra < best {
				best = ra
			}
		}
	}
	if best == 0 {
		best = time.Second
	}
	return best
}

// handleUsers routes /users/{id}/... to the owning shard. Neighbor reads
// are idempotent (hedged, retried); mutations are forwarded exactly once
// and the shard's answer — including its durable/degraded 503 and
// Retry-After — passes through verbatim.
//
// During a migration, reads of moving ids go to the old owner (dual-read:
// it still holds everything), falling back to the gainer if the old owner
// fails; mutations of moving ids are fenced with a fail-fast 503 so the
// in-flight export stream stays authoritative. And if a shard answers 421
// (its installed ring disagrees with ours — placement drift), the router
// counts it, logs it, and retries once at the shard the 421 names.
func (r *Router) handleUsers(w http.ResponseWriter, req *http.Request) {
	rest := strings.TrimPrefix(req.URL.Path, "/users/")
	parts := strings.Split(rest, "/")
	if len(parts) != 2 || parts[0] == "" {
		httpError(w, http.StatusNotFound, "want /users/{id}/fingerprint or /users/{id}/neighbors")
		return
	}
	id := parts[0]
	idempotent := req.Method == http.MethodGet
	st := r.ring.Load()
	sh, fallback, fenced := st.route(id, !idempotent)
	if fenced {
		r.obs.Counter(metricFencedWrites).Inc()
		admit.SetRetryAfter(w, time.Second)
		httpError(w, http.StatusServiceUnavailable,
			"user %q is migrating to a new shard; writes resume after cutover", id)
		return
	}
	if sh == nil {
		admit.SetRetryAfter(w, time.Second)
		httpError(w, http.StatusServiceUnavailable, "no shards have joined this router")
		return
	}
	if fallback != nil {
		r.obs.Counter(metricDualReads).Inc()
	}
	def := r.cfg.mutateTimeout()
	if idempotent {
		def = r.cfg.queryTimeout()
	}
	budget, err := budgetFor(req, def)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var body []byte
	if req.Body != nil {
		body, err = io.ReadAll(http.MaxBytesReader(w, req.Body, r.cfg.maxBodyBytes()))
		if err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				httpError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", r.cfg.maxBodyBytes())
				return
			}
			httpError(w, http.StatusBadRequest, "reading request body: %v", err)
			return
		}
	}
	perShard := shardDeadline(budget)
	cctx, cancel := context.WithTimeout(context.WithoutCancel(req.Context()), perShard)
	defer cancel()
	path := req.URL.Path
	if req.URL.RawQuery != "" {
		path += "?" + req.URL.RawQuery
	}
	callShard := func(sh *shard) outcome {
		return r.call(cctx, sh, idempotent, perShard, func(ctx context.Context) (*http.Request, error) {
			hreq, err := http.NewRequestWithContext(ctx, req.Method, sh.spec.URL+path, bytes.NewReader(body))
			if err != nil {
				return nil, err
			}
			hreq.Header.Set(admit.HeaderRequestTimeout, fmtShardTimeout(perShard))
			if ct := req.Header.Get("Content-Type"); ct != "" {
				hreq.Header.Set("Content-Type", ct)
			}
			return hreq, nil
		})
	}
	out := callShard(sh)
	if fallback != nil && (out.kind == outcomeFail || out.kind == outcomeOpen) {
		// Dual-read window: the old owner is sick mid-handoff; the gainer
		// may already hold the imported copy.
		sh = fallback
		out = callShard(sh)
	}
	if out.kind == outcomeFinal && out.status == http.StatusMisdirectedRequest {
		if ownerName := out.header.Get("X-Owner-Shard"); ownerName != "" && ownerName != sh.spec.Name {
			r.obs.Counter(metricDrift).Inc()
			r.logf("router: placement drift: routed %q to %s, shard says owner is %s (epoch %s)",
				id, sh.spec.Name, ownerName, out.header.Get("X-Ring-Epoch"))
			if redirect, ok := r.lookupShard(ownerName); ok && redirect != sh {
				sh = redirect
				out = callShard(sh)
			}
		}
	}
	r.writeOutcome(w, sh, out)
}

// writeOutcome relays one shard's outcome to the client: pass-through for
// answers, honest router-originated errors for the rest — always with a
// Retry-After on 503s (breaker half-open deadline for open shards, 1s
// floor otherwise).
func (r *Router) writeOutcome(w http.ResponseWriter, sh *shard, out outcome) {
	switch out.kind {
	case outcomeOK, outcomeFinal:
		copyHeaders(w.Header(), out.header)
		w.WriteHeader(out.status)
		w.Write(out.body)
	case outcomeOpen:
		admit.SetRetryAfter(w, sh.breaker.RetryAfter())
		httpError(w, http.StatusServiceUnavailable,
			"shard %s unavailable (circuit breaker open); retry later", sh.spec.Name)
	default: // outcomeFail
		if out.err != nil && errors.Is(out.err, context.DeadlineExceeded) {
			admit.SetRetryAfter(w, time.Second)
			httpError(w, http.StatusGatewayTimeout, "shard %s did not answer in budget", sh.spec.Name)
			return
		}
		detail := ""
		if out.err != nil {
			detail = ": " + out.err.Error()
		} else if out.status != 0 {
			detail = fmt.Sprintf(": status %d", out.status)
		}
		httpError(w, http.StatusBadGateway, "shard %s failed%s", sh.spec.Name, detail)
	}
}

// handleBuild fans POST /graph/build out to every shard (each builds the
// graph over its own user subset) and aggregates the per-shard results;
// DELETE fans the cancel out. Builds bypass the breaker and the latency
// window — a multi-second build is not a straggler, and an operator
// rebuilding a recovering fleet must reach even sick shards. Any shard
// failing makes the aggregate a 502, except when every shard refused with
// the same 4xx: then the request is at fault (a bad k or algo), not the
// fleet, and the client gets that status.
func (r *Router) handleBuild(w http.ResponseWriter, req *http.Request) {
	switch req.Method {
	case http.MethodPost, http.MethodDelete:
	default:
		w.Header().Set("Allow", "POST, DELETE")
		httpError(w, http.StatusMethodNotAllowed, "POST to build, DELETE to cancel")
		return
	}
	path := "/graph/build"
	if req.URL.RawQuery != "" {
		path += "?" + req.URL.RawQuery
	}
	type buildRes struct {
		name   string
		status int
		body   []byte
		err    error
	}
	shards := r.ring.Load().reach()
	results := make(chan buildRes, len(shards))
	for _, sh := range shards {
		go func(sh *shard) {
			hreq, err := http.NewRequestWithContext(req.Context(), req.Method, sh.spec.URL+path, nil)
			if err != nil {
				results <- buildRes{name: sh.spec.Name, err: err}
				return
			}
			resp, err := r.client.Do(hreq)
			if err != nil {
				results <- buildRes{name: sh.spec.Name, err: err}
				return
			}
			body, _ := io.ReadAll(io.LimitReader(resp.Body, r.cfg.maxBodyBytes()))
			resp.Body.Close()
			results <- buildRes{name: sh.spec.Name, status: resp.StatusCode, body: body}
		}(sh)
	}
	shardsOut := map[string]json.RawMessage{}
	errsOut := map[string]string{}
	okCount := 0
	same := 0 // the status all shards so far answered alike; 0 once they differ or one is unreachable
	wantStatus := http.StatusOK
	if req.Method == http.MethodDelete {
		wantStatus = http.StatusAccepted
	}
	for i := range shards {
		res := <-results
		if i == 0 {
			same = res.status
		} else if res.status != same {
			same = 0
		}
		switch {
		case res.err != nil:
			errsOut[res.name] = res.err.Error()
		case res.status == wantStatus:
			okCount++
			if json.Valid(res.body) {
				shardsOut[res.name] = json.RawMessage(res.body)
			} else {
				shardsOut[res.name] = json.RawMessage(strconv.Quote(string(bytes.TrimSpace(res.body))))
			}
		default:
			errsOut[res.name] = fmt.Sprintf("status %d: %s", res.status, bytes.TrimSpace(res.body))
		}
	}
	status := wantStatus
	if okCount < len(shards) {
		status = http.StatusBadGateway
		if same >= 400 && same < 500 {
			status = same
		}
	}
	writeJSON(w, status, map[string]any{
		"shards": shardsOut,
		"errors": errsOut,
		"built":  okCount,
		"total":  len(shards),
	})
}

// ShardStatus is one shard's row in the router's /stats and /healthz
// shards section.
type ShardStatus struct {
	Name string `json:"name"`
	URL  string `json:"url"`
	// State summarizes: healthy, degraded (read-only data dir), shedding
	// (admission overload), open-breaker, half-open, or unreachable.
	State    string `json:"state"`
	Breaker  string `json:"breaker"`
	Inflight int64  `json:"inflight"`
	// LastError is the most recent breaker-relevant failure talking to
	// this shard (transport error, timeout, 5xx), with its age.
	LastError      string  `json:"last_error,omitempty"`
	LastErrorAgoMS float64 `json:"last_error_ago_ms,omitempty"`

	// Live fields from the shard's own /stats (absent when unreachable).
	Users      int    `json:"users,omitempty"`
	Epoch      int64  `json:"epoch,omitempty"`
	Degraded   bool   `json:"degraded,omitempty"`
	Overloaded bool   `json:"overloaded,omitempty"`
	StatsError string `json:"stats_error,omitempty"`
}

// RouterStats is the router's /stats response.
type RouterStats struct {
	Router        bool          `json:"router"`
	ShardsTotal   int           `json:"shards_total"`
	ShardsHealthy int           `json:"shards_healthy"`
	Quorum        int           `json:"quorum"`
	Shards        []ShardStatus `json:"shards"`

	RingEpoch uint64 `json:"ring_epoch"`
	RingMode  string `json:"ring_mode"`

	Queries        int64 `json:"queries"`
	QueriesPartial int64 `json:"queries_partial"`
	QueriesFailed  int64 `json:"queries_failed"`
	Hedges         int64 `json:"hedges"`
	HedgeWins      int64 `json:"hedge_wins"`
	Retries        int64 `json:"retries"`
	PlacementDrift int64 `json:"placement_drift"`
	FencedWrites   int64 `json:"fenced_writes"`
	DualReads      int64 `json:"dual_reads"`
	Migrations     int64 `json:"migrations"`
}

// shardStatus assembles one shard's passive status row. The live /stats
// sub-fetch is the caller's business (handleStats does it; handleHealth
// stays passive so probes are cheap).
func (r *Router) shardStatus(sh *shard) ShardStatus {
	st := ShardStatus{
		Name:     sh.spec.Name,
		URL:      sh.spec.URL,
		Breaker:  sh.breaker.State().String(),
		Inflight: sh.inflight.Value(),
	}
	if msg := sh.lastError(); msg != "" {
		st.LastError = msg
		if at := sh.lastErrAt.Load(); at > 0 {
			st.LastErrorAgoMS = float64(time.Since(time.Unix(0, at))) / float64(time.Millisecond)
		}
	}
	switch sh.breaker.State() {
	case BreakerOpen:
		st.State = "open-breaker"
	case BreakerHalfOpen:
		st.State = "half-open"
	default:
		if sh.degraded.Load() {
			st.State = "degraded"
		} else {
			st.State = "healthy"
		}
	}
	return st
}

// healthyCount counts ring shards whose breaker is closed.
func (r *Router) healthyCount() int {
	n := 0
	for _, sh := range r.ring.Load().reach() {
		if sh.breaker.State() == BreakerClosed {
			n++
		}
	}
	return n
}

// handleStats serves the router's aggregate view: per-shard state
// (breaker, inflight, last error) plus a live sub-fetch of every shard's
// own /stats so one operator curl answers "which shard is sick and why".
func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	st := r.ring.Load()
	shards := st.reach()
	stats := RouterStats{
		Router:         true,
		ShardsTotal:    len(shards),
		ShardsHealthy:  r.healthyCount(),
		Quorum:         r.cfg.quorumCount(len(shards)),
		RingEpoch:      st.epoch,
		RingMode:       st.info().Mode,
		Queries:        r.obs.Counter(metricQueries).Value(),
		QueriesPartial: r.obs.Counter(metricQueryPartial).Value(),
		QueriesFailed:  r.obs.Counter(metricQueryFailed).Value(),
		Hedges:         r.obs.Counter(metricHedges).Value(),
		HedgeWins:      r.obs.Counter(metricHedgeWins).Value(),
		Retries:        r.obs.Counter(metricRetries).Value(),
		PlacementDrift: r.obs.Counter(metricDrift).Value(),
		FencedWrites:   r.obs.Counter(metricFencedWrites).Value(),
		DualReads:      r.obs.Counter(metricDualReads).Value(),
		Migrations:     r.obs.Counter(metricMigrations).Value(),
	}
	rows := make([]ShardStatus, len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			row := r.shardStatus(sh)
			sctx, cancel := context.WithTimeout(req.Context(), time.Second)
			defer cancel()
			hreq, err := http.NewRequestWithContext(sctx, http.MethodGet, sh.spec.URL+"/stats", nil)
			if err == nil {
				var resp *http.Response
				resp, err = r.client.Do(hreq)
				if err == nil {
					var sub struct {
						Users      int   `json:"users"`
						Epoch      int64 `json:"epoch"`
						Degraded   bool  `json:"degraded"`
						Overloaded bool  `json:"overloaded"`
					}
					derr := json.NewDecoder(io.LimitReader(resp.Body, r.cfg.maxBodyBytes())).Decode(&sub)
					resp.Body.Close()
					if derr != nil {
						err = derr
					} else {
						row.Users = sub.Users
						row.Epoch = sub.Epoch
						row.Degraded = sub.Degraded
						row.Overloaded = sub.Overloaded
						sh.degraded.Store(sub.Degraded)
						if sub.Degraded && row.State == "healthy" {
							row.State = "degraded"
						}
						if sub.Overloaded && row.State == "healthy" {
							row.State = "shedding"
						}
					}
				}
			}
			if err != nil {
				row.StatsError = err.Error()
				if row.State == "healthy" {
					row.State = "unreachable"
				}
			}
			rows[i] = row
		}(i, sh)
	}
	wg.Wait()
	stats.Shards = rows
	writeJSON(w, http.StatusOK, stats)
}

// handleHealth is the load-balancer probe: 200 while the router can serve
// queries at quorum (even partially), 503 once it cannot. The body names
// every sick shard so a human reading the probe sees which shard to fix.
// Passive by design — probes must stay cheap and must not dial shards.
func (r *Router) handleHealth(w http.ResponseWriter, req *http.Request) {
	shards := r.ring.Load().reach()
	healthy := r.healthyCount()
	total := len(shards)
	quorum := r.cfg.quorumCount(total)
	if total == 0 {
		admit.SetRetryAfter(w, time.Second)
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "no shards have joined")
		return
	}
	if healthy < quorum {
		admit.SetRetryAfter(w, r.sickRetryAfter())
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "below quorum: %d/%d shards healthy (need %d)\n", healthy, total, quorum)
	} else {
		w.WriteHeader(http.StatusOK)
		if healthy == total {
			fmt.Fprintln(w, "ok")
		} else {
			fmt.Fprintf(w, "partial: serving %d/%d shards\n", healthy, total)
		}
	}
	for _, sh := range shards {
		if st := r.shardStatus(sh); st.State != "healthy" {
			fmt.Fprintf(w, "shard %s: %s", st.Name, st.State)
			if st.LastError != "" {
				fmt.Fprintf(w, " (%s)", st.LastError)
			}
			fmt.Fprintln(w)
		}
	}
}

func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, r.obs.Snapshot())
}

// copyHeaders relays the response headers a shard answer carries that are
// meaningful end-to-end; hop-by-hop and envelope headers stay out.
func copyHeaders(dst, src http.Header) {
	for name, vals := range src {
		switch {
		case name == "Content-Type", name == "Retry-After", name == "Allow",
			strings.HasPrefix(name, "X-"):
			dst[name] = vals
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		httpError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), status)
}
