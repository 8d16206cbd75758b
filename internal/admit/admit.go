// Package admit is a stdlib-only admission-control layer for the KNN
// service: per-endpoint-class concurrency limiters with a bounded wait
// queue, a global token-bucket rate limiter, and an adaptive shed signal
// fed by observed queue wait times.
//
// The design goal is graceful degradation: under sustained overload the
// server must convert excess work into fast, honest rejections (429/503
// with a computed Retry-After) instead of letting every request's latency
// grow without bound until the process collapses. Three mechanisms stack:
//
//   - A per-class concurrency limiter caps how many requests of a class
//     (cheap reads, expensive similarity queries, mutating writes) execute
//     at once. The classes are independent, so a query storm cannot starve
//     health probes or uploads and vice versa.
//   - A bounded wait queue in front of each limiter absorbs short bursts:
//     a request that finds every slot busy waits for one — but only while
//     its deadline lasts and only while the queue has room. A full queue
//     sheds immediately; queue slots are never a second, hidden thread
//     pool.
//   - An adaptive shed signal: each limiter tracks an exponentially-decayed
//     moving average of recent queue waits. Once that average exceeds the
//     class's shed threshold, new arrivals that cannot be admitted
//     immediately are shed without queueing — under sustained overload the
//     queue is just deferred shedding plus wasted client time, so failing
//     fast is strictly kinder. The signal decays with time, so the queue
//     reopens as soon as pressure drops.
//
// All decisions (admitted, admitted after queueing, shed, deadline
// exceeded, rate limited) are counted in an obs.Registry along with live
// in-flight/queue-depth gauges and a queue-wait histogram, so /stats and
// /metrics can show exactly what the admission layer is doing.
//
// The zero Controller (nil) admits everything and imposes no deadlines —
// instrumentation-free pass-through for tests and embedded uses.
package admit

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"goldfinger/internal/obs"
)

// Class partitions requests by cost so one kind of traffic cannot starve
// the others: Read covers cheap O(1)/O(k) reads (stats, metrics, neighbor
// lookups), Query covers full-corpus similarity scans, Write covers
// mutating uploads and graph builds.
type Class int

const (
	Read Class = iota
	Query
	Write
	numClasses
)

// String returns the metric-name segment for the class.
func (c Class) String() string {
	switch c {
	case Read:
		return "read"
	case Query:
		return "query"
	case Write:
		return "write"
	}
	return "unknown"
}

// Outcome is the admission decision for one request.
type Outcome int

const (
	// Admitted: a slot was free; the request runs now.
	Admitted Outcome = iota
	// AdmittedAfterWait: the request queued and then got a slot.
	AdmittedAfterWait
	// Shed: rejected without running — the queue was full or the adaptive
	// shed signal was active. Maps to 503.
	Shed
	// DeadlineExceeded: the request's deadline expired while it was
	// queued. Maps to 503; the work never started.
	DeadlineExceeded
	// RateLimited: the global token bucket was empty. Maps to 429.
	RateLimited
)

// Result describes one admission decision.
type Result struct {
	Outcome Outcome
	// Wait is the time spent queued (zero on the fast path).
	Wait time.Duration
	// RetryAfter is the server's estimate of when retrying is worthwhile.
	// Meaningful only for rejected outcomes; always ≥ 1s.
	RetryAfter time.Duration
}

// Rejected reports whether the decision denies the request.
func (r Result) Rejected() bool {
	return r.Outcome == Shed || r.Outcome == DeadlineExceeded || r.Outcome == RateLimited
}

// ClassConfig sizes one class's limiter.
type ClassConfig struct {
	// MaxInflight is the number of requests of this class that may execute
	// concurrently. Must be ≥ 1.
	MaxInflight int
	// MaxQueue bounds how many requests may wait for a slot beyond
	// MaxInflight. 0 disables queueing: a busy class sheds immediately.
	MaxQueue int
	// Timeout is the default per-request deadline the service applies to
	// this class (clients may lower it via X-Request-Timeout, never raise
	// it). 0 means no deadline.
	Timeout time.Duration
	// ShedWait is the adaptive-shed threshold: once the decayed average
	// queue wait exceeds it, arrivals that cannot run immediately are shed
	// instead of queued. 0 derives Timeout/4 (or disables the signal when
	// Timeout is 0 too).
	ShedWait time.Duration
}

func (c ClassConfig) shedWait() time.Duration {
	if c.ShedWait > 0 {
		return c.ShedWait
	}
	return c.Timeout / 4
}

// Config configures a Controller.
type Config struct {
	Read, Query, Write ClassConfig
	// Rate is the global token-bucket refill rate in requests per second
	// across all admitted classes. 0 disables rate limiting.
	Rate float64
	// Burst is the bucket capacity; 0 derives max(Rate, 1).
	Burst float64
}

// DefaultConfig returns the production defaults: queries bounded near the
// hardware parallelism (a full-corpus scan already uses every core, so
// more concurrent scans only add queueing inside the kernel), generous
// read and write limits, no global rate limit.
func DefaultConfig() Config {
	procs := runtime.GOMAXPROCS(0)
	queries := 2 * procs
	if queries < 4 {
		queries = 4
	}
	return Config{
		Read:  ClassConfig{MaxInflight: 256, MaxQueue: 512, Timeout: 5 * time.Second},
		Query: ClassConfig{MaxInflight: queries, MaxQueue: 4 * queries, Timeout: 10 * time.Second},
		Write: ClassConfig{MaxInflight: 64, MaxQueue: 256, Timeout: 5 * time.Second},
	}
}

// Metric name fragments; the full names are "admit.<class>.<suffix>".
const (
	metricAdmitted    = "admitted.total"
	metricQueuedAdm   = "queued_admitted.total"
	metricShed        = "shed.total"
	metricDeadline    = "deadline.total"
	metricInflight    = "inflight"
	metricQueueDepth  = "queue_depth"
	metricWaitSeconds = "wait.seconds"

	// MetricRateLimited counts requests rejected by the global token
	// bucket (not per-class: the bucket is shared).
	MetricRateLimited = "admit.rate_limited.total"
)

// Controller is the admission front door: one limiter per class plus the
// shared token bucket. A nil Controller admits everything.
type Controller struct {
	classes [numClasses]*limiter
	bucket  *TokenBucket

	mRateLimited *obs.Counter
}

// NewController builds a controller from cfg, registering its metrics in
// reg (which may be nil for uninstrumented use).
func NewController(cfg Config, reg *obs.Registry) *Controller {
	c := &Controller{mRateLimited: reg.Counter(MetricRateLimited)}
	for cl, cc := range map[Class]ClassConfig{Read: cfg.Read, Query: cfg.Query, Write: cfg.Write} {
		if cc.MaxInflight < 1 {
			cc.MaxInflight = 1
		}
		c.classes[cl] = newLimiter(cl, cc, reg)
	}
	if cfg.Rate > 0 {
		burst := cfg.Burst
		if burst <= 0 {
			burst = math.Max(cfg.Rate, 1)
		}
		c.bucket = NewTokenBucket(cfg.Rate, burst)
	}
	return c
}

// Timeout returns the class's default request deadline (0 on nil).
func (c *Controller) Timeout(cl Class) time.Duration {
	if c == nil {
		return 0
	}
	return c.classes[cl].cfg.Timeout
}

// RetryAfter returns the class's current retry advice — what a rejection
// issued right now would carry.
func (c *Controller) RetryAfter(cl Class) time.Duration {
	if c == nil {
		return time.Second
	}
	return c.classes[cl].retryAfter()
}

// HeaderRequestTimeout is the request header a client sets to lower its
// deadline below the default: a Go duration ("750ms", "2s") or a bare
// positive integer meaning seconds. It can never raise the deadline. The
// router honours it for its own budget and sends each shard the derived
// per-shard deadline under the same header.
const HeaderRequestTimeout = "X-Request-Timeout"

// ClientTimeout lowers def to the request's X-Request-Timeout when the
// client sets one; def 0 means no default, so the header alone decides.
// A malformed value is an error naming the header — the caller's 400.
func ClientTimeout(r *http.Request, def time.Duration) (time.Duration, error) {
	hdr := r.Header.Get(HeaderRequestTimeout)
	if hdr == "" {
		return def, nil
	}
	d, err := parseClientTimeout(hdr)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q: %w", HeaderRequestTimeout, hdr, err)
	}
	if def == 0 || d < def {
		return d, nil
	}
	return def, nil
}

// parseClientTimeout parses an X-Request-Timeout value.
func parseClientTimeout(v string) (time.Duration, error) {
	if secs, err := strconv.Atoi(v); err == nil {
		if secs <= 0 {
			return 0, errors.New("must be positive")
		}
		return time.Duration(secs) * time.Second, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, errors.New("want a Go duration or integer seconds")
	}
	if d <= 0 {
		return 0, errors.New("must be positive")
	}
	return d, nil
}

// SetRetryAfter writes the Retry-After header as RFC 9110 requires: a
// non-negative integer number of seconds. Durations round up and floor at
// 1 — "Retry-After: 0" is an invitation to hammer the server.
func SetRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

// Overloaded reports whether any class is currently shedding queue-bound
// arrivals (its adaptive signal is above threshold or its queue is full).
func (c *Controller) Overloaded() bool {
	if c == nil {
		return false
	}
	for _, l := range c.classes {
		if l.overloaded() {
			return true
		}
	}
	return false
}

// Admit decides whether a request of the given class may run. When the
// result is not rejected, release is non-nil and must be called exactly
// once when the request finishes. ctx bounds the time spent queued — pass
// the request context after applying the class deadline.
func (c *Controller) Admit(ctx context.Context, cl Class) (release func(), res Result) {
	if c == nil {
		return func() {}, Result{Outcome: Admitted}
	}
	if c.bucket != nil && !c.bucket.Allow() {
		c.mRateLimited.Inc()
		return nil, Result{Outcome: RateLimited, RetryAfter: clampRetry(c.bucket.RetryAfter())}
	}
	return c.classes[cl].acquire(ctx)
}

// ClassStats is the /stats view of one class's limiter.
type ClassStats struct {
	MaxInflight      int   `json:"max_inflight"`
	MaxQueue         int   `json:"max_queue"`
	Inflight         int64 `json:"inflight"`
	Queued           int64 `json:"queued"`
	Admitted         int64 `json:"admitted"`
	QueuedAdmitted   int64 `json:"queued_admitted"`
	Shed             int64 `json:"shed"`
	DeadlineExceeded int64 `json:"deadline_exceeded"`
}

// Snapshot returns the per-class stats keyed by class name, plus the
// rate-limited total under "rate_limited". Nil-safe (returns nil).
func (c *Controller) Snapshot() map[string]ClassStats {
	if c == nil {
		return nil
	}
	out := make(map[string]ClassStats, numClasses)
	for cl := Class(0); cl < numClasses; cl++ {
		l := c.classes[cl]
		out[cl.String()] = ClassStats{
			MaxInflight:      l.cfg.MaxInflight,
			MaxQueue:         l.cfg.MaxQueue,
			Inflight:         l.inflight.Load(),
			Queued:           l.queued.Load(),
			Admitted:         l.mAdmitted.Value(),
			QueuedAdmitted:   l.mQueuedAdm.Value(),
			Shed:             l.mShed.Value(),
			DeadlineExceeded: l.mDeadline.Value(),
		}
	}
	return out
}

// RateLimited returns how many requests the token bucket rejected.
func (c *Controller) RateLimited() int64 {
	if c == nil {
		return 0
	}
	return c.mRateLimited.Value()
}

// limiter is one class's concurrency gate.
type limiter struct {
	cfg   ClassConfig
	slots chan struct{} // buffered MaxInflight; send = acquire

	inflight atomic.Int64
	queued   atomic.Int64

	sig waitSignal

	mAdmitted  *obs.Counter
	mQueuedAdm *obs.Counter
	mShed      *obs.Counter
	mDeadline  *obs.Counter
	gInflight  *obs.Gauge
	gQueue     *obs.Gauge
	hWait      *obs.Histogram
}

func newLimiter(cl Class, cfg ClassConfig, reg *obs.Registry) *limiter {
	prefix := "admit." + cl.String() + "."
	return &limiter{
		cfg:        cfg,
		slots:      make(chan struct{}, cfg.MaxInflight),
		sig:        waitSignal{halfLife: cfg.shedWait()},
		mAdmitted:  reg.Counter(prefix + metricAdmitted),
		mQueuedAdm: reg.Counter(prefix + metricQueuedAdm),
		mShed:      reg.Counter(prefix + metricShed),
		mDeadline:  reg.Counter(prefix + metricDeadline),
		gInflight:  reg.Gauge(prefix + metricInflight),
		gQueue:     reg.Gauge(prefix + metricQueueDepth),
		hWait:      reg.Histogram(prefix+metricWaitSeconds, obs.DefWaitBuckets),
	}
}

func (l *limiter) acquire(ctx context.Context) (func(), Result) {
	// Fast path: a free slot admits without touching the queue state.
	select {
	case l.slots <- struct{}{}:
		l.admitted()
		l.mAdmitted.Inc()
		return l.release, Result{Outcome: Admitted}
	default:
	}

	// Adaptive shed: while recent arrivals are spending more than the
	// threshold queued, queueing more work only delays the inevitable
	// rejection — fail fast instead.
	if sw := l.cfg.shedWait(); sw > 0 && l.sig.load() > sw {
		l.mShed.Inc()
		return nil, Result{Outcome: Shed, RetryAfter: l.retryAfter()}
	}

	// Bounded queue: claim a waiter slot or shed.
	for {
		q := l.queued.Load()
		if q >= int64(l.cfg.MaxQueue) {
			l.mShed.Inc()
			return nil, Result{Outcome: Shed, RetryAfter: l.retryAfter()}
		}
		if l.queued.CompareAndSwap(q, q+1) {
			break
		}
	}
	l.gQueue.Set(l.queued.Load())

	start := time.Now()
	select {
	case l.slots <- struct{}{}:
		wait := time.Since(start)
		l.unqueue(wait)
		l.admitted()
		l.mQueuedAdm.Inc()
		return l.release, Result{Outcome: AdmittedAfterWait, Wait: wait}
	case <-ctx.Done():
		wait := time.Since(start)
		l.unqueue(wait)
		l.mDeadline.Inc()
		return nil, Result{Outcome: DeadlineExceeded, Wait: wait, RetryAfter: l.retryAfter()}
	}
}

func (l *limiter) admitted() {
	l.gInflight.Set(l.inflight.Add(1))
}

func (l *limiter) unqueue(wait time.Duration) {
	l.gQueue.Set(l.queued.Add(-1))
	l.sig.observe(wait)
	l.hWait.Observe(wait.Seconds())
}

// release counts the request out before it frees the slot, so a waiter
// that takes the slot can never be counted while this one still is:
// inflight stays at or below MaxInflight.
func (l *limiter) release() {
	l.gInflight.Set(l.inflight.Add(-1))
	<-l.slots
}

// retryAfter estimates when a retry is likely to be admitted: roughly the
// time for the current queue to drain at one average wait per MaxInflight
// requests, floored at the decayed average wait itself. Always in [1s, 60s]
// — an honest "come back soon" rather than a precise reservation.
func (l *limiter) retryAfter() time.Duration {
	avg := l.sig.load()
	est := avg + avg*time.Duration(l.queued.Load())/time.Duration(l.cfg.MaxInflight)
	return clampRetry(est)
}

func (l *limiter) overloaded() bool {
	if sw := l.cfg.shedWait(); sw > 0 && l.sig.load() > sw {
		return true
	}
	return l.cfg.MaxQueue > 0 && l.queued.Load() >= int64(l.cfg.MaxQueue)
}

func clampRetry(d time.Duration) time.Duration {
	if d < time.Second {
		return time.Second
	}
	if d > 60*time.Second {
		return 60 * time.Second
	}
	return d
}

// waitSignal is an exponentially-decayed moving average of queue waits.
// Decay is driven by wall time, not by observations: under full shed no
// new waits are observed, and a purely observation-driven average would
// stay above threshold forever, wedging the limiter in shed mode. Halving
// the value every halfLife of silence reopens the queue once pressure
// drops. Accessed only on queue paths (never the fast path), so a mutex
// is fine.
type waitSignal struct {
	halfLife time.Duration

	mu   sync.Mutex
	avg  time.Duration
	last time.Time
}

func (s *waitSignal) observe(wait time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.decayLocked(time.Now())
	// EWMA with α = 1/4: a handful of long waits trip the signal, a
	// handful of short ones clear it.
	s.avg += (wait - s.avg) / 4
}

func (s *waitSignal) load() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.decayLocked(time.Now())
	return s.avg
}

func (s *waitSignal) decayLocked(now time.Time) {
	if s.last.IsZero() {
		s.last = now
		return
	}
	if s.halfLife <= 0 || s.avg == 0 {
		s.last = now
		return
	}
	elapsed := now.Sub(s.last)
	if elapsed <= 0 {
		return
	}
	s.last = now
	// One halving per elapsed halfLife; fractional half-lives via the
	// float pow keep the decay smooth.
	s.avg = time.Duration(float64(s.avg) * math.Pow(0.5, float64(elapsed)/float64(s.halfLife)))
}

// TokenBucket is a standard token-bucket rate limiter: tokens refill at
// rate per second up to burst; each admitted request spends one. Safe for
// concurrent use.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time // test seam; time.Now outside tests
}

// NewTokenBucket creates a bucket refilling at rate tokens/second with the
// given capacity, starting full.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	return &TokenBucket{rate: rate, burst: burst, tokens: burst, now: time.Now}
}

func (b *TokenBucket) refillLocked(now time.Time) {
	if !b.last.IsZero() {
		if dt := now.Sub(b.last).Seconds(); dt > 0 {
			b.tokens = math.Min(b.burst, b.tokens+dt*b.rate)
		}
	}
	b.last = now
}

// Allow spends one token if available.
func (b *TokenBucket) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked(b.now())
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// RetryAfter returns the time until the next token becomes available
// (zero when one is available now).
func (b *TokenBucket) RetryAfter() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked(b.now())
	if b.tokens >= 1 {
		return 0
	}
	return time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
}
