// Package service implements the untrusted KNN-construction service of the
// paper's deployment story (§2.5): clients fingerprint their profiles
// locally and upload only the SHFs; the server never sees a profile in
// clear text, yet can build the KNN graph, serve neighborhoods, and answer
// top-k similarity queries. Transport is HTTP with the binary fingerprint
// codec as payload and JSON responses.
//
// # Concurrency model
//
// Everything a reader needs — the packed corpus, the user table, the
// tombstones, the mutation counter, the served graph epoch and its live
// snapshot — is one immutable view behind an atomic pointer (view.go).
// Every read path starts with one atomic load and takes no lock; a view
// never changes, so a long scan or descent keeps a consistent state however
// many mutations land meanwhile. The view's parts are paged copy-on-write
// vectors (internal/cow): core.PackedCorpus rows and cardinalities, the
// user table and tombstone flags, knn.Online's adjacency lists.
//
// Mutations serialize on writeMu (the same order the WAL sees) through one
// site, applyPut/applyDelete. A mutation derives the next view from the
// current one — copying only the pages holding the row, table entry and
// adjacency lists it changes, sharing every other page — and publishes it
// when it is complete, before the ack. Publication therefore costs O(rows
// touched): nothing is ever re-packed, the first query after a mutation
// costs what any other query costs, and concurrent readers never race to
// rebuild anything. The id → index map is the only state outside the view;
// a short RWMutex guards it.
//
// A build reads the view current at its start, runs the KNN algorithm
// entirely outside any lock, and publishes the result as a new epoch.
// Uploads, neighborhood reads and queries therefore never wait on a build.
//
// An epoch is not frozen at build time: each published (or recovered)
// epoch wraps its graph in a knn.Online maintainer, and every accepted
// mutation — PUT (insert or overwrite) and DELETE of a fingerprint — is
// applied to the live graph before the ack, so it is visible to
// neighborhood reads and graph-mode queries immediately, without a
// rebuild. A build still runs periodically to shed the accumulated
// approximation drift of incremental repair: at publish it drains, under
// writeMu, every mutation that landed while it ran into a fresh maintainer
// — found by comparing the build's corpus with the current one page by
// page, skipping the pages they still share — so the new epoch starts
// current. Only when the graph epoch genuinely lags the state — crash
// recovery lost the tail of the graph deltas, or no build has happened yet
// — do reads fall back to the old contract: 409 for a user the epoch has
// never seen, scan fallback for auto-mode queries. At most one build runs
// at a time: a concurrent POST /graph/build gets 409 with a Retry-After
// header rather than queuing a redundant build.
//
// # Observability and cancellation
//
// Builds run under a context.Context: DELETE /graph/build (or /build)
// cancels the in-flight build, and a configurable deadline
// (SetBuildTimeout, the -build-timeout flag on cmd/knnserver) bounds every
// build. The builders poll the context once per scan block or iteration,
// so cancellation takes effect within one block; a canceled or timed-out
// build publishes nothing — the previous epoch keeps serving every read
// path untouched — and the POST reports 409 (canceled) or 504 (deadline).
// An internal/obs registry collects per-phase build durations, comparison
// counts and progress; GET /metrics exports it as JSON, GET /stats folds
// in the live phase and progress of a running build, and /debug/pprof/*
// exposes the runtime profiles.
//
// # Durability and degraded mode
//
// With a durable store attached (UseStore; the -data-dir flag on
// cmd/knnserver), every accepted mutation (PUT or DELETE) is appended to a
// write-ahead log *before* the 204 is sent, followed by the graph delta
// the online maintainer produced for it, successful builds persist the
// epoch and compact the WAL into a checksummed state snapshot, and startup
// recovery reloads all of it — an acked mutation, the last published
// epoch, and the graph edits the deltas encode survive a SIGKILL, so the
// server restarts with a warm graph instead of waiting for a rebuild. All
// writers serialize through writeMu so WAL order always matches in-memory
// apply order (mutSeq order).
//
// If the data directory fails a write at runtime the store flips to
// degraded read-only mode: PUTs get 503 with Retry-After while neighbor
// reads and queries keep serving the current state and epoch from memory.
// /healthz, /stats (durable/degraded/wal_* fields) and the obs "degraded"
// gauge surface the condition. Degraded mode is sticky until restart — the
// WAL tail must be assumed torn once an append fails.
//
// # Admission control and overload
//
// Every route except /healthz and /debug/pprof passes through an
// internal/admit controller before its handler runs. Requests are
// partitioned into three independent classes — cheap reads (neighbors,
// stats, metrics), expensive similarity queries, and mutating writes
// (uploads, builds) — each with a concurrency limit and a bounded wait
// queue, plus an optional global token-bucket rate limit. Each admitted
// request gets a context deadline (per-class default, lowerable per
// request via the X-Request-Timeout header: a Go duration or integer
// seconds; never raisable). Rejected work fails fast with an honest
// status: 429 when rate-limited, 503 when shed (queue full or the
// adaptive wait-time signal tripped) or when the deadline expired while
// queued — always with a Retry-After computed from limiter state, never a
// hardcoded constant.
//
// /query runs under its request context: the scan (knn.TopKRangeCtx)
// polls the context per tile, so a disconnected client or an expired
// deadline stops burning the corpus within one tile; both cases are
// counted (query.canceled.total, query.deadline.total). Graph builds keep
// their own explicit lifecycle (DELETE to cancel, -build-timeout) and
// deliberately ignore the request deadline.
//
// Degraded mode and overload are distinct, independently-reported
// conditions: degraded means the data dir stopped accepting writes
// (uploads 503 until restart, reads fine), overloaded means admission is
// currently shedding (transient; clears when pressure drops). /healthz
// names whichever applies; /stats carries both the degraded fields and
// the per-class admission counters.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"goldfinger/internal/admit"
	"goldfinger/internal/cluster"
	"goldfinger/internal/core"
	"goldfinger/internal/cow"
	"goldfinger/internal/durable"
	"goldfinger/internal/knn"
	"goldfinger/internal/obs"
)

// graphEpoch is one build (or recovery) result: its parameters and the
// maintainer that carries its graph forward. Readers find the current epoch
// in the view they load and never block builds or uploads.
type graphEpoch struct {
	seq int64 // monotonically increasing build number (1-based)
	// clusters is the fingerprint-hash bucketing the build derived (nil
	// for recovered epochs): /query reuses its hashes to pick graph-search
	// entry points near the query instead of evenly spread ones.
	clusters *cluster.Assignment
	k        int
	// algorithm names the builder: buildAlgorithm for every epoch this
	// server builds, possibly another for an epoch recovered from a data
	// dir an older server wrote. /stats reports it so an operator can see
	// such an epoch and rebuild.
	algorithm string
	builtAt   time.Time
	duration  time.Duration
	stats     knn.Stats
	// online maintains the epoch's graph and its navigable adjacency under
	// mutations: inserts, overwrites and deletes apply to it in mutSeq order
	// (under writeMu), and every read path serves the snapshot published in
	// its view. Node ids are dense server indices — identical to the
	// user-table indices — so the snapshot's graph indexes the append-only
	// user table directly. Never nil.
	online *knn.Online
}

// Server is the KNN-construction service. It is safe for concurrent use.
type Server struct {
	bits int

	// view is the published state every read path serves from; never nil.
	// Replaced only under writeMu (view.go).
	view atomic.Pointer[view]

	// index is the mutable state outside the view: the id → dense index
	// map, possibly one in-flight mutation ahead of the view's user table.
	// It changes only under writeMu and mu together, so a writer holding
	// writeMu reads it without mu; everyone else takes mu.
	mu    sync.RWMutex
	index map[string]int

	building atomic.Bool // build-in-progress guard
	epochSeq atomic.Int64

	// store, when non-nil, makes mutations durable: applyPut/applyDelete
	// append to its WAL before acking, builds persist their epoch, and
	// compaction folds the WAL into state snapshots. writeMu serializes all
	// writers so the WAL receives records in exactly the order memory
	// applies them.
	store      *durable.Store
	writeMu    sync.Mutex
	compacting atomic.Bool // threshold-triggered compaction in flight

	obs *obs.Registry

	// admit is the admission front door: per-class concurrency limits,
	// bounded queues, deadlines, optional rate limit. Replaced wholesale by
	// SetAdmission before serving; never nil.
	admit *admit.Controller

	buildTimeout atomic.Int64                       // ns; 0 = no deadline
	buildCancel  atomic.Pointer[context.CancelFunc] // non-nil while a build runs
	buildStartNS atomic.Int64                       // UnixNano of the running build; 0 when idle

	// buildHook, when non-nil, runs after the build snapshot is taken and
	// before the algorithm starts. Test instrumentation only.
	buildHook func()

	// shardName, when set via SetShardName, makes this server one
	// shard-core of a sharded deployment: it reports the name in /stats and
	// is the owner name the installed ring is resolved against.
	shardName string

	// ring is the installed placement-ring view (InstallRing or POST
	// /ring): a named, epoch-versioned ownership map. Ids it does not
	// assign to this shard are answered 421 Misdirected Request with the
	// correct owner in X-Owner-Shard — a misrouted mutation must fail
	// loudly instead of splitting a user across shards — and in transition
	// mode it dual-accepts ids under both the old and new ring while a
	// migration is streaming. nil until a ring is installed.
	ring   atomic.Pointer[ringView]
	onRing func(RingInfo) // optional install hook (persistence); set before serving

	// migration handoff state: importing serializes /migrate/import,
	// migrating suppresses threshold compaction while an import is
	// streaming (the begin/done journal marks must stay in live WAL
	// segments), pendingMig carries an interrupted import found at
	// recovery until a resumed import completes.
	importing  atomic.Bool
	migrating  atomic.Bool
	pendingMig atomic.Pointer[durable.PendingMigration]
	// migrateRate caps import apply throughput in users/second (0 =
	// unlimited): keeps a live gainer responsive while a migration streams
	// in, and gives the chaos harness a deterministic mid-import window.
	migrateRate atomic.Int64
}

// NewServer creates a service accepting fingerprints of the given length,
// with the default admission configuration (admit.DefaultConfig).
func NewServer(bits int) (*Server, error) {
	if bits <= 0 {
		return nil, fmt.Errorf("service: fingerprint length must be positive, got %d", bits)
	}
	v, err := newView(bits)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	s := &Server{
		bits:  bits,
		index: map[string]int{},
		obs:   reg,
		admit: admit.NewController(admit.DefaultConfig(), reg),
	}
	s.view.Store(v)
	return s, nil
}

// SetAdmission replaces the admission configuration (class limits, queue
// bounds, deadlines, rate limit). Must be called before the handler
// serves traffic — the controller is swapped wholesale and the swap is
// not synchronized against in-flight requests.
func (s *Server) SetAdmission(cfg admit.Config) {
	s.admit = admit.NewController(cfg, s.obs)
}

// SetShardName names this shard-core: a process started in -role shard
// mode knows its own name from its flags but learns the ring later, via
// POST /ring from the router (or InstallRing). Until a ring arrives the
// shard accepts every id. Must be called before the handler serves
// traffic.
func (s *Server) SetShardName(name string) { s.shardName = name }

// SetRingHook registers a callback invoked after every successful ring
// install (InstallRing or POST /ring) — the process entrypoint uses it to
// persist the ring so a restart recovers ownership without waiting for a
// re-push. Must be set before the handler serves traffic.
func (s *Server) SetRingHook(fn func(RingInfo)) { s.onRing = fn }

// SetMigrateRate caps how many users per second /migrate/import applies
// (0 removes the cap). Safe to call at any time.
func (s *Server) SetMigrateRate(perSec int) {
	if perSec < 0 {
		perSec = 0
	}
	s.migrateRate.Store(int64(perSec))
}

// SetBuildTimeout bounds every subsequent graph build: a build running
// longer than d is aborted (the POST gets 504 and the previous epoch keeps
// serving). d ≤ 0 removes the deadline. Safe to call at any time.
func (s *Server) SetBuildTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.buildTimeout.Store(int64(d))
}

// Metrics returns the server's metrics registry (the /metrics export).
func (s *Server) Metrics() *obs.Registry { return s.obs }

// UseStore attaches a durable store and seeds the server with the state it
// recovered: the user table, fingerprints and mutation counter, plus the
// persisted graph epoch if one survived. Must be called before the handler
// serves traffic; it refuses to run over a server that already holds
// state. Recovered fingerprints are validated against the server's
// configured bit length, and a recovered epoch must pin a prefix of the
// recovered user table (the append-only invariant every read path relies
// on) — violations are configuration or tampering errors and abort
// startup rather than corrupting service.
func (s *Server) UseStore(st *durable.Store, rec durable.Recovery) error {
	if st == nil {
		return errors.New("service: UseStore needs a store")
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if cur := s.view.Load(); cur.users.Len() > 0 || cur.epoch != nil || s.store != nil {
		return errors.New("service: UseStore must run before the server holds any state")
	}
	if len(rec.State.Users) != len(rec.State.FPS) {
		return fmt.Errorf("service: recovered %d users but %d fingerprints", len(rec.State.Users), len(rec.State.FPS))
	}
	index := make(map[string]int, len(rec.State.Users))
	for i, id := range rec.State.Users {
		if fp := rec.State.FPS[i]; fp.NumBits() != s.bits {
			return fmt.Errorf("service: recovered fingerprint for %q has %d bits, server expects %d",
				id, fp.NumBits(), s.bits)
		}
		if _, dup := index[id]; dup {
			return fmt.Errorf("service: recovered state has duplicate user %q", id)
		}
		index[id] = i
	}
	if ep := rec.Epoch; ep != nil {
		if len(ep.Users) > len(rec.State.Users) {
			return fmt.Errorf("service: recovered epoch has %d users, state only %d", len(ep.Users), len(rec.State.Users))
		}
		for i, id := range ep.Users {
			if rec.State.Users[i] != id {
				return fmt.Errorf("service: recovered epoch user %d is %q, state has %q (user table must be append-only)",
					i, id, rec.State.Users[i])
			}
		}
	}
	// Recovery is the one place the service packs a corpus from scratch;
	// from here on it only changes by Append and WithRow.
	corpus, err := core.NewPackedCorpus(s.bits, rec.State.FPS)
	if err != nil {
		return fmt.Errorf("service: packing recovered fingerprints: %w", err)
	}
	deleted := make([]bool, len(rec.State.Users))
	copy(deleted, rec.State.Deleted)
	v := &view{
		corpus:  corpus,
		users:   cow.FromSlice(tableShift, rec.State.Users).Publish(),
		deleted: cow.FromSlice(tableShift, deleted).Publish(),
		mutSeq:  rec.State.MutSeq,
	}
	for _, d := range deleted {
		if d {
			v.dead++
		}
	}
	s.mu.Lock()
	s.index = index
	s.mu.Unlock()
	s.store = st
	if rec.Migration != nil {
		// An import was journaled as begun but never done: the crash hit
		// mid-migration. Everything applied so far is durable and keyed by
		// user id, so the resumed import (the router driver keeps retrying
		// until it gets a 200) simply re-streams — idempotent, no loss, no
		// duplicates. Surfaced in /stats until then.
		pm := *rec.Migration
		s.pendingMig.Store(&pm)
		s.obs.Counter(metricMigResumed).Inc()
	}

	if ep := rec.Epoch; ep != nil {
		// Rebuilding the navigable graph wants a similarity oracle for
		// diversity selection: the recovered corpus serves — the epoch's
		// nodes are a prefix of its rows (the user-table validation above
		// guarantees it).
		nav := ep.Graph.Navigable(knn.NewPackedSHFProvider(corpus))
		// Resume online maintenance where the recovered epoch left off: the
		// maintainer's sequence number is the epoch's MutSeq, so if the WAL
		// warm-up caught the epoch fully up to the state, the very next
		// mutation applies live; if the delta tail was torn, the epoch lags
		// and serves stale (scan fallback, 409 for unseen users) until the
		// next build. The fingerprint prefix may be newer than the graph's
		// edges in the stale case — harmless: it only feeds *future*
		// mutations, which a lagging maintainer never receives.
		online, oerr := knn.NewOnline(ep.Graph, nav, corpusRows(corpus, len(ep.Users)), ep.Dead, ep.K, ep.MutSeq)
		if oerr != nil {
			return fmt.Errorf("service: recovered epoch rejected by online maintainer: %w", oerr)
		}
		v.epoch = &graphEpoch{
			seq:       ep.Seq,
			k:         ep.K,
			algorithm: ep.Algorithm,
			builtAt:   ep.BuiltAt,
			duration:  ep.Duration,
			stats:     ep.Stats,
			online:    online,
		}
		v.live = online.Snapshot()
		s.epochSeq.Store(ep.Seq)
		s.obs.Gauge(metricEpoch).Set(ep.Seq)
	}
	s.view.Store(v)
	return nil
}

// compact folds the WAL into a fresh state snapshot, recording failures in
// the durable.last_error metric. ErrDegraded is not news — the store
// already flipped the degraded gauge.
func (s *Server) compact() {
	if err := s.store.Compact(s.captureState); err != nil && !errors.Is(err, durable.ErrDegraded) {
		s.obs.SetText(metricDurableError, err.Error())
	}
}

// maybeCompactAsync starts a background compaction if the WAL outgrew its
// threshold and none is already running on the service's behalf. While a
// migration import is streaming, compaction is deferred: the handoff's
// begin mark must stay in a live WAL segment until its done mark lands,
// or a crash between compaction and done would recover with no record of
// the interrupted transfer.
func (s *Server) maybeCompactAsync() {
	if s.migrating.Load() {
		return
	}
	if !s.store.ShouldCompact() {
		return
	}
	if !s.compacting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.compacting.Store(false)
		s.compact()
	}()
}

// Handler returns the HTTP routes. All routes except /healthz (load
// balancers must always reach it) and /debug/pprof (operator tooling) are
// wrapped in admission control.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/stats", s.admitted(admit.Read, s.handleStats))
	mux.HandleFunc("/metrics", s.admitted(admit.Read, s.handleMetrics))
	mux.HandleFunc("/users/", s.handleUsers) // PUT/DELETE fingerprint, GET neighbors; class chosen per action
	mux.HandleFunc("/graph/build", s.handleBuildRoute)
	mux.HandleFunc("/build", s.handleBuildRoute) // alias; DELETE /build cancels
	mux.HandleFunc("/query", s.admitted(admit.Query, s.handleQuery))
	// Control plane for multi-process sharding: ring installs and
	// migration streaming bypass admission like /healthz does — a ring
	// change must land even while the data plane is shedding load, and the
	// migration driver's retries must never queue behind the traffic they
	// are rebalancing.
	mux.HandleFunc("/ring", s.handleRing)
	mux.HandleFunc("/migrate/export", s.handleMigrateExport)
	mux.HandleFunc("/migrate/import", s.handleMigrateImport)
	mux.HandleFunc("/migrate/retire", s.handleMigrateRetire)
	// Runtime profiling: pprof.Index serves the named profiles (heap,
	// goroutine, block, ...) via the trailing path segment.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// HeaderRequestTimeout is admit.HeaderRequestTimeout, kept here for
// clients that import only this package.
const HeaderRequestTimeout = admit.HeaderRequestTimeout

// statusClientClosedRequest is nginx's conventional status for a request
// aborted because the client went away. The client never sees it; it
// keeps access logs and metrics honest.
const statusClientClosedRequest = 499

// admitted wraps h in admission control under the given class, applying
// the class deadline to the request context.
func (s *Server) admitted(class admit.Class, h http.HandlerFunc) http.HandlerFunc {
	return s.admittedDeadline(class, true, h)
}

// admittedDeadline is admitted with deadline propagation optional: the
// build route opts out because builds own their lifecycle (-build-timeout
// and DELETE /graph/build), and killing a build because the *initiating*
// request's class deadline passed would punish every client waiting on
// the epoch.
func (s *Server) admittedDeadline(class admit.Class, deadline bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		if deadline {
			d, err := admit.ClientTimeout(r, s.admit.Timeout(class))
			if err != nil {
				httpError(w, http.StatusBadRequest, "%v", err)
				return
			}
			if d > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, d)
				defer cancel()
			}
		}
		release, res := s.admit.Admit(ctx, class)
		if res.Rejected() {
			admit.SetRetryAfter(w, res.RetryAfter)
			switch res.Outcome {
			case admit.RateLimited:
				httpError(w, http.StatusTooManyRequests, "rate limit exceeded")
			case admit.DeadlineExceeded:
				httpError(w, http.StatusServiceUnavailable,
					"request deadline expired after %s in the %s admission queue", res.Wait.Round(time.Millisecond), class)
			default: // admit.Shed
				httpError(w, http.StatusServiceUnavailable,
					"%s capacity exhausted; request shed", class)
			}
			return
		}
		defer release()
		h(w, r.WithContext(ctx))
	}
}

// degradedRetryAfter is the retry advice for writes rejected because the
// data dir is read-only. Degraded mode is sticky until an operator
// restarts the node, so the value is a polling hint, not an estimate.
const degradedRetryAfter = 30 * time.Second

// buildRetryAfter estimates when the in-flight build will be done: the
// remaining configured deadline when one exists, else the last epoch's
// build duration minus the elapsed time, else a 1s floor (setRetryAfter
// clamps negatives up to 1).
func (s *Server) buildRetryAfter() time.Duration {
	var elapsed time.Duration
	if ns := s.buildStartNS.Load(); ns > 0 {
		elapsed = time.Since(time.Unix(0, ns))
	}
	if timeout := time.Duration(s.buildTimeout.Load()); timeout > 0 {
		return timeout - elapsed
	}
	if ep := s.view.Load().epoch; ep != nil && ep.duration > 0 {
		return ep.duration - elapsed
	}
	return time.Second
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, "GET", "GET required")
		return
	}
	writeJSON(w, http.StatusOK, s.obs.Snapshot())
}

// handleHealth stays 200 in degraded and overloaded modes — the node
// still serves (some) traffic, so a load balancer must not drain it — but
// the body names each active condition distinctly: "degraded" means the
// data dir stopped accepting writes (sticky until restart), "overloaded"
// means admission is currently shedding (clears when pressure drops).
// /healthz itself bypasses admission so the probe works during overload.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	degraded := s.store != nil && s.store.Degraded()
	overloaded := s.admit.Overloaded()
	if !degraded && !overloaded {
		fmt.Fprintln(w, "ok")
		return
	}
	if degraded {
		fmt.Fprintln(w, "degraded (read-only: data dir unwritable; queries still served)")
	}
	if overloaded {
		fmt.Fprintln(w, "overloaded (admission shedding excess load; accepted requests still served)")
	}
}

// Stats is the /stats response.
type Stats struct {
	// Shard is the shard-core's name when the server runs behind the
	// router tier (SetShardName); empty for a single-node deployment.
	Shard string `json:"shard,omitempty"`

	// Ring observability: the installed placement-ring epoch and mode
	// ("stable", or "transition" while a migration's dual-ownership window
	// is open), and the interrupted import recovery found in the WAL, if
	// any ("epoch=N from=shard-X" until a resumed import completes).
	RingEpoch        uint64 `json:"ring_epoch,omitempty"`
	RingMode         string `json:"ring_mode,omitempty"`
	MigrationPending string `json:"migration_pending,omitempty"`
	Importing        bool   `json:"importing,omitempty"`

	Users      int  `json:"users"`
	Bits       int  `json:"bits"`
	GraphK     int  `json:"graph_k"`
	GraphBuilt bool `json:"graph_built"`
	GraphStale bool `json:"graph_stale"`

	// Online-graph observability: GraphLive reports that the served
	// epoch's maintainer tracks the state (mutations apply to the graph
	// before they are acked, so GraphStale stays false under churn; only a
	// recovered epoch whose delta tail was lost lags); OnlineNodes/
	// OnlineLive are its total and non-tombstoned node counts, DeletedUsers
	// the state-level tombstone count.
	GraphLive    bool `json:"graph_live,omitempty"`
	OnlineNodes  int  `json:"online_nodes,omitempty"`
	OnlineLive   int  `json:"online_live,omitempty"`
	DeletedUsers int  `json:"deleted_users,omitempty"`

	BuildRunning bool `json:"build_running"`

	// Live build observability: populated only while a build is running.
	BuildPhase         string  `json:"build_phase,omitempty"`
	BuildProgressDone  int64   `json:"build_progress_done,omitempty"`
	BuildProgressTotal int64   `json:"build_progress_total,omitempty"`
	BuildElapsedMS     float64 `json:"build_elapsed_ms,omitempty"`

	// LastBuildError records why the most recent build published no epoch
	// (canceled, timed out); empty after a successful build.
	LastBuildError string `json:"last_build_error,omitempty"`

	// Admission observability: per-class limiter state and decision
	// counts, whether any class is currently shedding, the global
	// rate-limit rejection count, and how many queries were abandoned
	// mid-scan (client gone) or aborted at their deadline.
	Admission      map[string]admit.ClassStats `json:"admission"`
	Overloaded     bool                        `json:"overloaded,omitempty"`
	RateLimited    int64                       `json:"rate_limited,omitempty"`
	QueryCanceled  int64                       `json:"query_canceled,omitempty"`
	QueryDeadlines int64                       `json:"query_deadlines,omitempty"`

	// Durability: Durable reports whether a data dir is attached; Degraded
	// flips when it stopped accepting writes (uploads get 503, reads keep
	// serving). WAL* and SnapshotGen describe the active WAL segment.
	Durable          bool   `json:"durable"`
	Degraded         bool   `json:"degraded,omitempty"`
	WALRecords       int64  `json:"wal_records,omitempty"`
	WALBytes         int64  `json:"wal_bytes,omitempty"`
	SnapshotGen      uint64 `json:"snapshot_gen,omitempty"`
	LastDurableError string `json:"last_durable_error,omitempty"`

	// Epoch observability: zero values until the first build completes.
	Epoch           int64   `json:"epoch"`
	EpochUsers      int     `json:"epoch_users"`
	Algorithm       string  `json:"algorithm,omitempty"`
	BuildDurationMS float64 `json:"build_duration_ms"`
	Comparisons     int64   `json:"comparisons"`
	BuiltAt         string  `json:"built_at,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	v := s.view.Load()
	ep := v.epoch

	st := Stats{
		Shard:          s.shardName,
		Importing:      s.importing.Load(),
		Users:          v.users.Len(),
		Bits:           s.bits,
		BuildRunning:   s.building.Load(),
		LastBuildError: s.obs.TextValue(metricLastError),
		Admission:      s.admit.Snapshot(),
		Overloaded:     s.admit.Overloaded(),
		RateLimited:    s.admit.RateLimited(),
		QueryCanceled:  s.obs.Counter(metricQueryCanceled).Value(),
		QueryDeadlines: s.obs.Counter(metricQueryDeadline).Value(),
	}
	if rv := s.ring.Load(); rv != nil {
		st.RingEpoch = rv.info.Epoch
		st.RingMode = rv.info.Mode
	}
	if pm := s.pendingMig.Load(); pm != nil {
		st.MigrationPending = fmt.Sprintf("epoch=%d from=%s", pm.Epoch, pm.From)
	}
	if s.store != nil {
		info := s.store.Info()
		st.Durable = true
		st.Degraded = info.Degraded
		st.WALRecords = info.WALRecords
		st.WALBytes = info.WALBytes
		st.SnapshotGen = info.Gen
		st.LastDurableError = s.obs.TextValue(metricDurableError)
	}
	if st.BuildRunning {
		st.BuildPhase = s.obs.TextValue(knn.MetricPhase)
		st.BuildProgressDone = s.obs.Gauge(knn.MetricProgressDone).Value()
		st.BuildProgressTotal = s.obs.Gauge(knn.MetricProgressTotal).Value()
		if ns := s.buildStartNS.Load(); ns > 0 {
			st.BuildElapsedMS = float64(time.Since(time.Unix(0, ns))) / float64(time.Millisecond)
		}
	}
	st.DeletedUsers = v.dead
	if ep != nil {
		st.GraphK = ep.k
		st.GraphBuilt = true
		st.Epoch = ep.seq
		st.EpochUsers = v.live.NumNodes()
		st.GraphStale = v.mutSeq != v.live.Seq
		st.GraphLive = !st.GraphStale
		st.OnlineNodes = st.EpochUsers
		st.OnlineLive = v.live.Live
		st.Algorithm = ep.algorithm
		st.BuildDurationMS = float64(ep.duration) / float64(time.Millisecond)
		st.Comparisons = ep.stats.Comparisons
		st.BuiltAt = ep.builtAt.UTC().Format(time.RFC3339Nano)
	}
	writeJSON(w, http.StatusOK, st)
}

// handleUsers routes /users/{id}/fingerprint and /users/{id}/neighbors. An
// unknown action is a 404 (the resource does not exist); a known action
// with the wrong method is a 405 carrying the Allow header RFC 9110
// requires. Routing errors are answered before admission (they cost
// nothing); the real work is admitted under the action's class — uploads
// are writes, neighbor lookups are reads.
func (s *Server) handleUsers(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/users/")
	parts := strings.Split(rest, "/")
	if len(parts) != 2 || parts[0] == "" {
		httpError(w, http.StatusNotFound, "want /users/{id}/fingerprint or /users/{id}/neighbors")
		return
	}
	id, action := parts[0], parts[1]
	if ok, owner, epoch := s.acceptsID(id); !ok {
		// Misrouted id: this shard-core does not own the user. Answered
		// before admission — accepting it would silently split the user
		// across shards and the router could never find it again. The ring
		// says who *does* own the id, so the router (placement-drift counter
		// + one redirect) and external clients can correct course instead of
		// guessing.
		w.Header().Set(HeaderOwnerShard, owner)
		w.Header().Set(HeaderRingEpoch, strconv.FormatUint(epoch, 10))
		httpError(w, http.StatusMisdirectedRequest,
			"user %q is not owned by shard %s", id, s.shardName)
		return
	}
	switch action {
	case "fingerprint":
		switch r.Method {
		case http.MethodPut:
			s.admitted(admit.Write, func(w http.ResponseWriter, r *http.Request) {
				s.putFingerprint(w, r, id)
			})(w, r)
		case http.MethodDelete:
			s.admitted(admit.Write, func(w http.ResponseWriter, r *http.Request) {
				s.deleteFingerprint(w, r, id)
			})(w, r)
		default:
			methodNotAllowed(w, "PUT, DELETE", "use PUT to upload a fingerprint, DELETE to retire it")
		}
	case "neighbors":
		if r.Method != http.MethodGet {
			methodNotAllowed(w, "GET", "use GET to read neighbors")
			return
		}
		s.admitted(admit.Read, func(w http.ResponseWriter, r *http.Request) {
			s.getNeighbors(w, r, id)
		})(w, r)
	default:
		httpError(w, http.StatusNotFound, "unknown action %q: want fingerprint or neighbors", action)
	}
}

// maxBodyBytes is the exact wire size of one fingerprint at the server's
// configured length: magic (4) + header (8) + bit-array words (8 each).
func (s *Server) maxBodyBytes() int64 {
	words := (s.bits + 63) / 64
	return int64(12 + 8*words)
}

// readBoundedFingerprint reads exactly one fingerprint of the configured
// length from the request body, bounding the body size and rejecting
// trailing bytes after a valid SHF. On failure it writes the HTTP error
// and returns ok=false.
func (s *Server) readBoundedFingerprint(w http.ResponseWriter, r *http.Request) (core.Fingerprint, bool) {
	body := http.MaxBytesReader(w, r.Body, s.maxBodyBytes()+1)
	fp, err := core.ReadFingerprint(body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge,
				"fingerprint body exceeds %d bytes (server expects %d bits)", s.maxBodyBytes(), s.bits)
			return core.Fingerprint{}, false
		}
		httpError(w, http.StatusBadRequest, "bad fingerprint: %v", err)
		return core.Fingerprint{}, false
	}
	if fp.NumBits() != s.bits {
		httpError(w, http.StatusBadRequest, "fingerprint has %d bits, server expects %d", fp.NumBits(), s.bits)
		return core.Fingerprint{}, false
	}
	// io.ReadFull loops over (0, nil) reads, which io.Reader permits before
	// EOF, so only a real extra byte counts as trailing garbage.
	var trailing [1]byte
	if n, err := io.ReadFull(body, trailing[:]); n > 0 {
		httpError(w, http.StatusBadRequest, "trailing bytes after fingerprint")
		return core.Fingerprint{}, false
	} else if !errors.Is(err, io.EOF) {
		httpError(w, http.StatusBadRequest, "reading request body: %v", err)
		return core.Fingerprint{}, false
	}
	return fp, true
}

func (s *Server) putFingerprint(w http.ResponseWriter, r *http.Request, id string) {
	if len(id) > core.MaxUserIDBytes {
		// Refused before the WAL append: no snapshot could carry the user.
		httpError(w, http.StatusBadRequest, "user id is %d bytes, max %d", len(id), core.MaxUserIDBytes)
		return
	}
	fp, ok := s.readBoundedFingerprint(w, r)
	if !ok {
		return
	}
	start := time.Now()
	existing, err := s.applyPut(id, fp)
	if err != nil {
		mutationRefused(w, "persisting fingerprint", err)
		return
	}
	if existing {
		s.obs.Counter(metricMutOverwrite).Inc()
		s.obs.Histogram(metricMutOverwriteSecs, obs.DefWaitBuckets).ObserveSince(start)
	} else {
		s.obs.Counter(metricMutInsert).Inc()
		s.obs.Histogram(metricMutInsertSecs, obs.DefWaitBuckets).ObserveSince(start)
	}
	if s.store != nil {
		s.maybeCompactAsync()
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) deleteFingerprint(w http.ResponseWriter, r *http.Request, id string) {
	start := time.Now()
	known, err := s.applyDelete(id)
	if !known {
		httpError(w, http.StatusNotFound, "unknown user %q", id)
		return
	}
	if err != nil {
		mutationRefused(w, "persisting delete", err)
		return
	}
	s.obs.Counter(metricMutDelete).Inc()
	s.obs.Histogram(metricMutDeleteSecs, obs.DefWaitBuckets).ObserveSince(start)
	if s.store != nil {
		s.maybeCompactAsync()
	}
	w.WriteHeader(http.StatusNoContent)
}

// mutationRefused answers a mutation the WAL did not accept: nothing was
// applied, and the data dir stays read-only until restart.
func mutationRefused(w http.ResponseWriter, what string, err error) {
	admit.SetRetryAfter(w, degradedRetryAfter)
	if errors.Is(err, durable.ErrDegraded) {
		httpError(w, http.StatusServiceUnavailable, "data dir unwritable; server is read-only until restart")
		return
	}
	httpError(w, http.StatusServiceUnavailable, "%s: %v", what, err)
}

// buildAlgorithm is the one graph builder the service runs: Cluster-and-
// Conquer at the cluster package defaults. It is near-linear, and its
// assignment seeds graph queries; below 256 users the defaults make it an
// exact scan, identical to knn.BruteForce.
const buildAlgorithm = "cluster"

// BuildResult is the /graph/build response. Algorithm always reads
// buildAlgorithm.
type BuildResult struct {
	Users       int     `json:"users"`
	K           int     `json:"k"`
	Algorithm   string  `json:"algorithm"`
	Comparisons int64   `json:"comparisons"`
	Iterations  int     `json:"iterations"`
	Epoch       int64   `json:"epoch"`
	DurationMS  float64 `json:"duration_ms"`
}

// Service-owned metric names; the knn builders publish theirs under the
// knn.Metric* constants into the same registry.
const (
	metricBuilds    = "build.total"
	metricCanceled  = "build.canceled.total"
	metricTimeouts  = "build.timeout.total"
	metricBuildSecs = "build.seconds"
	metricEpoch     = "build.epoch"
	metricLastError = "build.last_error"

	metricDurableError = "durable.last_error"

	// Online mutation observability: per-kind counters and latency
	// histograms (WAL append + state apply + graph update, i.e. the full
	// accepted-mutation path), the similarity comparisons the incremental
	// graph repair spent, and how many mutations could not be applied to
	// the graph because the epoch lagged the state (served stale until the
	// next build).
	metricMutInsert        = "online.insert.total"
	metricMutOverwrite     = "online.overwrite.total"
	metricMutDelete        = "online.delete.total"
	metricMutStale         = "online.stale.total"
	metricMutComparisons   = "online.comparisons.total"
	metricMutInsertSecs    = "online.insert.seconds"
	metricMutOverwriteSecs = "online.overwrite.seconds"
	metricMutDeleteSecs    = "online.delete.seconds"

	metricQuerySecs     = "query.seconds"
	metricQueryCanceled = "query.canceled.total"
	metricQueryDeadline = "query.deadline.total"

	// Per-mode query observability: how many queries each mode served,
	// how often the graph path fell back to a scan (short result: isolated
	// or unreachable nodes), per-mode latency histograms, and gauges of
	// the last graph search's depth and of the rows it scored.
	metricQueryScan      = "query.mode.scan.total"
	metricQueryGraph     = "query.mode.graph.total"
	metricQueryFallback  = "query.graph.fallback.total"
	metricQueryScanSecs  = "query.scan.seconds"
	metricQueryGraphSecs = "query.graph.seconds"
	metricQueryHops      = "query.graph.hops"
	metricQueryScored    = "query.graph.scored"
)

// HeaderQueryMode is the response header naming how a /query was actually
// served: "graph", "scan", or "scan-fallback" (graph mode attempted but
// the descent could not reach k nodes, so the exact scan answered).
const HeaderQueryMode = "X-Query-Mode"

// handleBuildRoute dispatches the build endpoint: POST starts a build
// (admitted as a write, without a request deadline — builds own their
// lifecycle via -build-timeout and DELETE), DELETE cancels the in-flight
// one. Cancellation bypasses admission: it relieves load, so it must
// never queue behind the load it relieves.
func (s *Server) handleBuildRoute(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.admittedDeadline(admit.Write, false, s.handleBuild)(w, r)
	case http.MethodDelete:
		s.handleCancelBuild(w, r)
	default:
		methodNotAllowed(w, "POST, DELETE", "POST to build, DELETE to cancel")
	}
}

// handleCancelBuild cancels the in-flight build, if any. The builders poll
// the context per scan block, so the build returns within one block; the
// canceled POST answers 409 and the previous epoch stays fully servable.
func (s *Server) handleCancelBuild(w http.ResponseWriter, r *http.Request) {
	cancel := s.buildCancel.Load()
	if cancel == nil {
		httpError(w, http.StatusConflict, "no build in flight")
		return
	}
	(*cancel)() // idempotent; harmless if the build just finished
	writeJSON(w, http.StatusAccepted, map[string]bool{"canceling": true})
}

func (s *Server) handleBuild(w http.ResponseWriter, r *http.Request) {
	k := 10
	if v := r.URL.Query().Get("k"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed <= 0 {
			httpError(w, http.StatusBadRequest, "bad k %q", v)
			return
		}
		k = parsed
	}
	if algo := r.URL.Query().Get("algo"); algo != "" && algo != buildAlgorithm {
		httpError(w, http.StatusBadRequest, "unknown algorithm %q: the service builds %s only", algo, buildAlgorithm)
		return
	}

	if !s.building.CompareAndSwap(false, true) {
		admit.SetRetryAfter(w, s.buildRetryAfter())
		httpError(w, http.StatusConflict, "a build is already running; retry later")
		return
	}
	defer s.building.Store(false)

	// The build context: canceled by DELETE /graph/build, bounded by the
	// configured deadline. It is deliberately not derived from r.Context()
	// — a client dropping the POST mid-build must not abort a build other
	// clients are waiting on; DELETE is the explicit abort path.
	ctx := context.Background()
	var cancel context.CancelFunc
	timeout := time.Duration(s.buildTimeout.Load())
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	// A build legitimately outlives the http.Server WriteTimeout — the 200
	// is written only when construction finishes — so stretch this one
	// connection's write deadline to the build deadline (plus slack for
	// serializing the response), or clear it for unbounded builds. Errors
	// are ignored: test recorders don't implement deadlines, and the
	// fallback is merely the server-wide timeout.
	rc := http.NewResponseController(w)
	if timeout > 0 {
		_ = rc.SetWriteDeadline(time.Now().Add(timeout + 30*time.Second))
	} else {
		_ = rc.SetWriteDeadline(time.Time{})
	}
	s.buildCancel.Store(&cancel)
	buildStart := time.Now()
	s.buildStartNS.Store(buildStart.UnixNano())
	defer func() {
		s.buildCancel.Store(nil)
		s.buildStartNS.Store(0)
		s.obs.SetText(knn.MetricPhase, "idle")
		cancel()
	}()
	s.obs.Counter(metricBuilds).Inc()

	// The build runs over the view current now: an immutable corpus, so
	// uploads and reads proceed while the construction churns, and whatever
	// they change is drained into the new epoch at publish.
	s.obs.SetText(knn.MetricPhase, "snapshot")
	snap := s.view.Load()
	users := snap.users.Flat()

	if len(users) < 2 {
		httpError(w, http.StatusConflict, "need at least 2 fingerprints, have %d", len(users))
		return
	}
	// A node has at most n-1 neighbors, so clamping is behavior-preserving;
	// it also keeps a huge ?k= from panicking the builders' cap-k
	// neighborhood preallocations.
	if k > len(users)-1 {
		k = len(users) - 1
	}
	if s.buildHook != nil {
		s.buildHook()
	}

	provider := knn.NewPackedSHFProvider(snap.corpus)
	start := time.Now()
	// Keep the assignment: its hashes seed graph-search entry points on the
	// query path for the lifetime of this epoch.
	g, clusters, stats := knn.ClusterConquerWith(provider, k, knn.Options{Ctx: ctx, Obs: s.obs}, knn.ClusterConfig{})
	duration := time.Since(start)

	// A canceled or timed-out build publishes nothing: the previous epoch
	// (if any) keeps serving every read path. The builders returned a
	// partial graph; it is discarded here.
	if ctxErr := ctx.Err(); ctxErr != nil {
		if errors.Is(ctxErr, context.DeadlineExceeded) {
			s.obs.Counter(metricTimeouts).Inc()
			msg := fmt.Sprintf("build (k=%d) exceeded the %s deadline; previous epoch still serves", k, timeout)
			s.obs.SetText(metricLastError, msg)
			httpError(w, http.StatusGatewayTimeout, "%s", msg)
		} else {
			s.obs.Counter(metricCanceled).Inc()
			msg := fmt.Sprintf("build (k=%d) canceled after %s; previous epoch still serves", k, duration.Round(time.Millisecond))
			s.obs.SetText(metricLastError, msg)
			httpError(w, http.StatusConflict, "%s", msg)
		}
		return
	}
	s.obs.SetText(metricLastError, "")

	nav := g.Navigable(provider)
	// Publish under writeMu: wrap the built graph in an online maintainer
	// and drain every mutation that landed while the build ran — inserts
	// for users registered since the snapshot, overwrites for changed
	// fingerprints, deletes for tombstones — so the new epoch starts
	// exactly current and the next mutation applies to it live. The
	// maintainer's sequence is seeded so the drain lands it on the state's
	// mutation counter. writeMu is held through SaveEpoch: a graph delta
	// for the *new* epoch must never reach the WAL before the epoch itself
	// reaches disk, or a crash would replay it onto the old epoch.
	s.writeMu.Lock()
	cur := s.view.Load()
	// What changed during the build, read off the pages the two corpora no
	// longer share: rows past the build's are inserts, differing rows of
	// live users overwrites, and every current tombstone a delete (the
	// build indexed tombstoned rows like any other).
	var overwrites, deletes []int32
	for _, i := range cur.corpus.ChangedRows(snap.corpus) {
		if !cur.deleted.At(int(i)) {
			overwrites = append(overwrites, i)
		}
	}
	for i := 0; cur.dead > 0 && i < cur.users.Len(); i++ {
		if cur.deleted.At(i) {
			deletes = append(deletes, int32(i))
		}
	}
	pendingOps := cur.users.Len() - len(users) + len(overwrites) + len(deletes)
	online, oerr := knn.NewOnline(g, nav, corpusRows(cur.corpus, len(users)), nil, k,
		cur.mutSeq-uint64(pendingOps))
	if oerr != nil {
		s.writeMu.Unlock()
		httpError(w, http.StatusInternalServerError, "wrapping built graph: %v", oerr)
		return
	}
	for i := len(users); i < cur.users.Len(); i++ {
		online.Insert(cur.corpus.Fingerprint(i))
	}
	for _, i := range overwrites {
		online.Overwrite(i, cur.corpus.Fingerprint(int(i)))
	}
	for _, i := range deletes {
		online.Delete(i)
	}

	ep := &graphEpoch{
		seq:       s.epochSeq.Add(1),
		clusters:  clusters,
		k:         k,
		algorithm: buildAlgorithm,
		builtAt:   start,
		duration:  duration,
		stats:     stats,
		online:    online,
	}
	next := *cur
	next.epoch, next.live = ep, online.Snapshot()
	s.view.Store(&next)
	s.obs.Gauge(metricEpoch).Set(ep.seq)
	s.obs.Histogram(metricBuildSecs, obs.DefTimeBuckets).Observe(duration.Seconds())

	// Persist the drained epoch before answering (and before releasing
	// writeMu — see above): a client that saw the build succeed must find
	// the same epoch after a crash. Persistence failure degrades the store
	// (reads keep serving the in-memory epoch) but the build itself
	// succeeded — report it in the response-independent durable error
	// channel, not as a build failure.
	if s.store != nil {
		ed := next.epochData(next.users.Flat())
		if err := s.store.SaveEpoch(*ed); err != nil && !errors.Is(err, durable.ErrDegraded) {
			s.obs.SetText(metricDurableError, err.Error())
		}
	}
	s.writeMu.Unlock()
	if s.store != nil {
		s.compact()
	}

	writeJSON(w, http.StatusOK, BuildResult{
		Users:       len(users),
		K:           k,
		Algorithm:   buildAlgorithm,
		Comparisons: stats.Comparisons,
		Iterations:  stats.Iterations,
		Epoch:       ep.seq,
		DurationMS:  float64(duration) / float64(time.Millisecond),
	})
}

// NeighborJSON is one edge of a served neighborhood.
type NeighborJSON struct {
	User       string  `json:"user"`
	Similarity float64 `json:"similarity"`
}

func (s *Server) getNeighbors(w http.ResponseWriter, r *http.Request, id string) {
	s.mu.RLock()
	i, known := s.index[id]
	s.mu.RUnlock()
	// Load the view after the index: an index entry can be one in-flight
	// PUT ahead of the published view, and a user that is not published
	// yet is not acked yet either.
	v := s.view.Load()
	if !known || i >= v.users.Len() {
		httpError(w, http.StatusNotFound, "unknown user %q", id)
		return
	}
	if v.deleted.At(i) {
		httpError(w, http.StatusGone, "user %q deleted its fingerprint", id)
		return
	}
	if v.epoch == nil {
		httpError(w, http.StatusConflict, "graph not built; POST /graph/build first")
		return
	}

	// Serve the live graph: mutations since the build are already in it.
	// The user table is append-only, so an index below the served graph's
	// node count always refers to the same user the edges point at; an
	// index at or past it means the graph genuinely lags the state
	// (recovery lost its delta tail) and stays so until the next build.
	if i >= v.live.NumNodes() {
		httpError(w, http.StatusConflict,
			"user %q is not yet in the served graph (epoch %d lags the state); POST /graph/build to include it", id, v.epoch.seq)
		return
	}
	nbrs := v.live.Neighbors(int32(i))

	// Name the edges from the view's table (indices are stable) and drop
	// edges to users deleted since the edge was recorded: the maintainer
	// purges dead in-edges lazily, and a lagging epoch cannot know at all.
	out := make([]NeighborJSON, 0, len(nbrs))
	for _, nb := range nbrs {
		if v.deleted.At(int(nb.ID)) || v.live.Dead(nb.ID) {
			continue
		}
		out = append(out, NeighborJSON{User: v.users.At(int(nb.ID)), Similarity: nb.Sim})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, "POST", "POST required")
		return
	}
	k := 10
	if v := r.URL.Query().Get("k"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed <= 0 {
			httpError(w, http.StatusBadRequest, "bad k %q", v)
			return
		}
		k = parsed
	}
	mode := r.URL.Query().Get("mode")
	if mode == "" {
		mode = "auto"
	}
	switch mode {
	case "auto", "graph", "scan":
	default:
		httpError(w, http.StatusBadRequest, "unknown mode %q (auto, graph, scan)", mode)
		return
	}
	fp, ok := s.readBoundedFingerprint(w, r)
	if !ok {
		return
	}

	// One load yields the corpus, the tombstones and the graph snapshot of
	// the same mutation, then the search or scan runs without any lock, so
	// a long query never stalls uploads. The query fingerprint was validated
	// to the server's bit length above, so it always matches the corpus.
	v := s.view.Load()

	// Mode selection. The graph path navigates the served epoch's KNN
	// graph instead of scanning all n rows. The epoch's graph already
	// contains every mutation up to its sequence number, so auto picks it
	// whenever that sequence matches the view's — which, mutations being
	// applied live, is the steady state, not the just-built special case.
	// Only an epoch that genuinely lags (recovery lost its delta tail)
	// sends auto to the scan. An explicit mode=graph serves the (possibly
	// lagging) graph's user set and is the caller's statement that
	// approximate-but-fast beats exact-but-O(n).
	ep := v.epoch
	if mode == "graph" && ep == nil {
		httpError(w, http.StatusConflict, "graph not built; POST /graph/build first or use mode=scan")
		return
	}
	useGraph := ep != nil && (mode == "graph" || (mode == "auto" && v.live.Seq == v.mutSeq))

	// Both paths run under the request context (class deadline, client
	// X-Request-Timeout, client disconnect): a caller nobody is waiting on
	// stops burning the corpus within one tile or hop. Both abort causes
	// are counted; a deadline gets an honest 503 + Retry-After, a vanished
	// client gets 499 for the logs.
	corpus := v.corpus
	queryStart := time.Now()
	var best []knn.Neighbor
	var err error
	served := "scan"
	if useGraph {
		opts := knn.SearchOptions{Ctx: r.Context(), Seeds: querySeeds(ep, fp, v.live.NumNodes()), Exclude: v.excluded()}
		kEff := min(k, v.live.Live)
		res, sstats, serr := v.live.Search(corpus.NewQueryScorer(fp), kEff, opts)
		if serr != nil {
			s.queryAborted(w, serr)
			return
		}
		s.obs.Gauge(metricQueryHops).Set(int64(sstats.Hops))
		s.obs.Gauge(metricQueryScored).Set(int64(sstats.Scored))
		if len(res) < kEff {
			// The descent could not reach k distinct nodes (isolated
			// nodes, disconnected clusters): deliver the scan's exact
			// answer instead of a silently short one.
			s.obs.Counter(metricQueryFallback).Inc()
			served = "scan-fallback"
		} else {
			best = res
			served = "graph"
			s.obs.Counter(metricQueryGraph).Inc()
			s.obs.Histogram(metricQueryGraphSecs, obs.DefWaitBuckets).ObserveSince(queryStart)
		}
	}
	if served != "graph" {
		// Tombstoned rows score -1, below every live row, so the selection
		// keeps k live users when they exist and costs the same however
		// many tombstones have accumulated.
		best, err = knn.TopKRangeCtx(r.Context(), corpus.NumUsers(), k, 0, func(lo, hi int, out []float64) {
			corpus.JaccardQueryInto(fp, lo, hi, out)
			if v.dead > 0 {
				maskDeleted(v.deleted, lo, hi, out)
			}
		})
		if err != nil {
			s.queryAborted(w, err)
			return
		}
		for len(best) > 0 && best[len(best)-1].Sim < 0 {
			best = best[:len(best)-1] // fewer than k live users
		}
		s.obs.Counter(metricQueryScan).Inc()
		s.obs.Histogram(metricQueryScanSecs, obs.DefWaitBuckets).ObserveSince(queryStart)
	}
	s.obs.Histogram(metricQuerySecs, obs.DefWaitBuckets).ObserveSince(queryStart)
	w.Header().Set(HeaderQueryMode, served)
	out := make([]NeighborJSON, 0, len(best))
	for _, b := range best {
		out = append(out, NeighborJSON{User: v.users.At(int(b.ID)), Similarity: b.Sim})
	}
	// TopK breaks ties by dense index (registration order); the response
	// contract orders equal similarities by external user id.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Similarity != out[j].Similarity {
			return out[i].Similarity > out[j].Similarity
		}
		return out[i].User < out[j].User
	})
	writeJSON(w, http.StatusOK, out)
}

// maskDeleted overwrites out[i-lo] with -1 for every tombstoned user i in
// [lo, hi), walking the flags a page at a time.
func maskDeleted(deleted cow.View[bool], lo, hi int, out []float64) {
	pages := deleted.Pages()
	for i := lo; i < hi; {
		off := i & (1<<tableShift - 1)
		end := min(hi, i-off+1<<tableShift)
		for j, dead := range pages[i>>tableShift][off : off+end-i] {
			if dead {
				out[i-lo+j] = -1
			}
		}
		i = end
	}
}

// clusterQuerySeeds is the number of bucket-derived entry points a
// cluster epoch contributes to a graph query.
const clusterQuerySeeds = 48

// querySeeds picks graph-search entry points for fp. With a built epoch
// the query's own hash buckets supply entry points that are already
// likely to be similar to it — the descent starts next to its target
// instead of walking in from evenly spread strangers — layered on top of
// the full default spread (knn.DefaultSeeds): the spread is what keeps
// every region of a directed KNN graph reachable, and the warm bucket
// seeds raise the beam's floor early so weaker paths are pruned sooner.
// Without an assignment (a recovered epoch) it returns nil and GraphSearch
// uses its default spread alone. n is the served graph's current node
// count — the live graph may have grown past the build-time user table.
func querySeeds(ep *graphEpoch, fp core.Fingerprint, n int) []int32 {
	if ep.clusters == nil || len(ep.clusters.Views) == 0 {
		return nil
	}
	seeds := ep.clusters.Seeds(fp.Bits().Words(), clusterQuerySeeds)
	if len(seeds) == 0 {
		return nil
	}
	return knn.DefaultSeeds(seeds, n)
}

// queryAborted answers a query whose context died mid-search/mid-scan: a
// deadline gets an honest 503 + Retry-After, a vanished client 499.
func (s *Server) queryAborted(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		s.obs.Counter(metricQueryDeadline).Inc()
		admit.SetRetryAfter(w, s.admit.RetryAfter(admit.Query))
		httpError(w, http.StatusServiceUnavailable,
			"query aborted at its deadline; retry later (lower load) or with a larger %s", HeaderRequestTimeout)
		return
	}
	s.obs.Counter(metricQueryCanceled).Inc()
	httpError(w, statusClientClosedRequest, "query canceled by client")
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

// methodNotAllowed writes a 405 with the Allow header RFC 9110 §15.5.6
// requires on every 405 response.
func methodNotAllowed(w http.ResponseWriter, allow string, format string, args ...any) {
	w.Header().Set("Allow", allow)
	httpError(w, http.StatusMethodNotAllowed, format, args...)
}
