// Command knnserver runs the untrusted KNN-construction service of the
// paper's §2.5 deployment: clients fingerprint their profiles locally and
// upload only the SHFs; this server builds and serves the KNN graph without
// ever seeing a profile in clear text.
//
// Endpoints:
//
//	PUT    /users/{id}/fingerprint   upload a binary SHF (internal/core codec)
//	DELETE /users/{id}/fingerprint   tombstone a user (204; reads answer 410)
//	POST   /graph/build?k=30         build the graph (Cluster-and-Conquer)
//	DELETE /graph/build              cancel the in-flight build (alias: /build)
//	GET    /users/{id}/neighbors
//	POST   /query?k=10               top-k users for an uploaded fingerprint
//	GET    /stats, GET /healthz
//	GET    /metrics                  JSON metrics snapshot (internal/obs)
//	GET    /debug/pprof/*            runtime profiles (heap, cpu, goroutine, ...)
//
// # Graph epochs
//
// POST /graph/build builds with Cluster-and-Conquer at the cluster
// package defaults, the one builder the server runs: algo may be left out
// or set to cluster, and any other value is a 400. Each successful build
// produces a new graph epoch, and the epoch then tracks mutations online:
// uploads, overwrites and deletes apply to the live graph immediately
// instead of pinning it stale until the next rebuild. Construction runs
// outside any lock, so uploads, neighborhood reads and queries all proceed
// at full speed while a build is running. The contract:
//
//   - A user uploaded after the epoch was built is inserted into the live
//     graph (greedy search for its neighborhood, reverse-edge repair with
//     a diversity-pruned degree cap) and is immediately visible to
//     GET /users/{id}/neighbors and graph-mode queries — no 409, no
//     rebuild required. Re-uploads rewire the user's neighborhood in
//     place.
//   - DELETE /users/{id}/fingerprint tombstones the user: subsequent
//     reads answer 410 Gone, queries and neighbor lists never return the
//     user, and the graph repairs around the hole lazily. A later re-PUT
//     of the same id revives it.
//   - Periodic rebuilds are still worthwhile (they restore batch-quality
//     edges and compact tombstones) but are a background optimization,
//     not a visibility requirement. GET /stats reports graph_stale only
//     when the served epoch lags the state: a restart whose WAL lost the
//     tail of its graph deltas recovers the epoch behind the recovered
//     users, and until the next build auto-mode queries scan and
//     neighbor reads answer 409 for the users the graph never saw.
//   - At most one build runs at a time: a concurrent POST /graph/build gets
//     409 Conflict with a Retry-After header instead of queuing. The
//     publish path drains mutations accepted during the build so nothing
//     is lost at the swap.
//   - GET /stats exposes the epoch sequence number, the user count, the
//     algorithm, the build duration and comparison count of the current
//     epoch, the online node/live/tombstone counts, and build_running
//     plus the live phase/progress while a construction is in flight.
//
// # Cancellation and deadlines
//
// Builds are cancellable: DELETE /graph/build aborts the in-flight build
// within one scan block, and -build-timeout imposes the same abort as a
// deadline on every build. Either way nothing is published — the previous
// epoch keeps serving all reads — and the aborted POST reports 409
// (canceled) or 504 (timed out).
//
// Fingerprint bodies (uploads and queries) are bounded to the exact wire
// size of one fingerprint at the configured -bits; oversized bodies get
// 413 and trailing bytes after a valid SHF get 400.
//
// # Durability
//
// With -data-dir set, accepted uploads are written to a write-ahead log
// before the 204 is sent, successful builds persist their epoch, and the
// WAL is periodically compacted into checksummed snapshots. On startup the
// server recovers the newest valid snapshot plus the WAL tail — acked
// uploads and the last published epoch survive a SIGKILL; a torn WAL tail
// is truncated (logged, counted in the recovery metrics) and corrupt
// snapshot files are quarantined with a .corrupt suffix rather than
// crashing the server. -fsync picks the append durability: "always"
// (default; fsync per upload — an acked PUT survives power loss) or "none"
// (OS page cache decides; survives process death, not power loss).
//
// If the data dir stops accepting writes at runtime the server degrades to
// read-only: uploads get 503 + Retry-After while neighbor reads and
// queries keep serving from memory (see GET /healthz and the degraded
// field of GET /stats). Without -data-dir state is in-memory only, exactly
// as before.
//
// # Overload behavior
//
// Every endpoint passes per-class admission control (cheap reads, expensive
// queries, mutating writes) before touching the corpus: each class has a
// concurrency limit and a bounded wait queue, every admitted request runs
// under a context deadline, and excess load is shed fail-fast with 429/503
// plus a computed Retry-After instead of queueing without bound. Clients
// may lower (never raise) their deadline with an X-Request-Timeout header.
// -max-inflight-queries, -query-timeout and -rate-limit tune the limits;
// /healthz and /stats report shedding distinctly from durability
// degradation. The http.Server itself is hardened against slow and abusive
// clients with -read-timeout, -write-timeout, -idle-timeout and
// -max-header-bytes. /healthz, /debug/pprof and DELETE /graph/build bypass
// admission: probes and load relief must keep working while overloaded.
//
// # Sharded deployment
//
// -role shard runs the same service as one named shard-core of a cluster
// (-name, -join: it registers with the router and persists the placement
// ring it is pushed beside its WAL); -role router runs the scatter-gather
// tier in front of them. Without -role the process is a single node.
//
// Usage:
//
//	knnserver -addr :8080 -bits 1024 -build-timeout 5m -data-dir /var/lib/knn -fsync always \
//	  -max-inflight-queries 32 -query-timeout 5s -rate-limit 2000
//	knnserver -role router -addr :8080
//	knnserver -role shard -name shard-0 -addr :8081 -data-dir /var/lib/knn/shard-0 -join http://localhost:8080
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"goldfinger/internal/admit"
	"goldfinger/internal/durable"
	"goldfinger/internal/obs"
	"goldfinger/internal/router"
	"goldfinger/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "knnserver:", err)
		os.Exit(1)
	}
}

// run parses args, starts the process the flags select — a single node, a
// -role shard core or the -role router tier — and serves until ctx is
// canceled (then shuts down gracefully). When ready is non-nil it is
// called with the bound listen address once the listener is up — tests
// use it with -addr 127.0.0.1:0.
func run(ctx context.Context, args []string, logw io.Writer, ready func(addr string)) error {
	fs := flag.NewFlagSet("knnserver", flag.ContinueOnError)
	fs.SetOutput(logw)
	addr := fs.String("addr", ":8080", "listen address")
	bits := fs.Int("bits", 1024, "accepted fingerprint length")
	buildTimeout := fs.Duration("build-timeout", 0,
		"abort graph builds running longer than this (0 disables the deadline)")
	dataDir := fs.String("data-dir", "",
		"directory for the WAL and snapshots (empty: in-memory only, state dies with the process)")
	fsyncMode := fs.String("fsync", "always",
		"WAL fsync policy: always (acked uploads survive power loss) or none (page cache decides)")
	readTimeout := fs.Duration("read-timeout", 30*time.Second,
		"maximum duration for reading an entire request, body included (0 disables; slow-loris guard)")
	writeTimeout := fs.Duration("write-timeout", time.Minute,
		"maximum duration for writing a response (0 disables; graph builds extend their own deadline)")
	idleTimeout := fs.Duration("idle-timeout", 2*time.Minute,
		"how long an idle keep-alive connection is kept open (0 disables)")
	maxHeaderBytes := fs.Int("max-header-bytes", 64<<10,
		"maximum request header size in bytes (0 uses the net/http default)")
	maxInflightQueries := fs.Int("max-inflight-queries", 0,
		"concurrent /query executions before queueing (0 uses the default, 2×GOMAXPROCS)")
	queryTimeout := fs.Duration("query-timeout", 10*time.Second,
		"per-request deadline for /query, admission queue included (0 disables; clients can lower it with X-Request-Timeout)")
	rateLimit := fs.Float64("rate-limit", 0,
		"global request rate limit in requests/second, enforced with a token bucket (0 disables)")
	role := fs.String("role", "",
		"multi-process deployment role: \"shard\" (one shard-core process; pair with -name and -join) or \"router\" (routing tier; pair with -peers). Empty: single node")
	shardName := fs.String("name", "",
		"role=shard: this shard's stable name on the placement ring (e.g. shard-0); must survive restarts so the ring does not move")
	joinURL := fs.String("join", "",
		"role=shard: router base URL to register with (e.g. http://127.0.0.1:8080); empty skips self-registration (join manually via the router's /cluster/join)")
	advertiseURL := fs.String("advertise", "",
		"role=shard: URL the router should use to reach this process (default: http://<bound addr>, with 0.0.0.0/:: rewritten to 127.0.0.1 — loopback-only unless you advertise a reachable address)")
	peers := fs.String("peers", "",
		"role=router: comma-separated seed shard URLs, each \"name=url\" or a bare url (name is then resolved from the shard's /stats); shards may also self-register via -join")
	migrateTimeout := fs.Duration("migrate-timeout", 0,
		"role=router: give up on a single shard-to-shard migration transfer after this long (0 uses the default, 2m)")
	migrateRate := fs.Int("migrate-rate", 0,
		"role=shard: cap migration-import apply throughput at this many users/second so a live gainer stays responsive while a transfer streams in (0: unlimited)")
	quorum := fs.Float64("quorum", 0.5,
		"role=router: minimum fraction of shards that must answer a /query for a 200; below it the router answers 503 with Retry-After")
	hedgeAfter := fs.Duration("hedge-after", 0,
		"role=router: wait this long before hedging a duplicate request at a straggler shard (0: adaptive, 2× the shard's windowed p99; negative disables hedging)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *buildTimeout < 0 {
		return fmt.Errorf("-build-timeout must be non-negative, got %s", *buildTimeout)
	}
	for _, f := range []struct {
		name string
		val  time.Duration
	}{
		{"-read-timeout", *readTimeout},
		{"-write-timeout", *writeTimeout},
		{"-idle-timeout", *idleTimeout},
		{"-query-timeout", *queryTimeout},
	} {
		if f.val < 0 {
			return fmt.Errorf("%s must be non-negative, got %s", f.name, f.val)
		}
	}
	if *maxHeaderBytes < 0 {
		return fmt.Errorf("-max-header-bytes must be non-negative, got %d", *maxHeaderBytes)
	}
	if *maxInflightQueries < 0 {
		return fmt.Errorf("-max-inflight-queries must be non-negative, got %d", *maxInflightQueries)
	}
	if *rateLimit < 0 {
		return fmt.Errorf("-rate-limit must be non-negative, got %g", *rateLimit)
	}
	if *quorum <= 0 || *quorum > 1 {
		return fmt.Errorf("-quorum must be in (0, 1], got %g", *quorum)
	}
	fsyncPolicy, err := durable.ParseFsyncPolicy(*fsyncMode)
	if err != nil {
		return err
	}
	if *migrateTimeout < 0 {
		return fmt.Errorf("-migrate-timeout must be non-negative, got %s", *migrateTimeout)
	}

	logger := log.New(logw, "", log.LstdFlags)
	timeouts := httpTimeouts{*readTimeout, *writeTimeout, *idleTimeout, *maxHeaderBytes}
	switch *role {
	case "":
		if *shardName != "" || *joinURL != "" || *advertiseURL != "" || *peers != "" {
			return errors.New("-name, -join, -advertise and -peers require a -role")
		}
	case "shard":
		if *peers != "" {
			return errors.New("-peers is a router flag; a shard uses -join")
		}
		if *shardName == "" {
			return errors.New("-role shard requires -name (a stable ring name, e.g. shard-0)")
		}
	case "router":
		if *joinURL != "" || *shardName != "" || *dataDir != "" {
			return errors.New("-name, -join and -data-dir are shard flags; the router holds no data")
		}
		return runRouterProc(ctx, routerProcParams{
			addr:           *addr,
			peers:          *peers,
			quorum:         *quorum,
			hedgeAfter:     *hedgeAfter,
			queryTimeout:   *queryTimeout,
			migrateTimeout: *migrateTimeout,
			httpTimeouts:   timeouts,
		}, logger, ready)
	default:
		return fmt.Errorf("unknown -role %q (want shard or router)", *role)
	}
	return runNode(ctx, nodeParams{
		addr:         *addr,
		bits:         *bits,
		name:         *shardName,
		join:         *joinURL,
		advertise:    *advertiseURL,
		buildTimeout: *buildTimeout,
		dataDir:      *dataDir,
		fsync:        fsyncPolicy,
		httpTimeouts: timeouts,
		admission:    admissionConfig(*maxInflightQueries, *queryTimeout, *rateLimit),
		migrateRate:  *migrateRate,
	}, logger, ready)
}

// admissionConfig derives the admission configuration the flags select.
func admissionConfig(maxInflightQueries int, queryTimeout time.Duration, rateLimit float64) admit.Config {
	cfg := admit.DefaultConfig()
	if maxInflightQueries > 0 {
		cfg.Query.MaxInflight = maxInflightQueries
		cfg.Query.MaxQueue = 4 * maxInflightQueries
	}
	cfg.Query.Timeout = queryTimeout
	if rateLimit > 0 {
		cfg.Rate = rateLimit
		// One second of burst headroom so well-behaved clients with bursty
		// arrivals are not clipped at the average rate.
		cfg.Burst = rateLimit
	}
	return cfg
}

// httpTimeouts bundles the http.Server hardening flags.
type httpTimeouts struct {
	read, write, idle time.Duration
	maxHeaderBytes    int
}

func (t httpTimeouts) server(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       t.read,
		WriteTimeout:      t.write,
		IdleTimeout:       t.idle,
		MaxHeaderBytes:    t.maxHeaderBytes,
	}
}

// nodeParams carries the parsed flags into a service process; name, join
// and advertise are set only in -role shard mode.
type nodeParams struct {
	addr         string
	bits         int
	name         string
	join         string
	advertise    string
	buildTimeout time.Duration
	dataDir      string
	fsync        durable.FsyncPolicy
	httpTimeouts httpTimeouts
	admission    admit.Config
	migrateRate  int
}

// ringFile is where a shard process persists its installed placement ring
// inside -data-dir, so a restart recovers ownership (and keeps answering
// 421 with the right owner) before the router re-pushes.
const ringFile = "ring.json"

// runNode boots one service process: a full knnserver service, durable
// under -data-dir when one is given. With a name it is one shard-core of a
// -role shard deployment: named on the placement ring, persisting every
// ring it is pushed beside its WAL, and registering itself with the router
// at -join. Migration state (import journal marks) rides the WAL, so a
// SIGKILL mid-migration recovers.
func runNode(ctx context.Context, p nodeParams, logger *log.Logger, ready func(addr string)) error {
	srv, err := service.NewServer(p.bits)
	if err != nil {
		return err
	}
	srv.SetShardName(p.name)
	srv.SetBuildTimeout(p.buildTimeout)
	srv.SetAdmission(p.admission)
	srv.SetMigrateRate(p.migrateRate)
	who, logPrefix := "knnserver", ""
	if p.name != "" {
		who, logPrefix = "knnserver shard "+p.name, p.name+": "
	}

	var store *durable.Store
	if p.dataDir != "" {
		st, rec, err := durable.Open(durable.Options{
			Dir:     p.dataDir,
			Fsync:   p.fsync,
			Metrics: srv.Metrics(),
			Logf:    logger.Printf,
		})
		if err != nil {
			return fmt.Errorf("opening data dir %s: %w", p.dataDir, err)
		}
		if err := srv.UseStore(st, rec); err != nil {
			st.Close()
			return err
		}
		store = st
		epoch := int64(0)
		if rec.Epoch != nil {
			epoch = rec.Epoch.Seq
		}
		logger.Printf("%srecovered %d users from %s (epoch %d, %d WAL records replayed, %d puts with an over-long user id skipped, %d bytes dropped, %d files quarantined)",
			logPrefix, len(rec.State.Users), p.dataDir, epoch, rec.RecordsReplayed, rec.SkippedPuts, rec.BytesDropped, len(rec.Quarantined))
		if p.name != "" {
			persistRing(srv, filepath.Join(p.dataDir, ringFile), p.name, logger)
		}
	}

	ln, err := net.Listen("tcp", p.addr)
	if err != nil {
		if store != nil {
			store.Close()
		}
		return err
	}
	httpSrv := p.httpTimeouts.server(srv.Handler())
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			logger.Printf("shutdown: %v", err)
		}
	}()
	if p.join != "" {
		advertise := p.advertise
		if advertise == "" {
			advertise = "http://" + loopbackAddr(ln.Addr().String())
		}
		go joinLoop(ctx, p.join, p.name, advertise, joinAttemptTimeout, logger)
	}

	logger.Printf("%s listening on %s (fingerprints: %d bits, build timeout: %s)",
		who, ln.Addr(), p.bits, p.buildTimeout)
	if ready != nil {
		ready(ln.Addr().String())
	}
	serveErr := httpSrv.Serve(ln)
	// Graceful shutdown: seal the active WAL segment so the next start
	// replays a cleanly-synced tail. Crash-stops skip this path by design —
	// that is what recovery is for.
	if store != nil {
		if err := store.Close(); err != nil {
			logger.Printf("closing durable store: %v", err)
		}
	}
	if serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
		return serveErr
	}
	return nil
}

// persistRing makes srv write every ring it installs to path (tmp +
// rename) and reinstalls the ring a previous run left there.
func persistRing(srv *service.Server, path, name string, logger *log.Logger) {
	srv.SetRingHook(func(info service.RingInfo) {
		raw, _ := json.Marshal(info)
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, raw, 0o644); err != nil {
			logger.Printf("persisting ring: %v", err)
			return
		}
		if err := os.Rename(tmp, path); err != nil {
			logger.Printf("persisting ring: %v", err)
		}
	})
	raw, err := os.ReadFile(path)
	if err != nil {
		return
	}
	var info service.RingInfo
	if err := json.Unmarshal(raw, &info); err != nil {
		return
	}
	if err := srv.InstallRing(info); err != nil {
		logger.Printf("%s: persisted ring rejected: %v", name, err)
		return
	}
	logger.Printf("%s: recovered ring epoch %d (%s, %d shards)", name, info.Epoch, info.Mode, len(info.Names))
}

// joinAttemptTimeout bounds one POST /cluster/join. The router answers a
// join only after pushing the new ring to every shard, which it allows 3s,
// so the bound sits well above that. Without a bound, a router that
// accepts the connection and then stalls parks the join loop for good:
// neither the retry nor the periodic re-assert would ever run again.
const joinAttemptTimeout = 10 * time.Second

// joinLoop registers the shard with the router: retry each second until
// the first ack (the router may start after us), then re-assert every 30s
// so a restarted router — whose membership table is in-memory — relearns
// us without operator action. A SIGKILL here is safe: the router's prober
// marks us dead but keeps us on the ring, so a restart resumes the same
// slice. Each attempt gives up after attempt.
func joinLoop(ctx context.Context, routerURL, name, advertise string, attempt time.Duration, logger *log.Logger) {
	body, _ := json.Marshal(map[string]string{"name": name, "url": advertise})
	joined := false
	for {
		err := postJoin(ctx, routerURL+"/cluster/join", body, attempt)
		switch {
		case err == nil && !joined:
			joined = true
			logger.Printf("%s: joined cluster at %s (advertising %s)", name, routerURL, advertise)
		case err != nil && !joined:
			logger.Printf("%s: join %s: %v (retrying)", name, routerURL, err)
		}
		wait := 30 * time.Second
		if !joined {
			wait = time.Second
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(wait):
		}
	}
}

// postJoin makes one join attempt, abandoned after timeout; any answer
// but 200 is an error.
func postJoin(ctx context.Context, url string, body []byte, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("router answered %s", resp.Status)
	}
	return nil
}

// loopbackAddr rewrites a wildcard bind address (0.0.0.0, ::, or empty
// host) to the loopback address peers on the same machine can dial. The
// default deployment is single-machine loopback; crossing machines
// requires an explicit -advertise (see README: the cluster protocol
// carries no TLS or auth of its own).
func loopbackAddr(bound string) string {
	host, port, err := net.SplitHostPort(bound)
	if err != nil {
		return bound
	}
	switch host {
	case "", "0.0.0.0", "::", "[::]":
		return net.JoinHostPort("127.0.0.1", port)
	}
	return bound
}

// routerProcParams carries the parsed flags into -role router mode.
type routerProcParams struct {
	addr           string
	peers          string
	quorum         float64
	hedgeAfter     time.Duration
	queryTimeout   time.Duration
	migrateTimeout time.Duration
	httpTimeouts   httpTimeouts
}

// runRouterProc boots the routing tier as its own process: no local
// shard-cores, membership fed by -peers seeds and by shards registering
// through POST /cluster/join. Named peers (name=url) are seeded
// synchronously; bare URLs are resolved in the background by asking each
// shard's /stats for its name, retrying until the shard appears.
func runRouterProc(ctx context.Context, p routerProcParams, logger *log.Logger, ready func(addr string)) error {
	var seeds []router.ShardSpec
	var unnamed []string
	for _, entry := range strings.Split(p.peers, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		if name, url, ok := strings.Cut(entry, "="); ok && !strings.Contains(name, "/") {
			seeds = append(seeds, router.ShardSpec{Name: name, URL: url})
		} else {
			unnamed = append(unnamed, entry)
		}
	}
	rt, err := router.New(router.Config{
		Shards:         seeds,
		Quorum:         p.quorum,
		QueryTimeout:   p.queryTimeout,
		HedgeAfter:     p.hedgeAfter,
		MigrateTimeout: p.migrateTimeout,
		Metrics:        obs.NewRegistry(),
		Logf:           logger.Printf,
	})
	if err != nil {
		return err
	}
	for _, url := range unnamed {
		go func(url string) {
			for {
				if name, err := resolveShardName(ctx, url); err == nil {
					rt.Join(ctx, name, url)
					return
				} else if ctx.Err() != nil {
					return
				} else {
					logger.Printf("router: resolving peer %s: %v (retrying)", url, err)
				}
				select {
				case <-ctx.Done():
					return
				case <-time.After(time.Second):
				}
			}
		}(url)
	}

	ln, err := net.Listen("tcp", p.addr)
	if err != nil {
		rt.Close()
		return err
	}
	front := p.httpTimeouts.server(rt.Handler())
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := front.Shutdown(shutdownCtx); err != nil {
			logger.Printf("router shutdown: %v", err)
		}
	}()

	logger.Printf("knnserver router listening on %s (%d named seeds, %d unnamed peers, quorum %g)",
		ln.Addr(), len(seeds), len(unnamed), p.quorum)
	if ready != nil {
		ready(ln.Addr().String())
	}
	serveErr := front.Serve(ln)
	rt.Close()
	if serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
		return serveErr
	}
	return nil
}

// resolveShardName asks a shard process who it is via GET /stats.
func resolveShardName(ctx context.Context, baseURL string) (string, error) {
	rctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, baseURL+"/stats", nil)
	if err != nil {
		return "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var st struct {
		Shard string `json:"shard"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&st); err != nil {
		return "", fmt.Errorf("decoding /stats: %w", err)
	}
	if st.Shard == "" {
		return "", fmt.Errorf("peer %s reports no shard name (is it running -role shard with -name?)", baseURL)
	}
	return st.Shard, nil
}
