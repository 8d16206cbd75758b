package main

// Multi-process cluster chaos harness (make clustercheck): real knnserver
// shard PROCESSES — each built with -race, each with its own durable dir
// and WAL — behind an in-process router (so the new cluster machinery
// runs under this test binary's race detector). The harness then proves
// the PR's process-level contract:
//
//   - SIGKILL of 1 of 3 shard processes at 2× the healthy query load
//     loses zero acked mutations: after the process restarts from its
//     WAL and rejoins, every id whose PUT was acked with 204 answers
//     through the router (a 404 would be a lost write);
//   - every query during the outage window either answers 200 with
//     X-Partial-Results admitting the hole or fails the quorum with 503
//     — never a silent partial answer;
//   - after the rejoin, recall@10 returns to within 1% of the healthy
//     baseline;
//   - a fresh shard process joining mid-load triggers a live migration:
//     queries keep full coverage through the dual-read window (no
//     coverage hole), the moved slice lands on the new shard, per-shard
//     live-user counts still partition the corpus exactly (no user lost
//     or duplicated), and recall returns to within 1% of healthy;
//   - a SIGKILL of the gaining shard mid-import resumes after restart —
//     the import journal marks in its WAL surface the interrupted
//     transfer, the router's migration driver re-drives the pull, and
//     the final per-shard counts prove no loss and no duplication.
//
// `make clustercheck` records the measured run in BENCH_load.json under
// "cluster_chaos" and "migration" (-record); a plain `go test` records
// nothing.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"goldfinger/internal/core"
	"goldfinger/internal/knn"
	"goldfinger/internal/obs"
	"goldfinger/internal/profile"
	"goldfinger/internal/router"
)

// buildServerOnce builds the knnserver binary (race-enabled, so shard
// processes are race-checked too) exactly once per test run.
var buildServerOnce struct {
	sync.Once
	bin string
	err error
}

func serverBinary(t *testing.T) string {
	t.Helper()
	buildServerOnce.Do(func() {
		dir, err := os.MkdirTemp("", "knnserver-bin-")
		if err != nil {
			buildServerOnce.err = err
			return
		}
		bin := filepath.Join(dir, "knnserver")
		cmd := exec.Command("go", "build", "-race", "-o", bin, "goldfinger/cmd/knnserver")
		cmd.Dir = "../.."
		if out, err := cmd.CombinedOutput(); err != nil {
			buildServerOnce.err = fmt.Errorf("building knnserver: %v\n%s", err, out)
			return
		}
		buildServerOnce.bin = bin
	})
	if buildServerOnce.err != nil {
		t.Fatal(buildServerOnce.err)
	}
	return buildServerOnce.bin
}

// shardProc is one knnserver -role shard OS process.
type shardProc struct {
	name string
	dir  string
	url  string
	cmd  *exec.Cmd
}

// startShardProc execs a shard process and waits for its listen line.
// The process self-registers with the router at routerURL.
func startShardProc(t *testing.T, bin, name, dir, routerURL string, extra ...string) *shardProc {
	t.Helper()
	args := append([]string{
		"-role", "shard", "-name", name, "-addr", "127.0.0.1:0",
		"-bits", "256", "-data-dir", dir, "-fsync", "none", "-join", routerURL,
	}, extra...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", name, err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 && strings.Contains(line, "knnserver shard") {
				rest := line[i+len("listening on "):]
				if j := strings.IndexByte(rest, ' '); j > 0 {
					select {
					case addrCh <- rest[:j]:
					default:
					}
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		sp := &shardProc{name: name, dir: dir, url: "http://" + addr, cmd: cmd}
		t.Cleanup(func() { sp.kill() })
		return sp
	case <-time.After(20 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("%s did not report its listen address", name)
		return nil
	}
}

// kill SIGKILLs the process — no graceful shutdown, no WAL seal. Safe to
// call twice.
func (sp *shardProc) kill() {
	if sp.cmd.Process != nil {
		sp.cmd.Process.Kill()
	}
	sp.cmd.Wait()
}

func shardStats(t *testing.T, url string) (live int, ringMode, migPending string, importing bool) {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		return -1, "", "", false
	}
	defer resp.Body.Close()
	var st struct {
		Users            int    `json:"users"`
		DeletedUsers     int    `json:"deleted_users"`
		RingMode         string `json:"ring_mode"`
		MigrationPending string `json:"migration_pending"`
		Importing        bool   `json:"importing"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return -1, "", "", false
	}
	return st.Users - st.DeletedUsers, st.RingMode, st.MigrationPending, st.Importing
}

// clusterRing polls the router's /cluster view.
func clusterRing(t *testing.T, base string) (mode string, names []string) {
	t.Helper()
	resp, err := http.Get(base + "/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cv struct {
		RingMode  string   `json:"ring_mode"`
		RingNames []string `json:"ring_names"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cv); err != nil {
		t.Fatal(err)
	}
	return cv.RingMode, cv.RingNames
}

func waitForStableRing(t *testing.T, base string, nShards int, within time.Duration) time.Duration {
	t.Helper()
	start := time.Now()
	deadline := start.Add(within)
	for {
		mode, names := clusterRing(t, base)
		if mode == "stable" && len(names) == nShards {
			return time.Since(start)
		}
		if time.Now().After(deadline) {
			t.Fatalf("ring did not settle to %d shards stable within %v (at %s %v)", nShards, within, mode, names)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// startClusterRouter runs the routing tier in-process (race-checked by
// this test binary) with chaos-scale timings.
func startClusterRouter(t *testing.T) (*router.Router, string) {
	t.Helper()
	rt, err := router.New(router.Config{
		Quorum:       0.5,
		QueryTimeout: 800 * time.Millisecond,
		HedgeAfter:   25 * time.Millisecond,
		Retries:      1,
		RetryBase:    10 * time.Millisecond,
		Breaker: router.BreakerConfig{
			Window: 32, MinSamples: 4, ErrorRate: 0.5,
			ConsecutiveFails: 3, OpenFor: 500 * time.Millisecond,
			HalfOpenProbes: 1,
		},
		ProbeInterval:  100 * time.Millisecond,
		MigrateTimeout: 90 * time.Second,
		Metrics:        obs.NewRegistry(),
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	front := &http.Server{Handler: rt.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go front.Serve(ln)
	t.Cleanup(func() { front.Close() })
	return rt, "http://" + ln.Addr().String()
}

// clusterChaosJSON is the BENCH_load.json "cluster_chaos" section.
type clusterChaosJSON struct {
	Shards           int            `json:"shard_processes"`
	SeedUsers        int            `json:"seed_users"`
	Bits             int            `json:"bits"`
	K                int            `json:"k"`
	KilledShard      string         `json:"killed_shard"`
	Healthy          chaosPhaseJSON `json:"healthy"`
	Outage           chaosPhaseJSON `json:"outage"`
	Recovered        chaosPhaseJSON `json:"recovered"`
	AckedDuringKill  int            `json:"acked_mutations_during_outage"`
	LostAcked        int            `json:"lost_acked_mutations"`
	RejoinToHealthyS float64        `json:"rejoin_to_healthy_s"`
	MeasuredAt       string         `json:"measured_at"`
}

// migrationJSON is the BENCH_load.json "migration" section (satellite:
// knnload reports transfer duration, dual-read traffic, and recall
// through a live migration).
type migrationJSON struct {
	JoinedShard        string  `json:"joined_shard"`
	MovedUsers         int     `json:"moved_users"`
	TransferMS         float64 `json:"transfer_ms"`
	QueriesDuringDual  int     `json:"queries_during_dual_read"`
	RecallDuringMig    float64 `json:"recall_during_migration"`
	RecallAfterMig     float64 `json:"recall_after_migration"`
	RouterDualReads    int64   `json:"router_dual_reads"`
	RouterFencedWrites int64   `json:"router_fenced_writes"`
	RouterDrift        int64   `json:"router_placement_drift"`
	MeasuredAt         string  `json:"measured_at"`
}

// TestClusterProcessKillChaos is the acceptance test for the
// multi-process shard deployment (make clustercheck). See the file
// comment for the contract it proves.
func TestClusterProcessKillChaos(t *testing.T) {
	bits, k, fetchK := 256, 10, 20
	nUsers, nQuery := 600, 24
	if testing.Short() {
		nUsers, nQuery = 240, 12
	}
	bin := serverBinary(t)
	rt, base := startClusterRouter(t)
	_ = rt

	names := []string{"shard-0", "shard-1", "shard-2"}
	root := t.TempDir()
	procs := make(map[string]*shardProc, len(names))
	for _, name := range names {
		procs[name] = startShardProc(t, bin, name, filepath.Join(root, name), base)
	}
	waitForStableRing(t, base, len(names), 30*time.Second)

	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()

	// Seed through the router, exactly as clients would.
	rng := rand.New(rand.NewSource(314159))
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
	fpBlobs := make([][]byte, nUsers)
	put := func(id string, blob []byte) int {
		req, err := http.NewRequest(http.MethodPut, base+"/users/"+id+"/fingerprint", strings.NewReader(string(blob)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	for i := 0; i < nUsers; i++ {
		ids[i] = fmt.Sprintf("u-%04d", i)
		fps[i] = scheme.Fingerprint(mkProfile())
		var buf strings.Builder
		if err := core.WriteFingerprint(&buf, fps[i]); err != nil {
			t.Fatal(err)
		}
		fpBlobs[i] = []byte(buf.String())
		if status := put(ids[i], fpBlobs[i]); status != http.StatusNoContent {
			t.Fatalf("seed PUT %s: status %d", ids[i], status)
		}
	}

	// Exact ground truth over the seeded corpus. Queries fetch 2k hits and
	// score recall on seeded (u-*) ids only, so mutation-phase writes of
	// fresh m-* ids cannot contaminate the recall measurement.
	corpus, err := core.NewPackedCorpus(bits, fps)
	if err != nil {
		t.Fatal(err)
	}
	qblobs := make([][]byte, nQuery)
	truths := make([]map[string]bool, nQuery)
	for q := 0; q < nQuery; q++ {
		qfp := scheme.Fingerprint(mkProfile())
		var buf strings.Builder
		if err := core.WriteFingerprint(&buf, qfp); err != nil {
			t.Fatal(err)
		}
		qblobs[q] = []byte(buf.String())
		best := knn.TopKRange(nUsers, k, 0, func(lo, hi int, out []float64) {
			corpus.JaccardQueryInto(qfp, lo, hi, out)
		})
		truths[q] = make(map[string]bool, k)
		for _, b := range best {
			truths[q][ids[b.ID]] = true
		}
	}

	queryOnce := func(q int) (status int, partialHdr string, recall float64, ms float64, err error) {
		start := time.Now()
		resp, err := client.Post(
			fmt.Sprintf("%s/query?k=%d&mode=scan", base, fetchK),
			"application/octet-stream", strings.NewReader(string(qblobs[q])))
		if err != nil {
			return 0, "", 0, 0, err
		}
		defer resp.Body.Close()
		blob, _ := io.ReadAll(resp.Body)
		ms = float64(time.Since(start)) / float64(time.Millisecond)
		partialHdr = resp.Header.Get(router.HeaderPartialResults)
		if resp.StatusCode != http.StatusOK {
			return resp.StatusCode, partialHdr, 0, ms, nil
		}
		var hits []router.Hit
		if err := json.Unmarshal(blob, &hits); err != nil {
			return resp.StatusCode, partialHdr, 0, ms, fmt.Errorf("bad hits: %v", err)
		}
		got, seeded := 0, 0
		for _, h := range hits {
			if !strings.HasPrefix(h.User, "u-") {
				continue
			}
			if seeded++; seeded > k {
				break
			}
			if truths[q][h.User] {
				got++
			}
		}
		return resp.StatusCode, partialHdr, float64(got) / float64(k), ms, nil
	}

	runPhase := func(workers int, d time.Duration, until func() bool) *chaosPhase {
		ph := &chaosPhase{statuses: make(map[int]int), partials: make(map[string]int)}
		var next atomic.Int64
		stop := time.Now().Add(d)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(stop) && (until == nil || !until()) {
					q := int(next.Add(1)) % nQuery
					status, partialHdr, recall, ms, err := queryOnce(q)
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
						ph.recallSum += recall
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

	healthy := runPhase(3, 1200*time.Millisecond, nil)
	if healthy.ok200 < healthy.total*95/100 || healthy.transport > 0 {
		t.Fatalf("healthy phase not clean: %d/%d ok, %d transport, statuses %v",
			healthy.ok200, healthy.total, healthy.transport, healthy.statuses)
	}
	if healthy.recall() < 0.9 {
		t.Fatalf("healthy recall %.3f < 0.9", healthy.recall())
	}
	t.Logf("healthy: %d queries, recall %.3f, p99 %.2fms", healthy.total, healthy.recall(), healthy.p99())

	// ---- SIGKILL one shard process at 2× load, mutating as we go. ----
	victim := procs["shard-1"]
	victim.kill()
	t.Logf("SIGKILLed %s (pid was real OS process)", victim.name)

	var ackedMu sync.Mutex
	var acked []string
	mutStop := make(chan struct{})
	var mutWG sync.WaitGroup
	mutWG.Add(1)
	go func() {
		defer mutWG.Done()
		for i := 0; ; i++ {
			select {
			case <-mutStop:
				return
			default:
			}
			id := fmt.Sprintf("m-%04d", i)
			if put(id, fpBlobs[i%nUsers]) == http.StatusNoContent {
				ackedMu.Lock()
				acked = append(acked, id)
				ackedMu.Unlock()
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	outage := runPhase(6, 1500*time.Millisecond, nil)
	close(mutStop)
	mutWG.Wait()
	t.Logf("outage: %d queries (%d ok, %d partial, statuses %v, partials %v), recall %.3f; %d mutations acked",
		outage.total, outage.ok200, outage.partial, outage.statuses, outage.partials, outage.recall(), len(acked))

	// Every outage query must either answer 200 admitting the hole or
	// fail the quorum with 503 — nothing else.
	for status, n := range outage.statuses {
		if status != http.StatusServiceUnavailable {
			t.Errorf("%d outage queries answered %d; only 200+partial or quorum-503 are legal", n, status)
		}
	}
	wantPartial := fmt.Sprintf("%d/%d", len(names)-1, len(names))
	if outage.partials[wantPartial] < outage.ok200*9/10 {
		t.Errorf("only %d/%d outage 200s admitted %s coverage (saw %v)",
			outage.partials[wantPartial], outage.ok200, wantPartial, outage.partials)
	}
	if len(acked) == 0 {
		t.Fatal("no mutation was acked during the outage; the live majority must keep accepting writes")
	}

	// ---- Restart the victim from its WAL; it rejoins on a new port. ----
	rejoinStart := time.Now()
	procs[victim.name] = startShardProc(t, bin, victim.name, victim.dir, base)
	var rejoinIn time.Duration
	for {
		resp, err := client.Get(base + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st router.RouterStats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.ShardsHealthy == len(names) {
			rejoinIn = time.Since(rejoinStart)
			break
		}
		if time.Since(rejoinStart) > 20*time.Second {
			t.Fatalf("cluster did not return to %d healthy shards within 20s: %+v", len(names), st)
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Logf("rejoined to full health in %v", rejoinIn)

	// Zero lost acked mutations: every acked id (and every seeded id) must
	// answer through the router after the restart.
	lost := 0
	for _, id := range append(append([]string{}, ids...), acked...) {
		resp, err := client.Get(base + "/users/" + id + "/neighbors")
		if err != nil {
			t.Fatalf("read-back %s: %v", id, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			lost++
			t.Errorf("acked user %s is gone after the restart (404)", id)
		}
	}
	if lost > 0 {
		t.Fatalf("%d acked mutations lost to a SIGKILL", lost)
	}

	recovered := runPhase(3, 1200*time.Millisecond, nil)
	t.Logf("recovered: %d queries, recall %.3f", recovered.total, recovered.recall())
	if recovered.recall() < healthy.recall()-0.01 {
		t.Errorf("recovered recall %.3f more than 1%% below healthy %.3f", recovered.recall(), healthy.recall())
	}

	// ---- Fresh shard joins mid-load: live migration, dual-read window. ----
	migRate := 200
	if testing.Short() {
		migRate = 120
	}
	joinStart := time.Now()
	joined := startShardProc(t, bin, "shard-3", filepath.Join(root, "shard-3"), base,
		"-migrate-rate", fmt.Sprint(migRate))
	allNames := append(append([]string{}, names...), "shard-3")
	stableAt := func() bool {
		mode, rn := clusterRing(t, base)
		return mode == "stable" && len(rn) == len(allNames)
	}
	during := runPhase(2, 45*time.Second, stableAt)
	transfer := time.Since(joinStart)
	t.Logf("migration to shard-3: transfer %v; during-migration %d queries (%d ok, statuses %v), recall %.3f",
		transfer, during.total, during.ok200, during.statuses, during.recall())

	// Queries must never lose coverage through the dual-read window.
	if during.ok200 < during.total*98/100 {
		t.Errorf("only %d/%d queries answered 200 during the migration; dual-read must close the coverage hole",
			during.ok200, during.total)
	}
	if during.ok200 > 0 && during.recall() < healthy.recall()-0.02 {
		t.Errorf("recall during migration %.3f fell more than 2%% below healthy %.3f", during.recall(), healthy.recall())
	}

	// The moved slice must land on shard-3 and the per-shard live counts
	// must still partition the corpus exactly (retire is async cleanup —
	// poll until the duplicates are tombstoned).
	wantTotal := nUsers + len(acked)
	expectMoved := 0
	place := router.NewPlacement(allNames, 0)
	for _, id := range append(append([]string{}, ids...), acked...) {
		if place.OwnerName(allNames, id) == "shard-3" {
			expectMoved++
		}
	}
	procs["shard-3"] = joined
	deadline := time.Now().Add(10 * time.Second)
	for {
		total, on3 := 0, 0
		for name, sp := range procs {
			live, _, _, _ := shardStats(t, sp.url)
			if live < 0 {
				total = -1
				break
			}
			total += live
			if name == "shard-3" {
				on3 = live
			}
		}
		if total == wantTotal && on3 == expectMoved {
			t.Logf("post-migration split: %d users total, %d on shard-3 (expected %d)", total, on3, expectMoved)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("post-migration counts never settled: total %d (want %d), shard-3 %d (want %d)",
				total, wantTotal, on3, expectMoved)
		}
		time.Sleep(100 * time.Millisecond)
	}

	after := runPhase(3, 1200*time.Millisecond, nil)
	t.Logf("post-migration: %d queries, recall %.3f", after.total, after.recall())
	if after.recall() < healthy.recall()-0.01 {
		t.Errorf("post-migration recall %.3f more than 1%% below healthy %.3f", after.recall(), healthy.recall())
	}

	// Router-side migration counters for the BENCH record.
	resp, err := client.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var rst router.RouterStats
	if err := json.NewDecoder(resp.Body).Decode(&rst); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	mergeBenchSections(t, map[string]any{
		"cluster_chaos": clusterChaosJSON{
			Shards: len(names), SeedUsers: nUsers, Bits: bits, K: k,
			KilledShard: victim.name,
			Healthy:     phaseJSON(healthy), Outage: phaseJSON(outage), Recovered: phaseJSON(recovered),
			AckedDuringKill:  len(acked),
			LostAcked:        lost,
			RejoinToHealthyS: time.Since(rejoinStart).Seconds(),
			MeasuredAt:       time.Now().UTC().Format(time.RFC3339),
		},
		"migration": migrationJSON{
			JoinedShard: "shard-3", MovedUsers: expectMoved,
			TransferMS:        float64(transfer) / float64(time.Millisecond),
			QueriesDuringDual: during.total,
			RecallDuringMig:   during.recall(),
			RecallAfterMig:    after.recall(),
			RouterDualReads:   rst.DualReads, RouterFencedWrites: rst.FencedWrites,
			RouterDrift: rst.PlacementDrift,
			MeasuredAt:  time.Now().UTC().Format(time.RFC3339),
		},
	})
}

// TestClusterMigrationCrashResume SIGKILLs the gaining shard in the
// middle of a migration import and proves the transfer resumes after
// restart with no user lost or duplicated: the gainer's WAL carries the
// import-begin journal mark, the router's driver keeps re-driving the
// pull against the restarted process, and the idempotent re-import
// converges to exactly the expected split.
func TestClusterMigrationCrashResume(t *testing.T) {
	bits := 256
	nUsers := 200
	if testing.Short() {
		nUsers = 120
	}
	bin := serverBinary(t)
	_, base := startClusterRouter(t)
	root := t.TempDir()

	loser := startShardProc(t, bin, "shard-0", filepath.Join(root, "shard-0"), base)
	waitForStableRing(t, base, 1, 20*time.Second)

	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	scheme := core.MustScheme(bits, 7)
	ids := make([]string, nUsers)
	for i := range ids {
		ids[i] = fmt.Sprintf("user-%04d", i)
		var buf strings.Builder
		if err := core.WriteFingerprint(&buf, scheme.Fingerprint(profile.New(
			profile.ItemID(i*3+1), profile.ItemID(i*5+2), profile.ItemID(i*7+3)))); err != nil {
			t.Fatal(err)
		}
		req, _ := http.NewRequest(http.MethodPut, base+"/users/"+ids[i]+"/fingerprint", strings.NewReader(buf.String()))
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("seed %s: status %d", ids[i], resp.StatusCode)
		}
	}

	// The gainer imports at 40 users/s: a multi-second window in which to
	// land the SIGKILL mid-import.
	gainer := startShardProc(t, bin, "shard-1", filepath.Join(root, "shard-1"), base,
		"-migrate-rate", "40")

	killDeadline := time.Now().Add(30 * time.Second)
	for {
		if _, _, _, importing := shardStats(t, gainer.url); importing {
			break
		}
		if time.Now().After(killDeadline) {
			t.Fatal("gainer never reported an import in flight")
		}
		time.Sleep(15 * time.Millisecond)
	}
	gainer.kill()
	t.Log("SIGKILLed the gaining shard mid-import")

	// Restart it from the same durable dir (full import speed this time).
	// Its WAL surfaces the interrupted import; the router re-drives it.
	restarted := startShardProc(t, bin, "shard-1", gainer.dir, base)
	waitForStableRing(t, base, 2, 60*time.Second)

	names := []string{"shard-0", "shard-1"}
	place := router.NewPlacement(names, 0)
	wantMoved := 0
	for _, id := range ids {
		if place.OwnerName(names, id) == "shard-1" {
			wantMoved++
		}
	}
	// Retire is async cleanup after cutover; poll the split.
	deadline := time.Now().Add(15 * time.Second)
	for {
		liveA, _, _, _ := shardStats(t, loser.url)
		liveB, mode, pending, _ := shardStats(t, restarted.url)
		if liveA+liveB == nUsers && liveB == wantMoved && pending == "" && mode == "stable" {
			t.Logf("resumed migration converged: %d + %d users (moved %d), gainer stable with no pending import",
				liveA, liveB, wantMoved)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("resumed migration never converged: loser %d + gainer %d (want %d total, %d moved), mode %q pending %q",
				liveA, liveB, nUsers, wantMoved, mode, pending)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// No user lost: every id answers through the router.
	for _, id := range ids {
		resp, err := client.Get(base + "/users/" + id + "/neighbors")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			t.Errorf("user %s lost across the crashed migration", id)
		}
	}
}
