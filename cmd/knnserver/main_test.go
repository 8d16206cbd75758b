package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"goldfinger/internal/core"
	"goldfinger/internal/profile"
)

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-bits", "0"},
		{"-bits", "-5"},
		{"-build-timeout", "banana"},
		{"-build-timeout", "-1s"},
		{"-read-timeout", "-1s"},
		{"-write-timeout", "-1ms"},
		{"-idle-timeout", "-2m"},
		{"-max-header-bytes", "-1"},
		{"-max-inflight-queries", "-4"},
		{"-query-timeout", "-5s"},
		{"-rate-limit", "-100"},
		{"-quorum", "0"},
		{"-quorum", "1.5"},
		{"-quorum", "-0.5"},
		{"-nosuchflag"},
		{"stray-positional"},
		{"-role", "bogus"},
		{"-role", "shard"},                               // missing -name
		{"-role", "shard", "-name", "s0", "-peers", "x"}, // -peers is a router flag
		{"-role", "router", "-data-dir", "/tmp/x"},       // router holds no data
		{"-role", "router", "-join", "http://x"},         // -join is a shard flag
		{"-name", "s0"},                                  // role flags without -role
		{"-migrate-timeout", "-1s"},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		err := run(ctx, args, io.Discard, nil)
		cancel()
		if err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunRejectsUnlistenableAddr(t *testing.T) {
	if err := run(context.Background(), []string{"-addr", "256.0.0.1:bad"}, io.Discard, nil); err == nil {
		t.Error("bogus listen address accepted")
	}
}

// TestRunServesAndShutsDown is the startup/shutdown smoke test: the server
// must come up on an ephemeral port with the -build-timeout flag applied,
// answer the health, stats and metrics endpoints, and exit cleanly when the
// context is canceled.
func TestRunServesAndShutsDown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	addrCh := make(chan string, 1)
	errCh := make(chan error, 1)
	var logs bytes.Buffer
	go func() {
		errCh <- run(ctx, []string{"-addr", "127.0.0.1:0", "-bits", "256", "-build-timeout", "30s"}, &logs, func(addr string) {
			addrCh <- addr
		})
	}()

	var addr string
	select {
	case addr = <-addrCh:
	case err := <-errCh:
		t.Fatalf("run exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server did not become ready")
	}

	for _, path := range []string{"/healthz", "/stats", "/metrics"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if path != "/healthz" {
			var v map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
				t.Errorf("GET %s: invalid JSON: %v", path, err)
			}
		}
		resp.Body.Close()
	}

	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("run returned %v on graceful shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}

	if !bytes.Contains(logs.Bytes(), []byte("build timeout: 30s")) {
		t.Errorf("startup log did not record the build timeout: %q", logs.String())
	}
}

// TestRunHardenedServerServes boots with every hardening and admission
// flag set to a tight-but-workable value and checks the server still
// answers; it also checks the admission snapshot shows the configured
// query limit and that a client-set X-Request-Timeout is honored.
func TestRunHardenedServerServes(t *testing.T) {
	var logs bytes.Buffer
	addr, shutdown := startServer(t, &logs,
		"-read-timeout", "10s", "-write-timeout", "10s", "-idle-timeout", "30s",
		"-max-header-bytes", "8192",
		"-max-inflight-queries", "2", "-query-timeout", "3s", "-rate-limit", "1000")
	defer shutdown()

	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get("http://" + addr + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Admission map[string]struct {
			MaxInflight int `json:"max_inflight"`
		} `json:"admission"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := st.Admission["query"].MaxInflight; got != 2 {
		t.Errorf("query max_inflight = %d, want 2 from -max-inflight-queries", got)
	}

	// An oversized header must be refused by MaxHeaderBytes, not served.
	req, _ := http.NewRequest(http.MethodGet, "http://"+addr+"/healthz", nil)
	req.Header.Set("X-Padding", strings.Repeat("a", 16<<10))
	if resp, err := client.Do(req); err == nil {
		if resp.StatusCode == http.StatusOK {
			t.Error("16KiB header accepted despite -max-header-bytes 8192")
		}
		resp.Body.Close()
	}

	// A bad client timeout is a 400, and a generous one passes through.
	req, _ = http.NewRequest(http.MethodGet, "http://"+addr+"/stats", nil)
	req.Header.Set("X-Request-Timeout", "never")
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad X-Request-Timeout: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestRunBuildsCluster checks, at the binary boundary, that a build with no
// parameters runs Cluster-and-Conquer: the one builder the server has.
func TestRunBuildsCluster(t *testing.T) {
	var logs bytes.Buffer
	addr, shutdown := startServer(t, &logs)
	defer shutdown()

	scheme := core.MustScheme(256, 7)
	client := &http.Client{Timeout: 10 * time.Second}
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		p := profile.New(profile.ItemID(i*3+1), profile.ItemID(i*3+2), profile.ItemID(i*3+3), 1000)
		if err := core.WriteFingerprint(&buf, scheme.Fingerprint(p)); err != nil {
			t.Fatal(err)
		}
		req, _ := http.NewRequest(http.MethodPut,
			fmt.Sprintf("http://%s/users/u%d/fingerprint", addr, i), &buf)
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("upload %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp, err := client.Post("http://"+addr+"/graph/build?k=3", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster build status %d", resp.StatusCode)
	}
	var br struct {
		Algorithm string `json:"algorithm"`
		Users     int    `json:"users"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if br.Algorithm != "cluster" || br.Users != 20 {
		t.Fatalf("build result %+v", br)
	}
}

func TestRunRejectsBadFsyncPolicy(t *testing.T) {
	dir := t.TempDir()
	if err := run(context.Background(), []string{"-data-dir", dir, "-fsync", "sometimes"}, io.Discard, nil); err == nil {
		t.Error("bogus -fsync policy accepted")
	}
}

// startServer boots run() with the given extra flags and returns the bound
// address plus a shutdown func that waits for a clean exit.
func startServer(t *testing.T, logs io.Writer, extra ...string) (string, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan string, 1)
	errCh := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0", "-bits", "256"}, extra...)
	go func() { errCh <- run(ctx, args, logs, func(addr string) { addrCh <- addr }) }()
	var addr string
	select {
	case addr = <-addrCh:
	case err := <-errCh:
		cancel()
		t.Fatalf("run exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		cancel()
		t.Fatal("server did not become ready")
	}
	return addr, func() {
		cancel()
		select {
		case err := <-errCh:
			if err != nil {
				t.Fatalf("run returned %v on shutdown", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("server did not shut down")
		}
	}
}

// TestRunRestartRecoversState is the end-to-end durability test at the
// binary boundary: upload fingerprints and build against a -data-dir
// server, shut it down, start a second server on the same dir, and the
// users, the graph epoch and the neighbor lists must all be back.
func TestRunRestartRecoversState(t *testing.T) {
	dir := t.TempDir()
	scheme := core.MustScheme(256, 7)
	const n = 8

	var logs1 bytes.Buffer
	addr, shutdown := startServer(t, &logs1, "-data-dir", dir, "-fsync", "always")
	client := &http.Client{Timeout: 10 * time.Second}
	for i := 0; i < n; i++ {
		var buf bytes.Buffer
		p := profile.New(profile.ItemID(i*3+1), profile.ItemID(i*3+2), profile.ItemID(i*3+3), 1000)
		if err := core.WriteFingerprint(&buf, scheme.Fingerprint(p)); err != nil {
			t.Fatal(err)
		}
		req, _ := http.NewRequest(http.MethodPut,
			fmt.Sprintf("http://%s/users/u%d/fingerprint", addr, i), &buf)
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("upload %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp, err := client.Post("http://"+addr+"/graph/build?k=3", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("build status %d", resp.StatusCode)
	}
	resp.Body.Close()
	shutdown()

	var logs2 bytes.Buffer
	addr2, shutdown2 := startServer(t, &logs2, "-data-dir", dir)
	defer shutdown2()
	if !bytes.Contains(logs2.Bytes(), []byte(fmt.Sprintf("recovered %d users", n))) {
		t.Errorf("restart log did not report recovery: %q", logs2.String())
	}
	sresp, err := client.Get("http://" + addr2 + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st map[string]any
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if users, _ := st["users"].(float64); int(users) != n {
		t.Fatalf("restarted /stats users = %v, want %d", st["users"], n)
	}
	if built, _ := st["graph_built"].(bool); !built {
		t.Fatalf("restarted /stats graph_built = %v, want true", st["graph_built"])
	}
	if stale, ok := st["graph_stale"].(bool); ok && stale {
		t.Fatal("restarted /stats reports graph_stale: recovered epoch must match recovered state")
	}
	for i := 0; i < n; i++ {
		nresp, err := client.Get(fmt.Sprintf("http://%s/users/u%d/neighbors", addr2, i))
		if err != nil {
			t.Fatal(err)
		}
		if nresp.StatusCode != http.StatusOK {
			t.Fatalf("neighbors of u%d after restart: status %d", i, nresp.StatusCode)
		}
		var nbrs []map[string]any
		if err := json.NewDecoder(nresp.Body).Decode(&nbrs); err != nil {
			t.Fatal(err)
		}
		nresp.Body.Close()
		if len(nbrs) != 3 {
			t.Fatalf("neighbors of u%d after restart: %d entries, want 3", i, len(nbrs))
		}
	}
}

// uploadUser PUTs one deterministic fingerprint for the given user id.
func uploadUser(t *testing.T, client *http.Client, addr string, scheme *core.Scheme, id string, salt int) {
	t.Helper()
	var buf bytes.Buffer
	p := profile.New(profile.ItemID(salt*3+1), profile.ItemID(salt*5+2), profile.ItemID(salt*7+3), profile.ItemID(salt+1000))
	if err := core.WriteFingerprint(&buf, scheme.Fingerprint(p)); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPut,
		fmt.Sprintf("http://%s/users/%s/fingerprint", addr, id), &buf)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("upload %s: status %d", id, resp.StatusCode)
	}
	resp.Body.Close()
}

// startProc boots run() with the given args in a goroutine and returns the
// bound address. The process shuts down when ctx is canceled.
func startProc(t *testing.T, ctx context.Context, args ...string) string {
	t.Helper()
	addrCh := make(chan string, 1)
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(ctx, args, io.Discard, func(addr string) { addrCh <- addr })
	}()
	select {
	case addr := <-addrCh:
		return addr
	case err := <-errCh:
		t.Fatalf("run %v exited before ready: %v", args, err)
	case <-time.After(10 * time.Second):
		t.Fatalf("run %v did not become ready", args)
	}
	return ""
}

// getJSON decodes the JSON body of a GET into v.
func getJSON(t *testing.T, client *http.Client, url string, v any) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// startCluster boots one -role router and a -role shard per name
// (in-process, but wired only over loopback HTTP exactly as separate OS
// processes would be), and waits until every shard has self-registered,
// the router's ring is stable over all of them, and every shard holds that
// ring. It returns the router's address and the shards' URLs. Everything
// shuts down when ctx is canceled.
func startCluster(t *testing.T, ctx context.Context, client *http.Client, names ...string) (string, []string) {
	t.Helper()
	routerAddr := startProc(t, ctx, "-role", "router", "-addr", "127.0.0.1:0")
	routerURL := "http://" + routerAddr
	var shardURLs []string
	for _, name := range names {
		shardURLs = append(shardURLs, "http://"+startProc(t, ctx, "-role", "shard", "-name", name,
			"-addr", "127.0.0.1:0", "-bits", "256", "-join", routerURL))
	}

	deadline := time.Now().Add(15 * time.Second)
	for {
		var cv struct {
			RingEpoch uint64   `json:"ring_epoch"`
			RingMode  string   `json:"ring_mode"`
			RingNames []string `json:"ring_names"`
		}
		getJSON(t, client, routerURL+"/cluster", &cv)
		settled := len(cv.RingNames) == len(names) && cv.RingMode == "stable"
		for _, u := range shardURLs {
			var st struct {
				RingEpoch uint64 `json:"ring_epoch"`
				RingMode  string `json:"ring_mode"`
			}
			getJSON(t, client, u+"/stats", &st)
			settled = settled && st.RingEpoch == cv.RingEpoch && st.RingMode == "stable"
		}
		if settled {
			return routerAddr, shardURLs
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster did not settle: ring %v mode %s", cv.RingNames, cv.RingMode)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestRoleShardAndRouter checks the -role wiring: two shards started with
// -join register themselves, the ring settles on the router and on both
// shards, and a user uploaded through the router is found again through it.
func TestRoleShardAndRouter(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	client := &http.Client{Timeout: 10 * time.Second}
	routerAddr, _ := startCluster(t, ctx, client, "shard-0", "shard-1")

	uploadUser(t, client, routerAddr, core.MustScheme(256, 7), "alice", 1)
	resp, err := client.Get("http://" + routerAddr + "/users/alice/neighbors")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		t.Fatal("user vanished behind the router")
	}
}

// TestRunShardedServes drives the sharded contract through a router in
// front of three -role shard processes: uploads route to their owners, the
// build fans out to every shard, /query scatter-gathers with full coverage
// and merges in order, /stats carries the shards section, and a shard asked
// directly about a user it does not own answers 421.
func TestRunShardedServes(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	client := &http.Client{Timeout: 10 * time.Second}
	routerAddr, _ := startCluster(t, ctx, client, "shard-0", "shard-1", "shard-2")
	routerURL := "http://" + routerAddr

	scheme := core.MustScheme(256, 7)
	const n = 30
	for i := 0; i < n; i++ {
		uploadUser(t, client, routerAddr, scheme, fmt.Sprintf("u%d", i), i)
	}

	// A builder the shards do not run is the client's error, through the
	// router as on one node.
	resp, err := client.Post(routerURL+"/graph/build?k=3&algo=hyrec", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "cluster") {
		t.Fatalf("algo=hyrec through the router: status %d: %s, want 400 naming cluster", resp.StatusCode, body)
	}

	resp, err = client.Post(routerURL+"/graph/build?k=3", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("fan-out build status %d: %s", resp.StatusCode, body)
	}
	var build struct {
		Built int `json:"built"`
		Total int `json:"total"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&build); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if build.Built != 3 || build.Total != 3 {
		t.Fatalf("build aggregate %+v, want 3/3", build)
	}

	// Scatter-gather query: full coverage, merged top-k.
	var qbuf bytes.Buffer
	if err := core.WriteFingerprint(&qbuf, scheme.Fingerprint(profile.New(4, 12, 24, 1003))); err != nil {
		t.Fatal(err)
	}
	qresp, err := client.Post(routerURL+"/query?k=5", "application/octet-stream", &qbuf)
	if err != nil {
		t.Fatal(err)
	}
	if qresp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(qresp.Body)
		t.Fatalf("query status %d: %s", qresp.StatusCode, body)
	}
	if got := qresp.Header.Get("X-Partial-Results"); got != "3/3" {
		t.Errorf("X-Partial-Results = %q, want 3/3", got)
	}
	var hits []struct {
		User       string  `json:"user"`
		Similarity float64 `json:"similarity"`
	}
	if err := json.NewDecoder(qresp.Body).Decode(&hits); err != nil {
		t.Fatal(err)
	}
	qresp.Body.Close()
	if len(hits) != 5 {
		t.Fatalf("query returned %d hits, want 5", len(hits))
	}
	for i := 1; i < len(hits); i++ {
		if hits[i-1].Similarity < hits[i].Similarity {
			t.Fatalf("hits out of order at %d: %v", i, hits)
		}
	}

	// Neighbors read routes to the owner and answers like a single node.
	nresp, err := client.Get(routerURL + "/users/u0/neighbors")
	if err != nil {
		t.Fatal(err)
	}
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusOK {
		t.Fatalf("neighbors via router: status %d", nresp.StatusCode)
	}

	// /stats: router view with the shards section; user counts sum to n.
	var st struct {
		Router bool `json:"router"`
		Shards []struct {
			Name  string `json:"name"`
			URL   string `json:"url"`
			State string `json:"state"`
			Users int    `json:"users"`
		} `json:"shards"`
	}
	getJSON(t, client, routerURL+"/stats", &st)
	if !st.Router || len(st.Shards) != 3 {
		t.Fatalf("router stats %+v, want router=true with 3 shards", st)
	}
	total := 0
	for _, sh := range st.Shards {
		if sh.State != "healthy" {
			t.Errorf("shard %s state %q, want healthy", sh.Name, sh.State)
		}
		total += sh.Users
	}
	if total != n {
		t.Errorf("shard user counts sum to %d, want %d", total, n)
	}

	// Misdirected request: hit a shard directly with a user it does not
	// own — it must refuse with 421 and name the owner, not accept a write
	// the router would never find again.
	misdirected := false
	for i := 0; i < n && !misdirected; i++ {
		id := fmt.Sprintf("u%d", i)
		for _, sh := range st.Shards {
			var buf bytes.Buffer
			if err := core.WriteFingerprint(&buf, scheme.Fingerprint(profile.New(1, 2, 3))); err != nil {
				t.Fatal(err)
			}
			req, _ := http.NewRequest(http.MethodPut, sh.URL+"/users/"+id+"/fingerprint", &buf)
			dresp, err := client.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			dresp.Body.Close()
			if dresp.StatusCode == http.StatusMisdirectedRequest {
				if owner := dresp.Header.Get("X-Owner-Shard"); owner == "" || owner == sh.Name {
					t.Errorf("421 from %s for %s names owner %q", sh.Name, id, owner)
				}
				misdirected = true
				break
			}
		}
	}
	if !misdirected {
		t.Error("no shard answered 421 for a misrouted id; ownership is not enforced")
	}

	hresp, err := client.Get(routerURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d, want 200", hresp.StatusCode)
	}
}

// TestRoleShardRestartRecovers checks a shard process's durability at the
// binary boundary: the users uploaded to a -role shard -data-dir process
// and the ring it was pushed come back when it restarts under the same
// name and dir, and the recovered ring is enforced before any router
// re-pushes it.
func TestRoleShardRestartRecovers(t *testing.T) {
	dir := t.TempDir()
	scheme := core.MustScheme(256, 7)
	client := &http.Client{Timeout: 10 * time.Second}
	const n = 12
	shard := []string{"-role", "shard", "-name", "shard-0", "-data-dir", dir, "-fsync", "none"}

	var logs1 bytes.Buffer
	addr, shutdown := startServer(t, &logs1, shard...)
	for i := 0; i < n; i++ {
		uploadUser(t, client, addr, scheme, fmt.Sprintf("u%d", i), i)
	}
	ring := `{"epoch":3,"mode":"stable","names":["shard-0","shard-1"]}`
	resp, err := client.Post("http://"+addr+"/ring", "application/json", strings.NewReader(ring))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /ring: status %d", resp.StatusCode)
	}
	shutdown()

	var logs2 bytes.Buffer
	addr2, shutdown2 := startServer(t, &logs2, shard...)
	defer shutdown2()
	for _, want := range []string{fmt.Sprintf("shard-0: recovered %d users", n), "shard-0: recovered ring epoch 3"} {
		if !strings.Contains(logs2.String(), want) {
			t.Errorf("restart log lacks %q:\n%s", want, logs2.String())
		}
	}
	var st struct {
		Shard     string `json:"shard"`
		Users     int    `json:"users"`
		RingEpoch uint64 `json:"ring_epoch"`
	}
	getJSON(t, client, "http://"+addr2+"/stats", &st)
	if st.Shard != "shard-0" || st.Users != n || st.RingEpoch != 3 {
		t.Fatalf("restarted shard /stats = %+v, want shard-0 with %d users at ring epoch 3", st, n)
	}
	for i := 0; ; i++ {
		if i == 100 {
			t.Fatal("restarted shard accepted 100 fresh ids; the recovered ring is not enforced")
		}
		var buf bytes.Buffer
		if err := core.WriteFingerprint(&buf, scheme.Fingerprint(profile.New(1, 2, 3))); err != nil {
			t.Fatal(err)
		}
		req, _ := http.NewRequest(http.MethodPut, fmt.Sprintf("http://%s/users/x%d/fingerprint", addr2, i), &buf)
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusMisdirectedRequest {
			if owner := resp.Header.Get("X-Owner-Shard"); owner != "shard-1" {
				t.Errorf("421 names owner %q, want shard-1", owner)
			}
			break
		}
	}
}

// syncBuffer is a bytes.Buffer safe for a logger writing from another
// goroutine while the test reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestJoinLoopOutlivesStalledRouter: a router that accepts the join and
// then never answers costs the shard one bounded attempt, not its join
// loop — the shard retries and joins once the router answers.
func TestJoinLoopOutlivesStalledRouter(t *testing.T) {
	if joinAttemptTimeout <= 3*time.Second {
		t.Fatalf("joinAttemptTimeout %s must exceed the router's 3s synchronous ring push", joinAttemptTimeout)
	}
	var joins atomic.Int32
	release := make(chan struct{})
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if joins.Add(1) == 1 {
			select { // stall the first join until the shard gives up on it
			case <-r.Context().Done():
			case <-release:
			}
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer stub.Close()
	defer close(release)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var logs syncBuffer
	done := make(chan struct{})
	go func() {
		defer close(done)
		joinLoop(ctx, stub.URL, "shard-0", "http://127.0.0.1:1", 200*time.Millisecond, log.New(&logs, "", 0))
	}()
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(logs.String(), "joined cluster") {
		if time.Now().After(deadline) {
			t.Fatalf("shard never joined after a stalled attempt; log:\n%s", logs.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	cancel()
	<-done
	if got := joins.Load(); got != 2 {
		t.Errorf("router saw %d joins, want the stalled one and the answered retry", got)
	}
	if !strings.Contains(logs.String(), "(retrying)") {
		t.Errorf("the abandoned attempt was not logged as a retry:\n%s", logs.String())
	}
}
