package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"goldfinger/internal/core"
	"goldfinger/internal/durable"
	"goldfinger/internal/router"
)

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func installRing(t *testing.T, ts *httptest.Server, info RingInfo) {
	t.Helper()
	resp := postJSON(t, ts.URL+"/ring", info)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ring install (epoch %d, %s): status %d", info.Epoch, info.Mode, resp.StatusCode)
	}
}

// newNamedShard is newDurableServer plus a shard name, also returning the
// underlying Server for direct inspection.
func newNamedShard(t *testing.T, dir, name string) (*httptest.Server, *Server, *core.Scheme) {
	t.Helper()
	st, rec, err := durable.Open(durable.Options{Dir: dir, FS: durable.OSFS{}, Fsync: durable.FsyncAlways, Logf: t.Logf})
	if err != nil {
		t.Fatalf("durable.Open(%s): %v", dir, err)
	}
	srv, err := NewServer(1024)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetShardName(name)
	if err := srv.UseStore(st, rec); err != nil {
		t.Fatalf("UseStore: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv, core.MustScheme(1024, 7)
}

// ownerUnder names the owner of id in a ring built from names, the same
// way both the shard and the router compute it.
func ownerUnder(names []string, id string) string {
	return router.NewPlacement(names, 0).OwnerName(names, id)
}

// TestRingMisrouteNamesOwner: with a ring installed, a request for an id
// owned elsewhere answers 421 and names the correct owner (the shard half
// of placement-drift reporting).
func TestRingMisrouteNamesOwner(t *testing.T) {
	srv, err := NewServer(1024)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetShardName("shard-0")
	if err := srv.InstallRing(RingInfo{Epoch: 1, Mode: RingStable, Names: []string{"shard-0", "shard-1"}}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	scheme := core.MustScheme(1024, 7)

	names := []string{"shard-0", "shard-1"}
	var mine, theirs string
	for i := 0; mine == "" || theirs == ""; i++ {
		id := userID(i)
		if ownerUnder(names, id) == "shard-0" {
			mine = id
		} else {
			theirs = id
		}
	}

	resp := putFingerprint(t, ts, scheme, mine, profileFor(1))
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("owned PUT: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp = putFingerprint(t, ts, scheme, theirs, profileFor(2))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("misrouted PUT: status %d, want 421", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderOwnerShard); got != "shard-1" {
		t.Fatalf("X-Owner-Shard = %q, want shard-1", got)
	}
	if got := resp.Header.Get(HeaderRingEpoch); got != "1" {
		t.Fatalf("X-Ring-Epoch = %q, want 1", got)
	}

	// An older-epoch install is refused with the current epoch named.
	resp = postJSON(t, ts.URL+"/ring", RingInfo{Epoch: 0, Mode: RingStable, Names: []string{"shard-0"}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale ring install: status %d, want 409", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderRingEpoch); got != "1" {
		t.Fatalf("conflict X-Ring-Epoch = %q, want 1", got)
	}

	// GET /ring reads the installed ring back.
	getResp, err := http.Get(ts.URL + "/ring")
	if err != nil {
		t.Fatal(err)
	}
	defer getResp.Body.Close()
	var info RingInfo
	if err := json.NewDecoder(getResp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Epoch != 1 || info.Mode != RingStable || len(info.Names) != 2 {
		t.Fatalf("GET /ring = %+v", info)
	}
}

// TestMigrationRoundTrip drives the full shard-side protocol between two
// durable servers: transition install, pull-import (twice, to prove
// idempotence), cutover, retire. Every user must end up on exactly one
// shard — none lost, none duplicated, none kept by the loser.
func TestMigrationRoundTrip(t *testing.T) {
	const n = 40
	oldNames := []string{"shard-0"}
	newNames := []string{"shard-0", "shard-1"}

	tsA, _, scheme := newNamedShard(t, t.TempDir(), "shard-0")
	tsB, _, _ := newNamedShard(t, t.TempDir(), "shard-1")

	installRing(t, tsA, RingInfo{Epoch: 1, Mode: RingStable, Names: oldNames})
	var moved, kept []string
	for i := 0; i < n; i++ {
		id := userID(i)
		resp := putFingerprint(t, tsA, scheme, id, profileFor(i))
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("seed PUT %s: status %d", id, resp.StatusCode)
		}
		resp.Body.Close()
		if ownerUnder(newNames, id) == "shard-1" {
			moved = append(moved, id)
		} else {
			kept = append(kept, id)
		}
	}
	if len(moved) == 0 || len(kept) == 0 {
		t.Fatalf("degenerate split: %d moved, %d kept", len(moved), len(kept))
	}

	// Retire ahead of cutover must be refused: the loser is still the
	// owner of record under the stable epoch-1 ring.
	resp := postJSON(t, tsA.URL+"/migrate/retire", migrateRetireRequest{Epoch: 2})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("premature retire: status %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()

	// 1. Transition install on both shards.
	trans := RingInfo{Epoch: 2, Mode: RingTransition, Names: newNames, PrevNames: oldNames}
	installRing(t, tsA, trans)
	installRing(t, tsB, trans)

	// During transition the loser still accepts moved ids (dual-ownership).
	status, _ := getNeighborList(t, tsA, moved[0])
	if status == http.StatusMisdirectedRequest {
		t.Fatal("loser rejected a moved id during transition")
	}

	// 2. Import on the gainer. Run it twice: the second pass re-applies
	// the same frozen stream and must not duplicate anyone.
	for pass := 1; pass <= 2; pass++ {
		resp := postJSON(t, tsB.URL+"/migrate/import", migrateImportRequest{Epoch: 2, From: "shard-0", FromURL: tsA.URL})
		var out struct {
			Imported int `json:"imported"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || out.Imported != len(moved) {
			t.Fatalf("import pass %d: status %d, imported %d, want %d", pass, resp.StatusCode, out.Imported, len(moved))
		}
		if got := getStats(t, tsB).Users; got != len(moved) {
			t.Fatalf("gainer users after import pass %d = %d, want %d", pass, got, len(moved))
		}
	}

	// An import against the wrong epoch is refused.
	resp = postJSON(t, tsB.URL+"/migrate/import", migrateImportRequest{Epoch: 9, From: "shard-0", FromURL: tsA.URL})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("wrong-epoch import: status %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()

	// 3. Cutover: the same epoch flips to stable on both shards.
	stable := RingInfo{Epoch: 2, Mode: RingStable, Names: newNames}
	installRing(t, tsA, stable)
	installRing(t, tsB, stable)

	// Importing after cutover must be refused: the gainer may have taken
	// fresh writes that an old export stream must never overwrite.
	resp = postJSON(t, tsB.URL+"/migrate/import", migrateImportRequest{Epoch: 2, From: "shard-0", FromURL: tsA.URL})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("post-cutover import: status %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()

	// 4. Retire: the loser tombstones exactly the moved users.
	resp = postJSON(t, tsA.URL+"/migrate/retire", migrateRetireRequest{Epoch: 2})
	var ret struct {
		Retired int `json:"retired"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ret); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ret.Retired != len(moved) {
		t.Fatalf("retire: status %d, retired %d, want %d", resp.StatusCode, ret.Retired, len(moved))
	}

	// Every user lives on exactly its new owner; the loser 421s moved ids
	// and names the gainer. (Stats.Users counts table entries including
	// tombstones; live = Users - DeletedUsers.)
	stA := getStats(t, tsA)
	if live := stA.Users - stA.DeletedUsers; live != len(kept) {
		t.Fatalf("loser live users after retire = %d, want %d", live, len(kept))
	}
	stB := getStats(t, tsB)
	if live := stB.Users - stB.DeletedUsers; live != len(moved) {
		t.Fatalf("gainer live users after retire = %d, want %d", live, len(moved))
	}
	status, _ = getNeighborList(t, tsA, moved[0])
	if status != http.StatusMisdirectedRequest {
		t.Fatalf("loser after cutover: status %d, want 421", status)
	}

	// A repeat retire is idempotent.
	resp = postJSON(t, tsA.URL+"/migrate/retire", migrateRetireRequest{Epoch: 2})
	if err := json.NewDecoder(resp.Body).Decode(&ret); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ret.Retired != 0 {
		t.Fatalf("second retire tombstoned %d users", ret.Retired)
	}
}

// TestMigrationCrashResumeSurfaced: a WAL holding an unmatched
// import-begin mark (a gainer killed mid-stream) must surface the pending
// migration at recovery, in both the Recovery struct and /stats; a later
// completed import clears it durably.
func TestMigrationCrashResumeSurfaced(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()

	st, _, err := durable.Open(durable.Options{Dir: dirB, FS: durable.OSFS{}, Fsync: durable.FsyncAlways, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	// A process that journaled the begin mark and was killed mid-stream.
	// The store handle is abandoned without Close: SIGKILL-equivalent.
	if err := st.Append(durable.Record{Kind: durable.KindMigration, MutSeq: 0,
		Mig: &durable.MigrationMark{Phase: durable.MigImportBegin, Epoch: 2, Peer: "shard-0"}}); err != nil {
		t.Fatal(err)
	}

	tsB, srvB, _ := newNamedShard(t, dirB, "shard-1")
	stats := getStats(t, tsB)
	if stats.MigrationPending != "epoch=2 from=shard-0" {
		t.Fatalf("stats.MigrationPending = %q", stats.MigrationPending)
	}
	if srvB.Metrics().Counter(metricMigResumed).Value() != 1 {
		t.Fatal("resumed-migration counter not incremented at recovery")
	}

	// The driver's retry: seed a loser, install the transition ring on
	// both, re-run the import to completion.
	tsA, _, scheme := newNamedShard(t, dirA, "shard-0")
	installRing(t, tsA, RingInfo{Epoch: 1, Mode: RingStable, Names: []string{"shard-0"}})
	newNames := []string{"shard-0", "shard-1"}
	seeded := 0
	for i := 0; seeded < 12; i++ {
		id := userID(i)
		if ownerUnder(newNames, id) != "shard-1" {
			continue
		}
		resp := putFingerprint(t, tsA, scheme, id, profileFor(i))
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("seed PUT %s: status %d", id, resp.StatusCode)
		}
		resp.Body.Close()
		seeded++
	}
	trans := RingInfo{Epoch: 2, Mode: RingTransition, Names: newNames, PrevNames: []string{"shard-0"}}
	installRing(t, tsA, trans)
	installRing(t, tsB, trans)
	resp := postJSON(t, tsB.URL+"/migrate/import", migrateImportRequest{Epoch: 2, From: "shard-0", FromURL: tsA.URL})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resumed import: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	if got := getStats(t, tsB).MigrationPending; got != "" {
		t.Fatalf("MigrationPending after completed import = %q, want empty", got)
	}

	// Restart the gainer: recovery must see the matched begin/done pair
	// and report nothing pending — and all imported users survive.
	tsB.Close()
	st2, rec2, err := durable.Open(durable.Options{Dir: dirB, FS: durable.OSFS{}, Fsync: durable.FsyncAlways, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rec2.Migration != nil {
		t.Fatalf("recovery after completed import = %+v, want nil", rec2.Migration)
	}
	if got := len(rec2.State.Users); got != seeded {
		t.Fatalf("recovered %d users, want %d", got, seeded)
	}
}

// TestMigrationImportRefusesCorruptExport: the export is a sealed state
// snapshot, so a bit flipped in transit — here in a moving user's id —
// fails the pull with 502 and nothing is applied; the driver retries.
func TestMigrationImportRefusesCorruptExport(t *testing.T) {
	tsB, _, scheme := newNamedShard(t, t.TempDir(), "shard-1")
	installRing(t, tsB, RingInfo{Epoch: 2, Mode: RingTransition, Names: []string{"shard-0", "shard-1"}, PrevNames: []string{"shard-0"}})

	export, err := durable.EncodeState(durable.State{
		Users: []string{"moving-user"},
		FPS:   []core.Fingerprint{scheme.Fingerprint(profileFor(1))},
	})
	if err != nil {
		t.Fatal(err)
	}
	export[4+8+4+4] ^= 0x01 // magic, mutSeq, user count, id length: the id's first byte
	loser := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(export)
	}))
	defer loser.Close()

	resp := postJSON(t, tsB.URL+"/migrate/import", migrateImportRequest{Epoch: 2, From: "shard-0", FromURL: loser.URL})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("import of a corrupt export: status %d, want 502", resp.StatusCode)
	}
	if got := getStats(t, tsB).Users; got != 0 {
		t.Fatalf("a corrupt export applied %d users", got)
	}
}
