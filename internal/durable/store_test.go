package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"goldfinger/internal/core"
	"goldfinger/internal/knn"
	"goldfinger/internal/obs"
	"goldfinger/internal/profile"
)

func openTest(t *testing.T, dir string, fsys FS) (*Store, Recovery) {
	t.Helper()
	st, rec, err := Open(Options{Dir: dir, FS: fsys, Fsync: FsyncAlways, Logf: t.Logf})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return st, rec
}

// TestRecoveryAfterKill is the core durability contract: append N acked
// records, "SIGKILL" (drop the store without Close), reopen the same dir,
// and every record is back.
func TestRecoveryAfterKill(t *testing.T) {
	dir := t.TempDir()
	st, rec := openTest(t, dir, OSFS{})
	if len(rec.State.Users) != 0 || rec.State.MutSeq != 0 {
		t.Fatalf("fresh dir recovered non-empty state: %+v", rec.State)
	}
	recs := testRecords(t, 25)
	for _, r := range recs {
		if err := st.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: the handle is simply abandoned, like a killed process.
	st2, rec2 := openTest(t, dir, OSFS{})
	if got := len(rec2.State.Users); got != len(recs) {
		t.Fatalf("recovered %d users, want %d", got, len(recs))
	}
	if info := st2.Info(); info.WALRecords != int64(len(recs)) {
		t.Fatalf("reopened Info().WALRecords = %d, want %d", info.WALRecords, len(recs))
	}
	if rec2.State.MutSeq != recs[len(recs)-1].MutSeq {
		t.Fatalf("recovered mutSeq %d, want %d", rec2.State.MutSeq, recs[len(recs)-1].MutSeq)
	}
	if rec2.RecordsReplayed != len(recs) || rec2.BytesDropped != 0 {
		t.Fatalf("replayed=%d dropped=%d, want %d/0", rec2.RecordsReplayed, rec2.BytesDropped, len(recs))
	}
	for i, id := range rec2.State.Users {
		if id != recs[i].ID {
			t.Fatalf("user %d = %q, want %q (registration order must survive)", i, id, recs[i].ID)
		}
	}
}

// TestRecoveryOverwriteWins: replaying a WAL with two puts for the same id
// must keep the latest fingerprint and not duplicate the user.
func TestRecoveryOverwriteWins(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTest(t, dir, OSFS{})
	fpOld := testFP(t, 1, 2, 3)
	fpNew := testFP(t, 100, 200, 300, 400)
	if err := st.Append(Record{MutSeq: 1, ID: "alice", FP: fpOld}); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(Record{MutSeq: 2, ID: "bob", FP: testFP(t, 9)}); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(Record{MutSeq: 3, ID: "alice", FP: fpNew}); err != nil {
		t.Fatal(err)
	}
	_, rec := openTest(t, dir, OSFS{})
	if len(rec.State.Users) != 2 {
		t.Fatalf("recovered %d users, want 2", len(rec.State.Users))
	}
	if rec.State.Users[0] != "alice" || rec.State.FPS[0].Cardinality() != fpNew.Cardinality() {
		t.Fatalf("alice not overwritten: users=%v card=%d", rec.State.Users, rec.State.FPS[0].Cardinality())
	}
}

// TestLegacyLongIDDoesNotBlockCompaction: a WAL put whose id is over
// core.MaxUserIDBytes — written before AppendRecord bounded ids — is
// skipped by recovery and counted, the epoch snapshot is not loaded, and
// compaction works again: three Compact calls leave one WAL segment and a
// state snapshot, where replaying the put made every Compact rotate and
// then fail, piling up sealed segments.
func TestLegacyLongIDDoesNotBlockCompaction(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTest(t, dir, OSFS{})
	if err := st.SaveEpoch(testEpoch(t, 2, 1)); err != nil {
		t.Fatal(err)
	}
	st.Close()
	recs := testRecords(t, 2)
	recs[1].MutSeq = 3
	wal := encodeAll(t, recs[:1])
	wal = append(wal, legacyPutFrame(t, 2, strings.Repeat("x", core.MaxUserIDBytes+1), recs[0].FP)...)
	wal = append(wal, encodeAll(t, recs[1:])...)
	if err := os.WriteFile(filepath.Join(dir, walName(0)), wal, 0o644); err != nil {
		t.Fatal(err)
	}

	st, rec := openTest(t, dir, OSFS{})
	if rec.SkippedPuts != 1 || rec.RecordsReplayed != 2 || rec.State.MutSeq != 3 {
		t.Fatalf("skipped %d, replayed %d, mutSeq %d; want 1, 2, 3", rec.SkippedPuts, rec.RecordsReplayed, rec.State.MutSeq)
	}
	if want := []string{recs[0].ID, recs[1].ID}; !slices.Equal(rec.State.Users, want) {
		t.Fatalf("recovered users %v, want %v", rec.State.Users, want)
	}
	if rec.Epoch != nil {
		t.Fatal("epoch loaded beside a skipped put")
	}
	for i := 0; i < 3; i++ {
		if err := st.Compact(func() (State, *EpochData) { return rec.State, nil }); err != nil {
			t.Fatalf("Compact %d: %v", i, err)
		}
	}
	var wals, states []string
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range names {
		if _, ok := parseGen(e.Name(), "wal-", ".log"); ok {
			wals = append(wals, e.Name())
		}
		if _, ok := parseGen(e.Name(), "state-", ".snap"); ok {
			states = append(states, e.Name())
		}
	}
	if len(wals) != 1 || len(states) != 1 {
		t.Fatalf("after three compactions: WAL segments %v, state snapshots %v; want one of each", wals, states)
	}
	st.Close()
	_, rec = openTest(t, dir, OSFS{})
	if rec.SkippedPuts != 0 || len(rec.State.Users) != 2 || rec.State.MutSeq != 3 {
		t.Fatalf("after compaction: skipped %d, users %v, mutSeq %d", rec.SkippedPuts, rec.State.Users, rec.State.MutSeq)
	}
}

// captureOf returns a capture callback yielding the state equivalent to
// applying recs in order.
func captureOf(recs []Record) func() (State, *EpochData) {
	var st State
	for _, r := range recs {
		st.Users = append(st.Users, r.ID)
		st.FPS = append(st.FPS, r.FP)
		st.MutSeq = r.MutSeq
	}
	return func() (State, *EpochData) { return st, nil }
}

// TestCompactionTruncatesWAL: after a compaction the old segment and old
// snapshots are gone, the new snapshot carries the state, and recovery
// still sees everything — including records appended after the compaction.
func TestCompactionTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTest(t, dir, OSFS{})
	recs := testRecords(t, 10)
	for _, r := range recs[:6] {
		if err := st.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Compact(captureOf(recs[:6])); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[6:] {
		if err := st.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var have []string
	for _, e := range names {
		have = append(have, e.Name())
	}
	for _, n := range have {
		if n == walName(0) {
			t.Errorf("sealed segment %s not deleted after compaction (dir: %v)", n, have)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, stateName(1))); err != nil {
		t.Errorf("state snapshot missing after compaction: %v (dir: %v)", err, have)
	}

	_, rec := openTest(t, dir, OSFS{})
	if len(rec.State.Users) != 10 {
		t.Fatalf("recovered %d users after compaction, want 10", len(rec.State.Users))
	}
	if rec.RecordsReplayed != 4 {
		t.Errorf("replayed %d records, want 4 (snapshot covers the first 6)", rec.RecordsReplayed)
	}
	if rec.State.MutSeq != 10 {
		t.Errorf("mutSeq %d, want 10", rec.State.MutSeq)
	}
}

// TestCorruptSnapshotQuarantined: a snapshot that fails its checksum is
// moved aside as *.corrupt, recovery proceeds from the remaining WAL, and
// nothing panics.
func TestCorruptSnapshotQuarantined(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTest(t, dir, OSFS{})
	recs := testRecords(t, 8)
	for _, r := range recs[:5] {
		if err := st.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Compact(captureOf(recs[:5])); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[5:] {
		if err := st.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	// Bit-rot the snapshot.
	snapPath := filepath.Join(dir, stateName(1))
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(snapPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	st2, rec, err := Open(Options{Dir: dir, FS: OSFS{}, Metrics: reg, Logf: t.Logf})
	if err != nil {
		t.Fatalf("recovery died on a corrupt snapshot: %v", err)
	}
	defer st2.Close()
	if len(rec.Quarantined) != 1 || !strings.Contains(rec.Quarantined[0], ".corrupt") {
		t.Fatalf("quarantined = %v, want one *.corrupt", rec.Quarantined)
	}
	if _, err := os.Stat(snapPath); !os.IsNotExist(err) {
		t.Errorf("corrupt snapshot still in recovery path: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, stateName(1)+".corrupt")); err != nil {
		t.Errorf("quarantined file missing: %v", err)
	}
	// The snapshot is gone and its covered segment was deleted by the
	// compaction, so only the post-compaction records survive — recovery
	// salvages exactly the remaining WAL instead of crashing.
	if len(rec.State.Users) != 3 {
		t.Errorf("recovered %d users from surviving WAL, want 3", len(rec.State.Users))
	}
	if reg.Counter(MetricQuarantinedFiles).Value() != 1 {
		t.Errorf("quarantine counter = %d, want 1", reg.Counter(MetricQuarantinedFiles).Value())
	}
}

// TestTornTailRecoversAckedPrefix is the acceptance scenario: a crash
// mid-append leaves a physically torn WAL tail; recovery keeps exactly the
// fully-acked records and truncates the torn bytes off the file.
func TestTornTailRecoversAckedPrefix(t *testing.T) {
	recs := testRecords(t, 12)
	// Sweep the crash point across every write the scenario performs.
	ffs := &FaultFS{Inner: OSFS{}}
	{
		dir := t.TempDir()
		st, _, err := Open(Options{Dir: dir, FS: ffs, Fsync: FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := st.Append(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	total := ffs.Ops()
	if total < len(recs) {
		t.Fatalf("scenario performed only %d ops", total)
	}
	for failAt := 1; failAt <= total; failAt++ {
		dir := t.TempDir()
		ffs := &FaultFS{Inner: OSFS{}, FailAt: failAt, Mode: FaultCrash}
		st, _, err := Open(Options{Dir: dir, FS: ffs, Fsync: FsyncAlways})
		var acked []Record
		if err == nil {
			for _, r := range recs {
				if err := st.Append(r); err != nil {
					break
				}
				acked = append(acked, r)
			}
		}
		// "Reboot": recover the directory with a healthy filesystem. Every
		// acked record must be back; a record whose bytes fully reached the
		// file before the fault (e.g. the fault hit its fsync) may
		// additionally survive — that is the WAL contract: acked ⊆
		// recovered ⊆ attempted, recovered is a gap-free prefix, and a torn
		// (partially written) record never resurrects.
		st2, rec, err := Open(Options{Dir: dir, FS: OSFS{}, Logf: t.Logf})
		if err != nil {
			t.Fatalf("failAt=%d: recovery failed: %v", failAt, err)
		}
		got := len(rec.State.Users)
		if got < len(acked) || got > len(acked)+1 {
			t.Fatalf("failAt=%d: recovered %d users, acked %d (at most one in-flight record may ride along)",
				failAt, got, len(acked))
		}
		for i := 0; i < got; i++ {
			if rec.State.Users[i] != recs[i].ID {
				t.Fatalf("failAt=%d: user %d = %q, want %q", failAt, i, rec.State.Users[i], recs[i].ID)
			}
		}
		if rec.State.MutSeq != uint64(got) {
			t.Fatalf("failAt=%d: mutSeq %d, want %d", failAt, rec.State.MutSeq, got)
		}
		// The torn tail was truncated: appending to the recovered store and
		// recovering again must still parse cleanly.
		next := Record{MutSeq: rec.State.MutSeq + 1, ID: "post-crash", FP: testFP(t, 42)}
		if err := st2.Append(next); err != nil {
			t.Fatalf("failAt=%d: append after recovery: %v", failAt, err)
		}
		_, rec3 := openTest(t, dir, OSFS{})
		if len(rec3.State.Users) != got+1 || rec3.BytesDropped != 0 {
			t.Fatalf("failAt=%d: second recovery %d users / %d dropped, want %d / 0",
				failAt, len(rec3.State.Users), rec3.BytesDropped, got+1)
		}
	}
}

// TestCrashDuringCompaction sweeps a crash point across an
// append-compact-append cycle: whatever the interleaving, every acked
// record must survive recovery.
func TestCrashDuringCompaction(t *testing.T) {
	recs := testRecords(t, 8)
	run := func(ffs *FaultFS, dir string) (acked []Record) {
		st, rec, err := Open(Options{Dir: dir, FS: ffs, Fsync: FsyncAlways})
		if err != nil {
			return nil
		}
		acked = append(acked, makeRecordsFromState(rec.State)...)
		for _, r := range recs[:5] {
			if err := st.Append(r); err != nil {
				return acked
			}
			acked = append(acked, r)
		}
		snapshot := append([]Record(nil), acked...)
		st.Compact(captureOf(snapshot))
		for _, r := range recs[5:] {
			if err := st.Append(r); err != nil {
				return acked
			}
			acked = append(acked, r)
		}
		return acked
	}
	probe := &FaultFS{Inner: OSFS{}}
	run(probe, t.TempDir())
	total := probe.Ops()
	for failAt := 1; failAt <= total; failAt++ {
		dir := t.TempDir()
		acked := run(&FaultFS{Inner: OSFS{}, FailAt: failAt, Mode: FaultCrash}, dir)
		_, rec, err := Open(Options{Dir: dir, FS: OSFS{}, Logf: t.Logf})
		if err != nil {
			t.Fatalf("failAt=%d: recovery failed: %v", failAt, err)
		}
		got := len(rec.State.Users)
		if got < len(acked) || got > len(acked)+1 {
			t.Fatalf("failAt=%d: recovered %d users, acked %d", failAt, got, len(acked))
		}
		for i := 0; i < got; i++ {
			if rec.State.Users[i] != recs[i].ID {
				t.Fatalf("failAt=%d: user %d = %q, want %q", failAt, i, rec.State.Users[i], recs[i].ID)
			}
		}
	}
}

func makeRecordsFromState(st State) []Record {
	out := make([]Record, len(st.Users))
	for i := range st.Users {
		out[i] = Record{ID: st.Users[i], FP: st.FPS[i]}
	}
	return out
}

// TestDegradedModeOnAppendFailure: a failed append flips the store
// read-only; every later mutation reports ErrDegraded without touching the
// files.
func TestDegradedModeOnAppendFailure(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	ffs := &FaultFS{Inner: OSFS{}}
	st, _, err := Open(Options{Dir: dir, FS: ffs, Fsync: FsyncAlways, Metrics: reg, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(t, 3)
	if err := st.Append(recs[0]); err != nil {
		t.Fatal(err)
	}
	ffs.FailAt = ffs.Ops() + 1 // next mutation fails, ENOSPC-style
	ffs.Mode = FaultError
	if err := st.Append(recs[1]); err == nil {
		t.Fatal("append through an injected fault succeeded")
	}
	if !st.Degraded() {
		t.Fatal("store not degraded after append failure")
	}
	if reg.Gauge(MetricDegraded).Value() != 1 {
		t.Error("degraded gauge not set")
	}
	if err := st.Append(recs[2]); !errors.Is(err, ErrDegraded) {
		t.Errorf("append on degraded store: %v, want ErrDegraded", err)
	}
	if err := st.Compact(captureOf(recs[:1])); !errors.Is(err, ErrDegraded) {
		t.Errorf("compact on degraded store: %v, want ErrDegraded", err)
	}
	if err := st.SaveEpoch(EpochData{}); !errors.Is(err, ErrDegraded) {
		t.Errorf("save epoch on degraded store: %v, want ErrDegraded", err)
	}
	// The acked record survives the degraded episode.
	_, rec := openTest(t, dir, OSFS{})
	if len(rec.State.Users) != 1 || rec.State.Users[0] != recs[0].ID {
		t.Fatalf("recovered %v, want just %q", rec.State.Users, recs[0].ID)
	}
}

func testEpoch(t *testing.T, n, k int) EpochData {
	t.Helper()
	users := make([]string, n)
	g := &knn.Graph{K: k, Neighbors: make([][]knn.Neighbor, n)}
	for i := range users {
		users[i] = testRecords(t, n)[i].ID
		for j := 0; j < k; j++ {
			g.Neighbors[i] = append(g.Neighbors[i], knn.Neighbor{ID: int32((i + j + 1) % n), Sim: 1 / float64(j+1)})
		}
	}
	return EpochData{
		Seq: 3, K: k, Algorithm: "hyrec",
		BuiltAt: time.Unix(1700000000, 12345), Duration: 1500 * time.Millisecond,
		Stats:  knn.Stats{Comparisons: 424242, Iterations: 7, Updates: 99},
		MutSeq: uint64(n), Users: users, Graph: g,
	}
}

// TestEpochSnapshotRoundTrip: the persisted epoch comes back exactly, and a
// corrupted epoch file is quarantined without poisoning state recovery.
func TestEpochSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTest(t, dir, OSFS{})
	want := testEpoch(t, 6, 2)
	if err := st.SaveEpoch(want); err != nil {
		t.Fatal(err)
	}
	_, rec := openTest(t, dir, OSFS{})
	if rec.Epoch == nil {
		t.Fatal("epoch not recovered")
	}
	got := *rec.Epoch
	if got.Seq != want.Seq || got.K != want.K || got.Algorithm != want.Algorithm ||
		!got.BuiltAt.Equal(want.BuiltAt) || got.Duration != want.Duration ||
		got.Stats != want.Stats || got.MutSeq != want.MutSeq {
		t.Fatalf("epoch meta = %+v, want %+v", got, want)
	}
	if len(got.Users) != len(want.Users) || got.Users[0] != want.Users[0] {
		t.Fatalf("epoch users = %v", got.Users)
	}
	for i := range want.Graph.Neighbors {
		if len(got.Graph.Neighbors[i]) != len(want.Graph.Neighbors[i]) {
			t.Fatalf("node %d neighborhood size changed", i)
		}
		for j, nb := range want.Graph.Neighbors[i] {
			if got.Graph.Neighbors[i][j] != nb {
				t.Fatalf("node %d neighbor %d = %+v, want %+v", i, j, got.Graph.Neighbors[i][j], nb)
			}
		}
	}

	// Corrupt it: recovery must quarantine and carry on with Epoch == nil.
	path := filepath.Join(dir, epochName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[10] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec2 := openTest(t, dir, OSFS{})
	if rec2.Epoch != nil {
		t.Fatal("corrupt epoch snapshot accepted")
	}
	if len(rec2.Quarantined) != 1 {
		t.Fatalf("quarantined = %v, want the epoch file", rec2.Quarantined)
	}
}

// TestConcurrentAppendsAndCompaction drives appends from several goroutines
// while compactions run concurrently — the interleaving the service's
// write path plus threshold-triggered compaction produces. Appends are
// serialized by a writer mutex (as the service's writeMu does) so mutSeq
// matches append order; compactions run outside it. Run under -race by
// `make racecheck`.
func TestConcurrentAppendsAndCompaction(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTest(t, dir, OSFS{})
	const writers, per = 4, 20

	var (
		writeMu sync.Mutex
		mirror  State
	)
	// capture mimics the service's captureState: a copy of the current
	// mirror under the lock that writers update it under.
	capture := func() (State, *EpochData) {
		writeMu.Lock()
		defer writeMu.Unlock()
		return State{
			Users:  append([]string(nil), mirror.Users...),
			FPS:    append([]core.Fingerprint(nil), mirror.FPS...),
			MutSeq: mirror.MutSeq,
		}, nil
	}
	done := make(chan int, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			n := 0
			for i := 0; i < per; i++ {
				fp := testFP(t, profile.ItemID(w*1000), profile.ItemID(i))
				writeMu.Lock()
				r := Record{MutSeq: mirror.MutSeq + 1, ID: fmt.Sprintf("w%d-%03d", w, i), FP: fp}
				err := st.Append(r)
				if err == nil {
					mirror.Users = append(mirror.Users, r.ID)
					mirror.FPS = append(mirror.FPS, r.FP)
					mirror.MutSeq = r.MutSeq
				}
				writeMu.Unlock()
				if err != nil {
					break
				}
				n++
				if i%7 == w%3 {
					if err := st.Compact(capture); err != nil {
						t.Errorf("writer %d: compact: %v", w, err)
					}
				}
			}
			done <- n
		}(w)
	}
	total := 0
	for w := 0; w < writers; w++ {
		total += <-done
	}
	if total != writers*per {
		t.Fatalf("only %d of %d appends acked", total, writers*per)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := openTest(t, dir, OSFS{})
	if len(rec.State.Users) != total {
		t.Fatalf("recovered %d users, want %d", len(rec.State.Users), total)
	}
}

func TestOpenRequiresDir(t *testing.T) {
	if _, _, err := Open(Options{}); err == nil {
		t.Fatal("empty dir accepted")
	}
}

func TestParseGen(t *testing.T) {
	for _, tc := range []struct {
		name string
		ok   bool
		gen  uint64
	}{
		{"wal-00000003.log", true, 3},
		{"wal-00000003.log.corrupt", false, 0},
		{"wal-.log", false, 0},
		{"wal-x.log", false, 0},
		{"state-00000001.snap", false, 0}, // wrong prefix for wal parse
	} {
		g, ok := parseGen(tc.name, "wal-", ".log")
		if ok != tc.ok || g != tc.gen {
			t.Errorf("parseGen(%q) = %d,%v want %d,%v", tc.name, g, ok, tc.gen, tc.ok)
		}
	}
}

// deltaChurnOps is the fixed mutation script shared by the crash sweep's
// scenario and its deterministic replay oracle: inserts, overwrites and a
// delete, each producing one put/delete record plus one graph delta.
var deltaChurnOps = []struct {
	kind  byte // 'i' insert, 'o' overwrite, 'd' delete
	node  int32
	fpIdx int
}{
	{'i', 10, 10}, {'i', 11, 11}, {'d', 3, -1}, {'i', 12, 12},
	{'o', 5, 13}, {'d', 11, -1}, {'i', 13, 14}, {'o', 0, 15},
}

// deltaChurnStep applies script op j to a live maintainer and returns its
// mutation result.
func deltaChurnStep(t testing.TB, o *knn.Online, fps []core.Fingerprint, j int) knn.MutationResult {
	t.Helper()
	op := deltaChurnOps[j]
	switch op.kind {
	case 'i':
		id, res := o.Insert(fps[op.fpIdx])
		if id != op.node {
			t.Fatalf("script op %d: insert got node %d, want %d", j, id, op.node)
		}
		return res
	case 'o':
		res, err := o.Overwrite(op.node, fps[op.fpIdx])
		if err != nil {
			t.Fatal(err)
		}
		return res
	default:
		res, err := o.Delete(op.node)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
}

// TestCrashDuringDeltaAppendRecoversWarmGraph sweeps a crash point across
// a scenario that persists a built epoch and then streams mutation pairs
// (put/delete record + graph delta) from a live maintainer. Whatever the
// crash point — including mid-delta-append, leaving a torn tail, and
// between a put and its delta, leaving a seq gap — recovery must produce
// a warm epoch exactly equal to a cold deterministic replay of the same
// mutation prefix: same adjacency, same similarities, same tombstones.
// Torn tails are truncated and counted, never parsed.
func TestCrashDuringDeltaAppendRecoversWarmGraph(t *testing.T) {
	const (
		k    = 3
		base = 10
	)
	scheme := core.MustScheme(testBits, 7)
	fps := make([]core.Fingerprint, base+6)
	users := make([]string, base+6)
	for i := range fps {
		fps[i] = scheme.Fingerprint(profile.New(
			profile.ItemID(i), profile.ItemID(i+1), profile.ItemID(2*i+3), profile.ItemID(3*i+7)))
		users[i] = fmt.Sprintf("user-%03d", i)
	}
	baseGraph := func() *knn.Graph {
		g, _ := knn.BruteForce(&knn.SHFProvider{Fingerprints: fps[:base]}, k, knn.Options{})
		return g
	}
	newMaintainer := func(tb testing.TB) *knn.Online {
		o, err := knn.NewOnline(baseGraph(), nil, append([]core.Fingerprint(nil), fps[:base]...), nil, k, base)
		if err != nil {
			tb.Fatal(err)
		}
		return o
	}
	// replayTo is the cold oracle: the maintainer state after n script ops.
	replayTo := func(n int) (*knn.Graph, []bool) {
		o := newMaintainer(t)
		for j := 0; j < n; j++ {
			deltaChurnStep(t, o, fps, j)
		}
		s := o.Snapshot()
		return s.Graph(), s.DeadFlags()
	}

	// run plays the scenario against fsys until a fault stops it.
	run := func(tb testing.TB, fsys FS, dir string) {
		st, _, err := Open(Options{Dir: dir, FS: fsys, Fsync: FsyncAlways})
		if err != nil {
			return
		}
		for i := 0; i < base; i++ {
			if st.Append(Record{MutSeq: uint64(i + 1), ID: users[i], FP: fps[i]}) != nil {
				return
			}
		}
		if st.SaveEpoch(EpochData{
			Seq: 1, K: k, Algorithm: "bruteforce", MutSeq: base,
			Users: users[:base], Graph: baseGraph(), Dead: make([]bool, base),
		}) != nil {
			return
		}
		o := newMaintainer(tb)
		for j, op := range deltaChurnOps {
			res := deltaChurnStep(tb, o, fps, j)
			seq := uint64(base + j + 1)
			rec := Record{Kind: KindPut, MutSeq: seq, ID: users[max(op.fpIdx, int(op.node))], FP: fps[max(op.fpIdx, 0)]}
			dop := DeltaOverwrite
			switch op.kind {
			case 'i':
				dop = DeltaInsert
				rec.ID = users[op.node]
			case 'd':
				dop = DeltaDelete
				rec = Record{Kind: KindDelete, MutSeq: seq, ID: users[op.node]}
			}
			if st.Append(rec) != nil {
				return
			}
			if st.Append(Record{Kind: KindGraphDelta, MutSeq: seq,
				Delta: &GraphDelta{Op: dop, Node: op.node, Adj: res.Touched}}) != nil {
				return
			}
		}
	}

	probe := &FaultFS{Inner: OSFS{}}
	run(t, probe, t.TempDir())
	total := probe.Ops()
	if total == 0 {
		t.Fatal("probe scenario performed no filesystem ops")
	}

	var tornSeen, warmSeen int
	for failAt := 1; failAt <= total; failAt++ {
		dir := t.TempDir()
		run(t, &FaultFS{Inner: OSFS{}, FailAt: failAt, Mode: FaultCrash}, dir)
		_, rec, err := Open(Options{Dir: dir, FS: OSFS{}, Logf: t.Logf})
		if err != nil {
			t.Fatalf("failAt=%d: recovery failed: %v", failAt, err)
		}
		if rec.BytesDropped > 0 {
			tornSeen++
		}
		ep := rec.Epoch
		if ep == nil {
			continue // crashed before the epoch snapshot landed
		}
		if ep.MutSeq < base || ep.MutSeq > uint64(base+len(deltaChurnOps)) {
			t.Fatalf("failAt=%d: warm epoch at mutSeq %d, outside [%d,%d]",
				failAt, ep.MutSeq, base, base+len(deltaChurnOps))
		}
		if ep.MutSeq > rec.State.MutSeq {
			t.Fatalf("failAt=%d: epoch mutSeq %d ahead of state %d (frankengraph)",
				failAt, ep.MutSeq, rec.State.MutSeq)
		}
		if ep.MutSeq > base {
			warmSeen++
		}
		wantG, wantDead := replayTo(int(ep.MutSeq) - base)
		if len(ep.Graph.Neighbors) != len(wantG.Neighbors) {
			t.Fatalf("failAt=%d: warm graph has %d nodes, cold replay %d",
				failAt, len(ep.Graph.Neighbors), len(wantG.Neighbors))
		}
		for u := range wantG.Neighbors {
			got, want := ep.Graph.Neighbors[u], wantG.Neighbors[u]
			if len(got) != len(want) {
				t.Fatalf("failAt=%d: node %d has %d neighbors warm, %d cold", failAt, u, len(got), len(want))
			}
			for r := range want {
				// Tie-tolerant: ranks must agree on similarity exactly; the
				// deterministic replay makes IDs agree too, so check both.
				if got[r] != want[r] {
					t.Fatalf("failAt=%d: node %d rank %d: warm %+v, cold %+v",
						failAt, u, r, got[r], want[r])
				}
			}
			if dg, dw := ep.Dead[u], wantDead[u]; dg != dw {
				t.Fatalf("failAt=%d: node %d dead=%v warm, %v cold", failAt, u, dg, dw)
			}
		}
	}
	if tornSeen == 0 {
		t.Error("crash sweep never produced a torn tail")
	}
	if warmSeen == 0 {
		t.Error("crash sweep never recovered a warm (delta-applied) epoch")
	}
	t.Logf("sweep: %d crash points, %d torn tails truncated, %d warm recoveries", total, tornSeen, warmSeen)
}
