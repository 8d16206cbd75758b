package durable

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"goldfinger/internal/core"
	"goldfinger/internal/knn"
	"goldfinger/internal/profile"
)

// The golden hex of every durable format, through the package's public
// entry points only (AppendRecord, ScanWAL, Compact, Open), so the bytes
// an older binary wrote stay readable and a codec change that moves one
// byte fails here. Encoding must reproduce the current formats (WAL
// records, state v2, epoch v2) byte for byte; decoding must accept them
// and the older ones (state v1, epoch v1) with the values below.

// goldenFP is a 64-bit fingerprint, 20 bytes on the wire.
func goldenFP(t *testing.T, items ...profile.ItemID) core.Fingerprint {
	t.Helper()
	return core.MustScheme(64, 11).Fingerprint(profile.New(items...))
}

func goldenRecords(t *testing.T) []Record {
	return []Record{
		{Kind: KindPut, MutSeq: 1, ID: "alice", FP: goldenFP(t, 1, 2, 3)},
		{MutSeq: 2, ID: "bob", FP: goldenFP(t, 4, 5)}, // zero kind: a put
		{Kind: KindGraphDelta, MutSeq: 2, Delta: &GraphDelta{Op: DeltaInsert, Node: 1, Adj: []knn.TouchedNode{
			{ID: 1, Neighbors: []knn.Neighbor{{ID: 0, Sim: 0.25}}},
			{ID: 0, Neighbors: []knn.Neighbor{{ID: 1, Sim: 0.25}}},
		}}},
		{Kind: KindDelete, MutSeq: 3, ID: "alice"},
		{Kind: KindGraphDelta, MutSeq: 3, Delta: &GraphDelta{Op: DeltaDelete, Node: 0, Adj: []knn.TouchedNode{
			{ID: 1, Neighbors: []knn.Neighbor{}},
		}}},
		{Kind: KindMigration, MutSeq: 3, Mig: &MigrationMark{Phase: MigImportBegin, Epoch: 9, Peer: "shard-2"}},
		{Kind: KindMigration, MutSeq: 3, Mig: &MigrationMark{Phase: MigRetireDone, Epoch: 9, Users: 12}},
	}
}

const goldenWAL = "" +
	"2600000065e6b1f601010000000000000005000000616c69636553484631400000000300000000000000000080c0" +
	"2400000076c637f301020000000000000003000000626f625348463140000000020000000000000000000012" +
	"3a00000026744708030200000000000000010100000002000000010000000100000000000000000000000000d03f000000000100000001000000000000000000d03f" +
	"1200000053cd5ba302030000000000000005000000616c696365" +
	"1a000000d6c4584c0303000000000000000300000000010000000100000000000000" +
	"210000009d885755040300000000000000010900000000000000000000000700000073686172642d32" +
	"1a000000825593ec0403000000000000000309000000000000000c00000000000000"

func goldenState(t *testing.T) State {
	return State{
		Users:   []string{"alice", "bob", "carol"},
		FPS:     []core.Fingerprint{goldenFP(t, 1, 2, 3), goldenFP(t, 4, 5), goldenFP(t)},
		Deleted: []bool{false, true, false},
		MutSeq:  7,
	}
}

func goldenEpoch(t *testing.T) EpochData {
	return EpochData{
		Seq: 4, K: 2, Algorithm: "cluster",
		BuiltAt: time.Unix(1700000000, 12345).UTC(), Duration: 1500 * time.Millisecond,
		Stats:  knn.Stats{Comparisons: 6, Iterations: 1, Updates: 3},
		MutSeq: 6, Users: []string{"alice", "bob", "carol"},
		Graph: &knn.Graph{K: 2, Neighbors: [][]knn.Neighbor{
			{{ID: 2, Sim: 0.5}, {ID: 1, Sim: 0.125}},
			{{ID: 0, Sim: 0.125}},
			{{ID: 0, Sim: 0.5}},
		}},
		Dead: []bool{false, false, true},
	}
}

const (
	goldenStateV2 = "4746533207000000000000000300000005000000616c69636503000000626f62" +
		"050000006361726f6c0300000053484631400000000300000000000000000080" +
		"c053484631400000000200000000000000000000125348463140000000000000" +
		"00000000000000000003000000029a389527"
	goldenStateV1 = "4746533107000000000000000300000005000000616c69636503000000626f62" +
		"050000006361726f6c0300000053484631400000000300000000000000000080" +
		"c053484631400000000200000000000000000000125348463140000000000000" +
		"000000000000000000a1cfbf30"
	goldenEpochV2 = "474645320400000000000000020000000000000007000000636c757374657239" +
		"302a36fe9c9717002f6859000000000600000000000000010000000000000003" +
		"0000000000000006000000000000000300000005000000616c69636503000000" +
		"626f62050000006361726f6c030000000200000002000000000000000000e03f" +
		"01000000000000000000c03f0100000000000000000000000000c03f01000000" +
		"00000000000000000000e03f030000000451b09775"
	goldenEpochV1 = "474645310400000000000000020000000000000007000000636c757374657239" +
		"302a36fe9c9717002f6859000000000600000000000000010000000000000003" +
		"0000000000000006000000000000000300000005000000616c69636503000000" +
		"626f62050000006361726f6c030000000200000002000000000000000000e03f" +
		"01000000000000000000c03f0100000000000000000000000000c03f01000000" +
		"00000000000000000000e03fa9b22999"
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGoldenWAL(t *testing.T) {
	want := goldenRecords(t)
	var enc []byte
	for _, r := range want {
		var err error
		if enc, err = AppendRecord(enc, r); err != nil {
			t.Fatal(err)
		}
	}
	golden := unhex(t, goldenWAL)
	if !bytes.Equal(enc, golden) {
		t.Fatalf("WAL encoding changed:\n got %x\nwant %x", enc, golden)
	}
	got, goodLen, err := ScanWAL(golden)
	if err != nil || goodLen != len(golden) || len(got) != len(want) {
		t.Fatalf("scan: %d records, goodLen %d of %d, err %v", len(got), goodLen, len(golden), err)
	}
	for i, w := range want {
		if w.Kind == 0 {
			w.Kind = KindPut
		}
		g := got[i]
		if g.Kind != w.Kind || g.MutSeq != w.MutSeq || g.ID != w.ID ||
			!reflect.DeepEqual(g.Delta, w.Delta) || !reflect.DeepEqual(g.Mig, w.Mig) {
			t.Fatalf("record %d = %+v, want %+v", i, g, w)
		}
		if w.Kind == KindPut && (!g.FP.Bits().Equal(w.FP.Bits()) || g.FP.Cardinality() != w.FP.Cardinality()) {
			t.Fatalf("record %d fingerprint changed", i)
		}
	}
}

// TestGoldenSnapshots writes the state and epoch through a compaction and
// compares the files, then recovers a directory holding each golden
// pair.
func TestGoldenSnapshots(t *testing.T) {
	st, ep := goldenState(t), goldenEpoch(t)
	dir := t.TempDir()
	s, _, err := Open(Options{Dir: dir, CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(func() (State, *EpochData) { return st, &ep }); err != nil {
		t.Fatal(err)
	}
	s.Close()
	for name, want := range map[string]string{"state-00000001.snap": goldenStateV2, epochName: goldenEpochV2} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, unhex(t, want)) {
			t.Fatalf("%s encoding changed:\n got %x\nwant %s", name, got, want)
		}
	}

	for _, c := range []struct {
		name, state, epoch string
		v1                 bool
	}{
		{"v1", goldenStateV1, goldenEpochV1, true},
		{"v2", goldenStateV2, goldenEpochV2, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "state-00000001.snap"), unhex(t, c.state), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, epochName), unhex(t, c.epoch), 0o644); err != nil {
				t.Fatal(err)
			}
			s, rec, err := Open(Options{Dir: dir, CompactBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if len(rec.Quarantined) != 0 || rec.Epoch == nil {
				t.Fatalf("quarantined %v, epoch recovered %v", rec.Quarantined, rec.Epoch != nil)
			}
			wantSt, wantEp := goldenState(t), goldenEpoch(t)
			if c.v1 { // v1 predates tombstones: everything decodes live
				wantSt.Deleted = make([]bool, len(wantSt.Users))
				wantEp.Dead = make([]bool, len(wantEp.Users))
			}
			gotSt := rec.State
			if gotSt.MutSeq != wantSt.MutSeq || !reflect.DeepEqual(gotSt.Users, wantSt.Users) ||
				!reflect.DeepEqual(gotSt.Deleted, wantSt.Deleted) || len(gotSt.FPS) != len(wantSt.FPS) {
				t.Fatalf("state = %+v, want %+v", gotSt, wantSt)
			}
			for i, fp := range wantSt.FPS {
				if !gotSt.FPS[i].Bits().Equal(fp.Bits()) || gotSt.FPS[i].Cardinality() != fp.Cardinality() {
					t.Fatalf("state fingerprint %d changed", i)
				}
			}
			gotEp := *rec.Epoch
			if !gotEp.BuiltAt.Equal(wantEp.BuiltAt) {
				t.Fatalf("epoch built at %v, want %v", gotEp.BuiltAt, wantEp.BuiltAt)
			}
			gotEp.BuiltAt = wantEp.BuiltAt
			if !reflect.DeepEqual(gotEp, wantEp) {
				t.Fatalf("epoch = %+v, want %+v", gotEp, wantEp)
			}
		})
	}
}
