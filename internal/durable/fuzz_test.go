package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"goldfinger/internal/core"
	"goldfinger/internal/knn"
	"goldfinger/internal/profile"
)

// FuzzWALReplay hammers ScanWAL — the function every recovery and every
// torn-tail truncation trusts — with arbitrarily mutated WAL bytes. The
// invariants:
//
//   - never panics (the fuzz engine enforces this),
//   - never accepts bytes that fail their CRC: re-encoding the accepted
//     records must reproduce data[:goodLen] bit for bit,
//   - always accounts for every byte: goodLen + dropped == len(data),
//   - an intact stream round-trips with zero drop.
func FuzzWALReplay(f *testing.F) {
	valid := encodeAll(f, testRecords(f, 3))
	f.Add([]byte{})
	f.Add(valid)
	// Torn tails: cut inside the third record's payload, inside a header,
	// and one byte short.
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:len(valid)*2/3])
	f.Add(valid[:5])
	// Bit flips in the length prefix, the CRC, and the payload.
	for _, i := range []int{0, 2, 5, 9, 20, len(valid) - 3} {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0x80
		f.Add(mut)
	}
	// A huge forged length prefix.
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4, 5})
	// Garbage appended after a valid stream.
	f.Add(append(append([]byte(nil), valid...), 0xde, 0xad, 0xbe, 0xef))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, goodLen, err := ScanWAL(data)
		if goodLen < 0 || goodLen > len(data) {
			t.Fatalf("goodLen %d out of range [0,%d]", goodLen, len(data))
		}
		dropped := len(data) - goodLen
		if err == nil && dropped != 0 {
			t.Fatalf("no error but %d bytes dropped", dropped)
		}
		if err != nil && dropped == 0 {
			t.Fatalf("error %v but zero bytes dropped", err)
		}
		// The accepted prefix is exactly the re-encoding of the accepted
		// records: nothing was accepted that the CRC (or structure) did not
		// vouch for.
		var re []byte
		for _, r := range recs {
			var aerr error
			re, aerr = AppendRecord(re, r)
			if aerr != nil {
				t.Fatalf("accepted record does not re-encode: %v", aerr)
			}
		}
		if !bytes.Equal(re, data[:goodLen]) {
			t.Fatalf("re-encoding %d accepted records (%d bytes) != accepted prefix (%d bytes)",
				len(recs), len(re), goodLen)
		}
	})
}

// FuzzDecodeEpoch hammers decodeEpoch, which every warm restart trusts with
// the persisted graph. The fuzzer mutates the payload, and the input is
// sealed around it (magic plus a correct CRC) so that mutations reach the
// structure instead of dying at the checksum. Invariants:
//
//   - never panics;
//   - an accepted epoch is servable: users, tombstones and adjacency in
//     lock step, every neighbour index in range;
//   - an accepted epoch re-encodes byte for byte, up to the two rewrites
//     encodeEpoch always makes: a v1 snapshot comes back as v2 with an
//     all-live tombstone bitmap, and the bitmap's unused high bits as zero.
func FuzzDecodeEpoch(f *testing.F) {
	const n = 6
	ep := EpochData{
		Seq: 3, K: 2, Algorithm: "cluster", BuiltAt: time.Unix(1700000000, 12345),
		Duration: 1500 * time.Millisecond, Stats: knn.Stats{Comparisons: 4242, Iterations: 3, Updates: 99},
		MutSeq: 17, Users: make([]string, n), Graph: &knn.Graph{K: 2, Neighbors: make([][]knn.Neighbor, n)},
		Dead: make([]bool, n),
	}
	for i := range n {
		ep.Users[i] = fmt.Sprintf("u%d", i)
		ep.Dead[i] = i%4 == 1
		for j := range i % 3 {
			ep.Graph.Neighbors[i] = append(ep.Graph.Neighbors[i], knn.Neighbor{ID: int32((i + j + 1) % n), Sim: 1 / float64(j+2)})
		}
	}
	data, err := encodeEpoch(ep)
	if err != nil {
		f.Fatal(err)
	}
	payload := data[4 : len(data)-4]
	v1 := payload[:len(payload)-4-(n+7)/8] // the same epoch without its bitmap
	f.Add(false, payload)
	f.Add(true, v1)
	f.Add(false, []byte{})
	for _, cut := range []int{1, 5, 12, 40, len(payload) / 2, len(payload) - 3} {
		f.Add(false, payload[:len(payload)-cut])
	}
	// Bit flips sweeping the header, the user table, counts, ids and sims,
	// and the bitmap's pad bits.
	for i := 0; i < len(payload); i += 7 {
		mut := bytes.Clone(payload)
		mut[i] ^= 0x81
		f.Add(false, mut)
	}

	f.Fuzz(func(t *testing.T, v1 bool, payload []byte) {
		magic := epochMagic
		if v1 {
			magic = epochMagicV1
		}
		ep, err := decodeEpoch(seal(append(magic[:], payload...)))
		if err != nil {
			return
		}
		n := len(ep.Users)
		if len(ep.Graph.Neighbors) != n || len(ep.Dead) != n || ep.Graph.K != ep.K {
			t.Fatalf("epoch out of lock step: %d users, %d lists, %d dead flags", n, len(ep.Graph.Neighbors), len(ep.Dead))
		}
		for u, nbrs := range ep.Graph.Neighbors {
			for _, nb := range nbrs {
				if nb.ID < 0 || int(nb.ID) >= n {
					t.Fatalf("node %d has neighbour %d outside [0,%d)", u, nb.ID, n)
				}
			}
		}
		want := bytes.Clone(payload)
		if v1 {
			want = binary.LittleEndian.AppendUint32(want, uint32(n))
			want = append(want, make([]byte, (n+7)/8)...)
		} else if n%8 != 0 {
			want[len(want)-1] &= 1<<(n%8) - 1
		}
		re, err := encodeEpoch(ep)
		if err != nil {
			t.Fatalf("accepted epoch does not re-encode: %v", err)
		}
		if !bytes.Equal(re, seal(append(epochMagic[:], want...))) {
			t.Fatalf("re-encoding an accepted epoch changed its bytes (%d in, %d out)", len(want)+8, len(re))
		}
	})
}

// FuzzDecodeState hammers DecodeState, which every restart trusts with
// the user table and fingerprints and every migration import with the
// users it takes over. As in FuzzDecodeEpoch the mutated payload is sealed
// with a valid CRC so mutations reach the structure. The first seeds are
// the fingerprint-set cases: an honest set past 1024 entries, a forged
// user count and a forged fingerprint count. Invariants:
//
//   - never panics;
//   - an accepted state has users, fingerprints and tombstones in lock
//     step, and one fingerprint length;
//   - an accepted state re-encodes byte for byte, up to the two rewrites
//     EncodeState always makes (v1 comes back as v2 with an all-live
//     bitmap, and the bitmap's pad bits come back as zero).
func FuzzDecodeState(f *testing.F) {
	scheme := core.MustScheme(64, 2)
	payloadOf := func(st State) []byte {
		data, err := EncodeState(st)
		if err != nil {
			f.Fatal(err)
		}
		return data[4 : len(data)-4]
	}
	small := State{Users: []string{"a", "bc"}, FPS: scheme.FingerprintAll([]profile.Profile{profile.New(1), profile.New(2, 3)}),
		Deleted: []bool{false, true}, MutSeq: 5}
	valid := payloadOf(small)
	f.Add(false, valid)
	// A forged user count: 2^32-1 ids promised, none present.
	f.Add(false, append(le.AppendUint64(nil, 5), 0xff, 0xff, 0xff, 0xff))
	// 1030 users: an honest table and set past 1024 entries.
	big := State{Users: make([]string, 1030), FPS: make([]core.Fingerprint, 1030)}
	for i := range big.Users {
		big.Users[i] = fmt.Sprintf("u%d", i)
		big.FPS[i] = scheme.Fingerprint(profile.New(profile.ItemID(i), profile.ItemID(i+7)))
	}
	f.Add(false, payloadOf(big))
	// A forged fingerprint count: 2000 promised, two present.
	setAt := 8 + usersBytes(small.Users)
	forged := bytes.Clone(valid)
	le.PutUint32(forged[setAt:], 2000)
	f.Add(false, forged)

	v1 := valid[:len(valid)-4-1] // the same state without its bitmap
	f.Add(true, v1)
	f.Add(false, []byte{})
	for _, cut := range []int{1, 5, 12, len(valid) / 2} {
		f.Add(false, valid[:len(valid)-cut])
	}
	// Mixed fingerprint lengths.
	mixed, err := core.AppendFingerprint(bytes.Clone(valid[:setAt+4+20]), core.MustScheme(128, 2).Fingerprint(profile.New(4)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(false, appendBitmap(mixed, 2, nil))
	for i := 0; i < len(valid); i += 5 {
		mut := bytes.Clone(valid)
		mut[i] ^= 0x81
		f.Add(false, mut)
	}

	f.Fuzz(func(t *testing.T, v1 bool, payload []byte) {
		magic := stateMagic
		if v1 {
			magic = stateMagicV1
		}
		st, err := DecodeState(seal(append(magic[:], payload...)))
		if err != nil {
			return
		}
		n := len(st.Users)
		if len(st.FPS) != n || len(st.Deleted) != n {
			t.Fatalf("state out of lock step: %d users, %d fingerprints, %d flags", n, len(st.FPS), len(st.Deleted))
		}
		for i, fp := range st.FPS {
			if fp.NumBits() != st.FPS[0].NumBits() || fp.Cardinality() != fp.Bits().Count() {
				t.Fatalf("fingerprint %d: %d bits (set uses %d), cardinality %d of %d set bits",
					i, fp.NumBits(), st.FPS[0].NumBits(), fp.Cardinality(), fp.Bits().Count())
			}
		}
		want := bytes.Clone(payload)
		if v1 {
			want = appendBitmap(want, n, nil)
		} else if n%8 != 0 {
			want[len(want)-1] &= 1<<(n%8) - 1
		}
		re, err := EncodeState(st)
		if err != nil {
			t.Fatalf("accepted state does not re-encode: %v", err)
		}
		if !bytes.Equal(re, seal(append(stateMagic[:], want...))) {
			t.Fatalf("re-encoding an accepted state changed its bytes (%d in, %d out)", len(want)+8, len(re))
		}
	})
}

// FuzzGraphDeltaReplay hammers the graph-delta half of recovery. A WAL
// stream interleaving legacy put/delete records with graph deltas is
// scanned, and every accepted delta is replayed onto a small epoch the way
// Open's warm-up does. Invariants:
//
//   - neither the scan nor the replay ever panics,
//   - byte accounting and CRC discipline hold exactly as in FuzzWALReplay
//     (graph deltas re-encode bit for bit),
//   - replay can never corrupt the epoch: after every accepted delta the
//     adjacency stays structurally sound — every neighbor in range, no
//     self-loops, and users/dead/adjacency in lock step. A delta the
//     validator rejects ends the warm-up (recovery falls back to the
//     stale-but-correct persisted graph), it never half-applies onward.
func FuzzGraphDeltaReplay(f *testing.F) {
	puts := testRecords(f, 3)
	adj := func(id int32, nbrs ...knn.Neighbor) knn.TouchedNode {
		return knn.TouchedNode{ID: id, Neighbors: nbrs}
	}
	recs := []Record{
		puts[0],
		{Kind: KindGraphDelta, MutSeq: 1, Delta: &GraphDelta{Op: DeltaInsert, Node: 0, Adj: []knn.TouchedNode{adj(0)}}},
		puts[1],
		{Kind: KindGraphDelta, MutSeq: 2, Delta: &GraphDelta{Op: DeltaInsert, Node: 1, Adj: []knn.TouchedNode{
			adj(1, knn.Neighbor{ID: 0, Sim: 0.75}),
			adj(0, knn.Neighbor{ID: 1, Sim: 0.75}),
		}}},
		puts[2],
		{Kind: KindGraphDelta, MutSeq: 3, Delta: &GraphDelta{Op: DeltaInsert, Node: 2, Adj: []knn.TouchedNode{
			adj(2, knn.Neighbor{ID: 0, Sim: 0.5}, knn.Neighbor{ID: 1, Sim: 0.25}),
			adj(1, knn.Neighbor{ID: 0, Sim: 0.75}, knn.Neighbor{ID: 2, Sim: 0.25}),
		}}},
		{Kind: KindDelete, MutSeq: 4, ID: "user-001"},
		{Kind: KindGraphDelta, MutSeq: 4, Delta: &GraphDelta{Op: DeltaDelete, Node: 1, Adj: []knn.TouchedNode{
			adj(2, knn.Neighbor{ID: 0, Sim: 0.5}),
		}}},
	}
	valid := encodeAll(f, recs)
	f.Add([]byte{})
	f.Add(valid)
	// Torn tails: inside the last delta, inside a header, one byte short.
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:len(valid)*3/4])
	f.Add(valid[:len(valid)/3])
	// Bit flips sweeping headers, ops, node ids, counts and sim bits.
	for i := 0; i < len(valid); i += 37 {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0x40
		f.Add(mut)
	}
	// A forged huge adjacency count inside an otherwise valid stream, and
	// a forged record length.
	f.Add(append(append([]byte(nil), valid...), 0xff, 0xff, 0xff, 0x7f, 3, 0, 0, 0))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 9, 9, 9, 9, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, goodLen, err := ScanWAL(data)
		if goodLen < 0 || goodLen > len(data) {
			t.Fatalf("goodLen %d out of range [0,%d]", goodLen, len(data))
		}
		if dropped := len(data) - goodLen; (err == nil) != (dropped == 0) {
			t.Fatalf("err=%v but %d bytes dropped", err, dropped)
		}
		var re []byte
		for _, r := range recs {
			var aerr error
			re, aerr = AppendRecord(re, r)
			if aerr != nil {
				t.Fatalf("accepted record does not re-encode: %v", aerr)
			}
		}
		if !bytes.Equal(re, data[:goodLen]) {
			t.Fatalf("re-encoding %d accepted records != accepted prefix", len(recs))
		}

		// Replay the accepted deltas onto an empty epoch the way recovery
		// warms a graph, stopping at the first rejected delta.
		users := []string{"u0", "u1", "u2", "u3", "u4", "u5", "u6", "u7"}
		ep := &EpochData{K: 2, Graph: &knn.Graph{K: 2}}
		for _, r := range recs {
			if r.Kind != KindGraphDelta {
				continue
			}
			if aerr := applyDeltaToEpoch(ep, r.Delta, users); aerr != nil {
				break
			}
			n := len(ep.Graph.Neighbors)
			if len(ep.Users) != n || len(ep.Dead) != n {
				t.Fatalf("epoch out of lock step: %d nodes, %d users, %d dead flags",
					n, len(ep.Users), len(ep.Dead))
			}
			for u, nbrs := range ep.Graph.Neighbors {
				for _, nb := range nbrs {
					if int(nb.ID) < 0 || int(nb.ID) >= n {
						t.Fatalf("node %d references out-of-range neighbor %d (n=%d)", u, nb.ID, n)
					}
					if int(nb.ID) == u {
						t.Fatalf("node %d acquired a self-loop", u)
					}
				}
			}
		}
	})
}
