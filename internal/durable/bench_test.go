package durable

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"goldfinger/internal/core"
	"goldfinger/internal/knn"
	"goldfinger/internal/profile"
)

// The codec benchmarks run at the serving scale: n=100k users, 1024-bit
// fingerprints, k=10.
const benchN, benchK = 100_000, 10

var benchData = sync.OnceValues(func() (State, EpochData) {
	rng := rand.New(rand.NewPCG(42, 0))
	scheme := core.MustScheme(1024, 42)
	st := State{Users: make([]string, benchN), FPS: make([]core.Fingerprint, benchN), Deleted: make([]bool, benchN), MutSeq: benchN}
	g := &knn.Graph{K: benchK, Neighbors: make([][]knn.Neighbor, benchN)}
	items := make([]profile.ItemID, 40)
	for i := range st.Users {
		st.Users[i] = fmt.Sprintf("user-%07d", i)
		for j := range items {
			items[j] = profile.ItemID(rng.IntN(10_000))
		}
		st.FPS[i] = scheme.Fingerprint(profile.New(items...))
		st.Deleted[i] = i%50 == 0
		g.Neighbors[i] = make([]knn.Neighbor, benchK)
		for j := range g.Neighbors[i] {
			g.Neighbors[i][j] = knn.Neighbor{ID: int32(rng.IntN(benchN)), Sim: rng.Float64()}
		}
	}
	ep := EpochData{Seq: 1, K: benchK, Algorithm: "cluster", BuiltAt: time.Unix(1700000000, 0),
		MutSeq: benchN, Users: st.Users, Graph: g, Dead: st.Deleted}
	return st, ep
})

// benchDelta is a put and the graph delta behind it: 60 touched nodes of
// 10 neighbours each.
func benchDelta() (Record, Record) {
	st, ep := benchData()
	d := &GraphDelta{Op: DeltaOverwrite, Node: 7, Adj: make([]knn.TouchedNode, 60)}
	for i := range d.Adj {
		d.Adj[i] = knn.TouchedNode{ID: int32(i * 11), Neighbors: ep.Graph.Neighbors[i]}
	}
	return Record{Kind: KindPut, MutSeq: 9, ID: st.Users[7], FP: st.FPS[7]},
		Record{Kind: KindGraphDelta, MutSeq: 9, Delta: d}
}

func BenchmarkEncodeState(b *testing.B) {
	st, _ := benchData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeState(st); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeState(b *testing.B) {
	st, _ := benchData()
	data, err := EncodeState(st)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeState(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeEpoch(b *testing.B) {
	_, ep := benchData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encodeEpoch(ep); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeEpoch(b *testing.B) {
	_, ep := benchData()
	data, err := encodeEpoch(ep)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeEpoch(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendRecord encodes what one online overwrite logs: the put
// and its graph delta.
func BenchmarkAppendRecord(b *testing.B) {
	put, delta := benchDelta()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := AppendRecord(nil, put)
		if err != nil {
			b.Fatal(err)
		}
		if _, err = AppendRecord(buf, delta); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanGraphDeltas replays 300 graph-delta records.
func BenchmarkScanGraphDeltas(b *testing.B) {
	_, delta := benchDelta()
	var wal []byte
	for range 300 {
		var err error
		if wal, err = AppendRecord(wal, delta); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if recs, _, err := ScanWAL(wal); err != nil || len(recs) != 300 {
			b.Fatalf("%d records, %v", len(recs), err)
		}
	}
}
