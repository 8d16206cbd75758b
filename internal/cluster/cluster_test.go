package cluster

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
)

// testSource is an in-memory Source over explicit rows.
type testSource struct {
	bits int
	rows [][]uint64
}

func (s *testSource) NumUsers() int      { return len(s.rows) }
func (s *testSource) NumBits() int       { return s.bits }
func (s *testSource) Row(i int) []uint64 { return s.rows[i] }

// randomSource builds n rows of the given bit length with ~density set
// bits each.
func randomSource(n, bits int, density float64, seed int64) *testSource {
	rng := rand.New(rand.NewSource(seed))
	words := (bits + 63) / 64
	s := &testSource{bits: bits, rows: make([][]uint64, n)}
	for i := range s.rows {
		row := make([]uint64, words)
		for b := 0; b < bits; b++ {
			if rng.Float64() < density {
				row[b>>6] |= 1 << uint(b&63)
			}
		}
		s.rows[i] = row
	}
	return s
}

// checkPartition verifies that every view is a partition of all users
// with clusters no larger than maxSize and members in ascending order.
func checkPartition(t *testing.T, a *Assignment, n, views, maxSize int) {
	t.Helper()
	if len(a.Views) != views {
		t.Fatalf("got %d views, want %d", len(a.Views), views)
	}
	for vi, v := range a.Views {
		seen := make([]bool, n)
		total := 0
		for ci, members := range v.Clusters {
			if len(members) == 0 {
				t.Fatalf("view %d cluster %d is empty", vi, ci)
			}
			if len(members) > maxSize {
				t.Fatalf("view %d cluster %d has %d members, max %d", vi, ci, len(members), maxSize)
			}
			for i, u := range members {
				if u < 0 || int(u) >= n {
					t.Fatalf("view %d cluster %d member %d out of range", vi, ci, u)
				}
				if seen[u] {
					t.Fatalf("view %d assigns user %d twice", vi, u)
				}
				seen[u] = true
				if i > 0 && members[i-1] >= u {
					t.Fatalf("view %d cluster %d members not ascending", vi, ci)
				}
				total++
			}
		}
		if total != n {
			t.Fatalf("view %d covers %d of %d users", vi, total, n)
		}
		// ClustersOfKey must index every cluster exactly once.
		indexed := make([]bool, len(v.Clusters))
		for _, cis := range v.ClustersOfKey {
			for _, ci := range cis {
				if indexed[ci] {
					t.Fatalf("view %d cluster %d indexed twice in ClustersOfKey", vi, ci)
				}
				indexed[ci] = true
			}
		}
		for ci, ok := range indexed {
			if !ok {
				t.Fatalf("view %d cluster %d missing from ClustersOfKey", vi, ci)
			}
		}
	}
}

func TestAssignPartition(t *testing.T) {
	src := randomSource(500, 256, 0.2, 1)
	cfg := Config{Views: 3, MaxSize: 64, Seed: 42}
	a := Assign(src, cfg)
	checkPartition(t, a, 500, 3, 64)
}

func TestAssignDeterministicAcrossWorkers(t *testing.T) {
	src := randomSource(300, 128, 0.15, 2)
	cfg := Config{Views: 4, MaxSize: 32, Seed: 7}
	var ref *Assignment
	for _, workers := range []int{1, 2, 5} {
		cfg.Workers = workers
		a := Assign(src, cfg)
		if ref == nil {
			ref = a
			continue
		}
		if !reflect.DeepEqual(a.Views[0].Clusters, ref.Views[0].Clusters) {
			t.Fatalf("workers=%d changed view 0 clustering", workers)
		}
		for vi := range a.Views {
			if !reflect.DeepEqual(a.Views[vi].ClustersOfKey, ref.Views[vi].ClustersOfKey) {
				t.Fatalf("workers=%d changed view %d key index", workers, vi)
			}
		}
	}
}

func TestAssignSeedChangesClustering(t *testing.T) {
	src := randomSource(400, 256, 0.2, 3)
	a := Assign(src, Config{Views: 1, MaxSize: 64, Seed: 1})
	b := Assign(src, Config{Views: 1, MaxSize: 64, Seed: 2})
	if reflect.DeepEqual(a.Views[0].Clusters, b.Views[0].Clusters) {
		t.Fatal("different seeds produced identical clusterings")
	}
}

func TestAssignViewsAreIndependent(t *testing.T) {
	src := randomSource(400, 256, 0.2, 4)
	a := Assign(src, Config{Views: 2, MaxSize: 64, Seed: 5})
	if reflect.DeepEqual(a.Views[0].Clusters, a.Views[1].Clusters) {
		t.Fatal("two views produced identical clusterings")
	}
}

// TestAssignSplitsOversized is the recursive-split property test: a
// corpus whose rows collide heavily at the top level must still respect
// MaxSize, including groups of bit-identical rows that no hash can
// separate (chunk fallback) and fully empty rows (sentinel bucket).
func TestAssignSplitsOversized(t *testing.T) {
	const n, bits = 600, 192
	src := &testSource{bits: bits, rows: make([][]uint64, n)}
	words := (bits + 63) / 64
	shared := make([]uint64, words)
	shared[0] = 0xff // identical rows: chunk fallback path
	for i := 0; i < n/3; i++ {
		src.rows[i] = shared
	}
	for i := n / 3; i < 2*n/3; i++ {
		row := make([]uint64, words)
		row[0] = 0xff // same top-level min-hash candidates, plus one extra bit
		row[(i%words+words)%words] |= 1 << uint(i%64)
		src.rows[i] = row
	}
	for i := 2 * n / 3; i < n; i++ {
		src.rows[i] = make([]uint64, words) // empty: sentinel bucket
	}
	for _, maxSize := range []int{7, 16, 50} {
		a := Assign(src, Config{Views: 2, MaxSize: maxSize, Seed: 9, Buckets: 1})
		checkPartition(t, a, n, 2, maxSize)
	}
}

func TestAssignSingleBucketWhenTiny(t *testing.T) {
	// n far below MaxSize/4 × 1 bucket: everything must land in one
	// cluster per view, making downstream builds exact.
	src := randomSource(50, 256, 0.2, 6)
	a := Assign(src, Config{Views: 2, MaxSize: 512, Seed: 1})
	for vi, v := range a.Views {
		if len(v.Clusters) != 1 {
			t.Fatalf("view %d has %d clusters, want 1 for n=50", vi, len(v.Clusters))
		}
	}
}

func TestAssignCancellation(t *testing.T) {
	src := randomSource(200, 128, 0.2, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := Assign(src, Config{Views: 3, MaxSize: 64, Seed: 1, Ctx: ctx})
	if len(a.Views) != 0 {
		t.Fatalf("pre-canceled Assign returned %d views, want 0", len(a.Views))
	}
}

func TestSeedsComeFromMatchingBuckets(t *testing.T) {
	src := randomSource(500, 256, 0.2, 10)
	a := Assign(src, Config{Views: 3, MaxSize: 64, Seed: 11})
	for _, u := range []int{0, 123, 499} {
		seeds := a.Seeds(src.Row(u), 8)
		if len(seeds) == 0 {
			t.Fatalf("no seeds for user %d", u)
		}
		if len(seeds) > 8 {
			t.Fatalf("got %d seeds, max 8", len(seeds))
		}
		seen := map[int32]bool{}
		for _, s := range seeds {
			if seen[s] {
				t.Fatalf("duplicate seed %d", s)
			}
			seen[s] = true
		}
		// Every seed must share a top-level bucket with u in some view.
		for _, s := range seeds {
			ok := false
			for vi := range a.Views {
				if a.Views[vi].Key(src.Row(u)) == a.Views[vi].Key(src.Row(int(s))) {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("seed %d shares no bucket with user %d", s, u)
			}
		}
	}
}

func TestKeyMatchesAssignment(t *testing.T) {
	src := randomSource(300, 256, 0.2, 12)
	a := Assign(src, Config{Views: 2, MaxSize: 64, Seed: 13})
	for vi := range a.Views {
		v := &a.Views[vi]
		for key, cis := range v.ClustersOfKey {
			for _, ci := range cis {
				for _, u := range v.Clusters[ci] {
					if got := v.Key(src.Row(int(u))); got != key {
						t.Fatalf("view %d user %d: Key=%d but assigned under %d", vi, u, got, key)
					}
				}
			}
		}
	}
}

// seedsWithMap is Seeds as it was written before the dedup became a scan
// of the output: the same walk, membership kept in a map. It also returns
// how many ids the dedup dropped.
func seedsWithMap(a *Assignment, row []uint64, max int) (out []int32, dropped int) {
	if max <= 0 || len(a.Views) == 0 {
		return nil, 0
	}
	out = make([]int32, 0, max)
	seen := make(map[int32]bool, max)
	perView := (max + len(a.Views) - 1) / len(a.Views)
	for vi := range a.Views {
		v := &a.Views[vi]
		key := v.Key(row)
		if key < 0 || key >= len(v.ClustersOfKey) {
			continue
		}
		took := 0
		for rank := 0; took < perView; rank++ {
			advanced := false
			for _, ci := range v.ClustersOfKey[key] {
				members := v.Clusters[ci]
				if rank >= len(members) {
					continue
				}
				advanced = true
				id := members[rank]
				if seen[id] {
					dropped++
				} else {
					seen[id] = true
					out = append(out, id)
					took++
					if took >= perView || len(out) >= max {
						break
					}
				}
			}
			if !advanced || len(out) >= max {
				break
			}
		}
		if len(out) >= max {
			break
		}
	}
	return out, dropped
}

// TestSeedsMatchMapDedup pins the allocation-free dedup of Seeds to the
// map version it replaced, on an assignment whose buckets split (so the
// round-robin crosses clusters) and whose views overlap (so ids repeat
// across views), for member rows, foreign rows and the empty row.
func TestSeedsMatchMapDedup(t *testing.T) {
	src := randomSource(3000, 256, 0.1, 21)
	a := Assign(src, Config{MaxSize: 32, Buckets: 16, Seed: 22})
	rows := append(randomSource(200, 256, 0.1, 23).rows, make([]uint64, 4))
	for u := 0; u < src.NumUsers(); u += 7 {
		rows = append(rows, src.Row(u))
	}
	dropped := 0
	for _, row := range rows {
		for _, max := range []int{1, 5, 48, 200} {
			want, d := seedsWithMap(a, row, max)
			if got := a.Seeds(row, max); !reflect.DeepEqual(got, want) {
				t.Fatalf("max=%d: Seeds %v, map version %v", max, got, want)
			}
			dropped += d
		}
	}
	if dropped == 0 {
		t.Fatal("no id repeated across views; the fixture does not exercise the dedup")
	}
}
