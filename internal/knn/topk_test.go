package knn

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

func bruteTopK(sims []float64, k int) []Neighbor {
	all := make([]Neighbor, len(sims))
	for i, s := range sims {
		all[i] = Neighbor{ID: int32(i), Sim: s}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Sim != all[j].Sim {
			return all[i].Sim > all[j].Sim
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func TestTopKMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		k := 1 + rng.Intn(20)
		sims := make([]float64, n)
		for i := range sims {
			// Coarse quantization produces plenty of exact ties.
			sims[i] = float64(rng.Intn(8)) / 8
		}
		want := bruteTopK(sims, k)
		for _, workers := range []int{1, 2, 3, 7, 16} {
			got := TopK(n, k, workers, func(i int) float64 { return sims[i] })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d k=%d workers=%d: got %v, want %v", n, k, workers, got, want)
			}
		}
	}
}

func TestTopKAllTies(t *testing.T) {
	// Every candidate has the same similarity: the k lowest ids must win,
	// in id order, for any worker count.
	const n, k = 100, 7
	for _, workers := range []int{0, 1, 4, 13} {
		got := TopK(n, k, workers, func(int) float64 { return 0.5 })
		if len(got) != k {
			t.Fatalf("workers=%d: got %d entries, want %d", workers, len(got), k)
		}
		for i, nb := range got {
			if nb.ID != int32(i) || nb.Sim != 0.5 {
				t.Errorf("workers=%d: entry %d = %+v, want id %d", workers, i, nb, i)
			}
		}
	}
}

func TestTopKEdgeCases(t *testing.T) {
	if got := TopK(0, 5, 2, func(int) float64 { return 0 }); got != nil {
		t.Errorf("n=0: got %v, want nil", got)
	}
	if got := TopK(5, 0, 2, func(int) float64 { return 0 }); got != nil {
		t.Errorf("k=0: got %v, want nil", got)
	}
	// k larger than n returns all candidates, sorted.
	got := TopK(3, 10, 8, func(i int) float64 { return float64(i) })
	if len(got) != 3 || got[0].ID != 2 || got[2].ID != 0 {
		t.Errorf("k>n: got %v", got)
	}
}

// TestTopKRangeMatchesTopK: the range-batched kernel form must reproduce
// TopK exactly — ties, boundaries, worker counts, and tile-straddling
// shards included.
func TestTopKRangeMatchesTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 30; trial++ {
		// n above topkColTile exercises multi-tile shards.
		n := 1 + rng.Intn(700)
		k := 1 + rng.Intn(20)
		sims := make([]float64, n)
		for i := range sims {
			sims[i] = float64(rng.Intn(8)) / 8
		}
		want := bruteTopK(sims, k)
		for _, workers := range []int{1, 3, 16} {
			got := TopKRange(n, k, workers, func(lo, hi int, out []float64) {
				copy(out, sims[lo:hi])
			})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d k=%d workers=%d: got %v, want %v", n, k, workers, got, want)
			}
		}
	}
}

func TestTopKHugeKDoesNotPanic(t *testing.T) {
	// k flows in from an attacker-controlled query parameter: an absurd
	// value must be clamped to n, not preallocated (makeslice panic).
	got := TopK(3, math.MaxInt, 2, func(i int) float64 { return float64(i) })
	if len(got) != 3 || got[0].ID != 2 || got[2].ID != 0 {
		t.Errorf("huge k: got %v", got)
	}
}

// TestTopKCtxMatchesTopK pins the ctx variants to the plain ones on a live
// context: same input, bit-identical output, nil error.
func TestTopKCtxMatchesTopK(t *testing.T) {
	const n, k = 1000, 7
	rng := rand.New(rand.NewSource(11))
	sims := make([]float64, n)
	for i := range sims {
		sims[i] = rng.Float64()
	}
	want := TopK(n, k, 3, func(i int) float64 { return sims[i] })
	got, err := TopKCtx(context.Background(), n, k, 3, func(i int) float64 { return sims[i] })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TopKCtx diverged: got %v, want %v", got, want)
	}
	gotR, err := TopKRangeCtx(context.Background(), n, k, 3, func(lo, hi int, out []float64) {
		copy(out, sims[lo:hi])
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotR, want) {
		t.Errorf("TopKRangeCtx diverged: got %v, want %v", gotR, want)
	}
}

// TestTopKRangeCtxPreCanceled: a context that is already dead must refuse
// the scan before a single kernel call runs.
func TestTopKRangeCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	called := false
	got, err := TopKRangeCtx(ctx, 1000, 5, 2, func(lo, hi int, out []float64) { called = true })
	if !errors.Is(err, context.Canceled) || got != nil {
		t.Fatalf("pre-canceled scan: got %v, err %v", got, err)
	}
	if called {
		t.Error("kernel ran under a dead context")
	}
}

// TestTopKRangeCtxCancelMidScan cancels after the first tile: the scan
// must stop within a bounded number of further kernel calls (one in-flight
// tile per worker) and report the cancellation, not a partial result.
func TestTopKRangeCtxCancelMidScan(t *testing.T) {
	const n = 64 * topkColTile
	ctx, cancel := context.WithCancel(context.Background())
	var tiles atomic.Int64
	got, err := TopKRangeCtx(ctx, n, 5, 2, func(lo, hi int, out []float64) {
		if tiles.Add(1) == 1 {
			cancel()
		}
		for i := range out {
			out[i] = float64(lo + i)
		}
	})
	if !errors.Is(err, context.Canceled) || got != nil {
		t.Fatalf("mid-scan cancel: got %v, err %v", got, err)
	}
	// 2 workers × 32 tiles each; after the cancel each worker may finish
	// the tile it is in plus start at most the one it dequeued before the
	// flag flipped. Anything close to the full 64 means polling is broken.
	if c := tiles.Load(); c > 8 {
		t.Errorf("scan ran %d tiles after cancellation, want ≤ 8", c)
	}
}

// TestTopKRangeCtxDeadline: an expiring deadline aborts the scan with
// context.DeadlineExceeded even when the kernel itself never checks time.
func TestTopKRangeCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	const n = 1024 * topkColTile
	got, err := TopKRangeCtx(ctx, n, 3, 1, func(lo, hi int, out []float64) {
		time.Sleep(time.Millisecond) // ~1s total scan without the deadline
		for i := range out {
			out[i] = 0.5
		}
	})
	if !errors.Is(err, context.DeadlineExceeded) || got != nil {
		t.Fatalf("deadline scan: got %v, err %v", got, err)
	}
}

// BenchmarkTopK measures the parallel sharded top-k scan the service's
// /query endpoint rides on, across worker counts.
func BenchmarkTopK(b *testing.B) {
	const n, k = 100000, 10
	sims := make([]float64, n)
	rng := rand.New(rand.NewSource(3))
	for i := range sims {
		sims[i] = rng.Float64()
	}
	for _, workers := range []int{1, 4, 0} {
		name := "workers=gomaxprocs"
		if workers > 0 {
			name = "workers=" + string(rune('0'+workers))
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := TopK(n, k, workers, func(i int) float64 { return sims[i] }); len(got) != k {
					b.Fatal("short result")
				}
			}
		})
	}
}

// FuzzTopKSet checks the one bounded top-k set against sort-then-truncate
// under compareRank. data[0] picks the row count, data[1] the bound k
// (often above a row's candidate count); each following byte pair is a
// candidate — row and id from the first byte, similarity from the second,
// drawn from four values so ties are common. Ids arrive in no particular
// order, and an id offered to a row twice is dropped (the set's callers
// never repeat one). admits must predict every insert, and a reset row
// refilled in reverse order must select the same set.
func FuzzTopKSet(f *testing.F) {
	f.Add([]byte{1, 3, 10, 1, 20, 1, 30, 2, 5, 2, 40, 0})
	f.Add([]byte{3, 50, 0, 3, 1, 3, 2, 3, 4, 0, 5, 1, 7, 2})
	f.Add([]byte{2, 1, 9, 1, 8, 1, 7, 1, 6, 1, 5, 1, 4, 1})
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		rows, k := 1+int(data[0]%4), 1+int(data[1]%40)
		cands := make([][]Neighbor, rows)
		seen := map[[2]int]bool{}
		for x := 2; x+1 < len(data); x += 2 {
			row, id := int(data[x])%rows, int32(data[x]/4)
			if seen[[2]int{row, int(id)}] {
				continue
			}
			seen[[2]int{row, int(id)}] = true
			cands[row] = append(cands[row], Neighbor{ID: id, Sim: float64(data[x+1]%4) / 4})
		}
		set := newTopkSet(rows, k)
		for pass := 0; pass < 2; pass++ {
			for r, cs := range cands {
				set.reset(r)
				for x := range cs {
					c := cs[x]
					if pass == 1 {
						c = cs[len(cs)-1-x]
					}
					if admits, took := set.admits(r, c.ID, c.Sim), set.insert(r, c.ID, c.Sim); admits != took {
						t.Fatalf("row %d: admits(%v) = %v, insert = %v", r, c, admits, took)
					}
				}
			}
			for r, cs := range cands {
				want := slices.Clone(cs)
				slices.SortFunc(want, compareRank)
				want = want[:min(k, len(want))]
				if got := set.sorted(r); !slices.Equal(got, want) {
					t.Fatalf("pass %d row %d (k=%d): sorted = %v, want %v", pass, r, k, got, want)
				}
				if got := len(set.row(r)); got != len(want) {
					t.Fatalf("pass %d row %d: row holds %d entries, want %d", pass, r, got, len(want))
				}
			}
		}
	})
}
