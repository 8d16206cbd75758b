package router

import (
	"fmt"
	"testing"
)

func shardNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("shard-%d", i)
	}
	return names
}

// Property: growing the ring N -> N+1 moves at most c/N of a 100k-user id
// space, every moved id lands on the newcomer, and the segment plan the
// delta produces covers exactly the moved ids — no overlap, no gaps.
func TestDeltaGrowMovesBoundedFraction(t *testing.T) {
	const users = 100_000
	for _, n := range []int{2, 3, 4, 8} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			oldNames := shardNames(n)
			newNames := shardNames(n + 1)
			newcomer := newNames[n]
			d := ComputeDelta(oldNames, newNames)

			oldP := NewPlacement(oldNames, 0)
			newP := NewPlacement(newNames, 0)
			moved := 0
			for u := 0; u < users; u++ {
				id := fmt.Sprintf("user-%07d", u)
				from := oldNames[oldP.Owner(id)]
				to := newNames[newP.Owner(id)]
				key := KeyOf(id)

				inSegs := 0
				for _, s := range d.Segments {
					if s.Contains(key) {
						inSegs++
						if s.From != from || s.To != to {
							t.Fatalf("id %s in segment %v but owners are %s->%s", id, s, from, to)
						}
					}
				}
				if from != to {
					moved++
					if to != newcomer {
						t.Fatalf("id %s moved %s->%s; adding a shard must only move ids to it", id, from, to)
					}
					if inSegs != 1 {
						t.Fatalf("moved id %s covered by %d segments, want exactly 1", id, inSegs)
					}
					if f, to2, ok := d.Moved(id); !ok || f != from || to2 != to {
						t.Fatalf("Delta.Moved(%s) = (%s,%s,%v), want (%s,%s,true)", id, f, to2, ok, from, to)
					}
				} else {
					if inSegs != 0 {
						t.Fatalf("unmoved id %s covered by %d segments, want 0", id, inSegs)
					}
					if _, _, ok := d.Moved(id); ok {
						t.Fatalf("Delta.Moved(%s) reports moved but owners agree", id)
					}
				}
			}

			// Consistent hashing's whole point: the newcomer takes ~1/(N+1)
			// of the space; allow 2x for vnode placement variance.
			bound := int(2.0 / float64(n) * users)
			if moved > bound {
				t.Fatalf("n=%d->%d moved %d of %d ids, above c/N bound %d", n, n+1, moved, users, bound)
			}
			if moved == 0 {
				t.Fatalf("n=%d->%d moved nothing; delta is broken", n, n+1)
			}
			for _, mv := range d.Moves {
				if mv.To != newcomer {
					t.Fatalf("move pair %v gains at a non-newcomer shard", mv)
				}
			}
		})
	}
}

// Property: shrinking the ring only moves ids off the leaver, and the
// delta's segments are pairwise disjoint arcs.
func TestDeltaShrinkMovesOnlyLeaver(t *testing.T) {
	const users = 20_000
	oldNames := shardNames(4)
	newNames := shardNames(3) // shard-3 leaves
	d := ComputeDelta(oldNames, newNames)

	for _, mv := range d.Moves {
		if mv.From != "shard-3" {
			t.Fatalf("move pair %v loses at a non-leaver shard", mv)
		}
	}
	oldP := NewPlacement(oldNames, 0)
	newP := NewPlacement(newNames, 0)
	for u := 0; u < users; u++ {
		id := fmt.Sprintf("user-%06d", u)
		from := oldNames[oldP.Owner(id)]
		to := newNames[newP.Owner(id)]
		if from != to && from != "shard-3" {
			t.Fatalf("id %s moved %s->%s on a shard-3 departure", id, from, to)
		}
	}

	// Segment disjointness, checked structurally: no segment's boundary
	// falls strictly inside another.
	for i, a := range d.Segments {
		for j, b := range d.Segments {
			if i == j {
				continue
			}
			if b.Contains(a.Hi) || (a.Lo != b.Lo && b.Contains(incWrap(a.Lo))) && a.Contains(incWrap(a.Lo)) {
				t.Fatalf("segments %d and %d overlap: %+v vs %+v", i, j, a, b)
			}
		}
	}
}

func incWrap(x uint64) uint64 { return x + 1 }

// An unchanged shard list yields an empty delta.
func TestDeltaIdentityIsEmpty(t *testing.T) {
	names := shardNames(5)
	d := ComputeDelta(names, names)
	if len(d.Segments) != 0 || len(d.Moves) != 0 {
		t.Fatalf("identity delta not empty: %d segments, %d moves", len(d.Segments), len(d.Moves))
	}
}
