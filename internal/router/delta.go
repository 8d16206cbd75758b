package router

import (
	"hash/fnv"
	"sort"
)

// This file computes ring deltas: the exact set of hash-space arcs whose
// owner changes between two placements. Consistent hashing bounds the
// moved fraction to roughly the joining/leaving shard's share (~1/N), and
// the delta is what the migration driver turns into per-(from,to) transfer
// plans. Shard names — not indices — identify owners here, because the two
// placements index their shard lists differently.

// KeyOf maps a user id to its position on the hash ring. It is the same
// hash Placement.Owner applies, exported so migration planning and tests
// can reason about ids and ring arcs interchangeably.
func KeyOf(id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return mix64(h.Sum64())
}

// ownerOfKey returns the shard index owning a raw ring position.
func (p *Placement) ownerOfKey(key uint64) int {
	if len(p.points) == 0 {
		return -1
	}
	i := sort.Search(len(p.points), func(i int) bool { return p.points[i].hash >= key })
	if i == len(p.points) {
		i = 0 // wrap: the ring is circular
	}
	return int(p.points[i].shard)
}

// OwnerName returns the name of the shard owning id under the placement
// built from names (names must be the list the placement was built from).
func (p *Placement) OwnerName(names []string, id string) string {
	i := p.Owner(id)
	if i < 0 || i >= len(names) {
		return ""
	}
	return names[i]
}

// Segment is one moved arc of the ring: every key k with
// Lo < k <= Hi (wrapping through the top of the hash space when Lo >= Hi)
// changes owner From -> To. Segments produced by ComputeDelta are
// pairwise disjoint and together cover exactly the moved keys.
type Segment struct {
	Lo, Hi   uint64
	From, To string
}

// Contains reports whether a ring position falls inside the arc.
func (s Segment) Contains(key uint64) bool {
	if s.Lo < s.Hi {
		return key > s.Lo && key <= s.Hi
	}
	// The arc wraps through the top of the hash space.
	return key > s.Lo || key <= s.Hi
}

// Move is one (losing shard, gaining shard) pair in a migration plan.
type Move struct {
	From, To string
}

// Delta is the full ring change between an old and a new placement.
type Delta struct {
	OldNames []string
	NewNames []string
	Segments []Segment // moved arcs, pairwise disjoint
	Moves    []Move    // unique (From,To) pairs, in first-seen arc order

	oldP, newP *Placement
}

// ComputeDelta diffs the rings built from the two shard-name lists, at
// the default virtual-node count every router and shard builds.
func ComputeDelta(oldNames, newNames []string) *Delta {
	oldP := NewPlacement(oldNames, 0)
	newP := NewPlacement(newNames, 0)
	d := &Delta{OldNames: oldNames, NewNames: newNames, oldP: oldP, newP: newP}

	// Collect the union of both rings' point hashes. Ownership is constant
	// on every arc between two consecutive union points, in both rings, so
	// evaluating each ring once per arc enumerates every ownership change.
	bounds := make([]uint64, 0, len(oldP.points)+len(newP.points))
	for _, pt := range oldP.points {
		bounds = append(bounds, pt.hash)
	}
	for _, pt := range newP.points {
		bounds = append(bounds, pt.hash)
	}
	sort.Slice(bounds, func(a, b int) bool { return bounds[a] < bounds[b] })
	bounds = dedupUint64(bounds)
	if len(bounds) == 0 {
		return d
	}

	seenMove := make(map[Move]bool)
	for i := range bounds {
		hi := bounds[i]
		lo := bounds[(i+len(bounds)-1)%len(bounds)] // previous point; wraps for i==0
		if len(bounds) == 1 {
			lo = hi // single point: the arc is the whole ring
		}
		from := nameAt(oldNames, oldP.ownerOfKey(hi))
		to := nameAt(newNames, newP.ownerOfKey(hi))
		if from == to {
			continue
		}
		seg := Segment{Lo: lo, Hi: hi, From: from, To: to}
		// Coalesce with the previous segment when the arcs are adjacent and
		// move between the same pair — keeps the plan compact.
		if n := len(d.Segments); n > 0 && d.Segments[n-1].Hi == lo &&
			d.Segments[n-1].From == from && d.Segments[n-1].To == to {
			d.Segments[n-1].Hi = hi
		} else {
			d.Segments = append(d.Segments, seg)
		}
		mv := Move{From: from, To: to}
		if !seenMove[mv] {
			seenMove[mv] = true
			d.Moves = append(d.Moves, mv)
		}
	}
	return d
}

// Moved reports whether id changes owner under the delta, and between
// which shards.
func (d *Delta) Moved(id string) (from, to string, moved bool) {
	f := nameAt(d.OldNames, d.oldP.Owner(id))
	t := nameAt(d.NewNames, d.newP.Owner(id))
	if f == t {
		return "", "", false
	}
	return f, t, true
}

func nameAt(names []string, i int) string {
	if i < 0 || i >= len(names) {
		return ""
	}
	return names[i]
}

func dedupUint64(xs []uint64) []uint64 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}
