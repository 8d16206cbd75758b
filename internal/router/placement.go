// Package router is the scatter-gather tier of the sharded KNN service:
// it places users on shard-cores with a consistent-hash ring, fans /query
// out to every shard and merges the per-shard top-k deterministically,
// routes mutations to the owning shard, and survives slow, dead and
// flapping shards with hedged requests, bounded retries, per-shard
// circuit breakers and partial-result degradation.
//
// The failure contract mirrors how the rest of the system degrades
// (Debatty et al., arXiv:1602.06819 — survive churn by degrading, not
// blocking): when a minority of shards is down a query still answers 200,
// with an X-Partial-Results: served/total header naming the lost
// coverage; only when coverage falls below the configured quorum does the
// router answer 503, and then always with a Retry-After computed from the
// sick shards' breaker half-open deadlines. Recall degrades proportionally
// to the lost coverage — each shard owns a disjoint subset of the users,
// so losing one of N shards loses at most its share of any neighborhood,
// never the whole answer.
package router

import (
	"hash/fnv"
	"sort"
)

// defaultReplicas is the number of virtual nodes per shard on the hash
// ring. 128 points per shard keeps the max/min ownership spread within a
// few percent for small shard counts while the ring stays tiny (N×128
// 12-byte points).
const defaultReplicas = 128

// Placement maps user ids onto shards with a consistent-hash ring: each
// shard projects `replicas` virtual points onto the ring, and a user is
// owned by the shard whose point follows the user's hash clockwise.
// Adding or removing one shard therefore moves only ~1/N of the users —
// the property every later rebalancing feature rides on. Placement is
// deterministic across processes for a fixed shard-name list, so the
// router and every shard-core (which uses it to reject misrouted ids with
// 421) agree on ownership without coordination.
//
// Placement is immutable after construction and safe for concurrent use.
type Placement struct {
	points []ringPoint
	n      int
}

type ringPoint struct {
	hash  uint64
	shard int32
}

// mix64 is the splitmix64 finalizer. FNV-1a alone avalanches poorly on
// short inputs that differ only in trailing bytes (sequential replica
// counters, "user-<n>" ids), which skews ring ownership badly — measured
// >50% on one of four shards. One multiply-xorshift round restores the
// uniformity consistent hashing needs.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NewPlacement builds the ring for the given shard names (order matters
// only for the shard indices Owner returns). replicas ≤ 0 selects the
// default, which is what the router and every shard build: the ring
// message carries names only, so a ring at another count would disagree
// with theirs.
func NewPlacement(shards []string, replicas int) *Placement {
	if replicas <= 0 {
		replicas = defaultReplicas
	}
	p := &Placement{n: len(shards), points: make([]ringPoint, 0, len(shards)*replicas)}
	var buf [8]byte
	for i, name := range shards {
		for r := 0; r < replicas; r++ {
			h := fnv.New64a()
			h.Write([]byte(name))
			buf[0] = '#'
			buf[1] = byte(r)
			buf[2] = byte(r >> 8)
			buf[3] = byte(r >> 16)
			buf[4] = byte(r >> 24)
			h.Write(buf[:5])
			p.points = append(p.points, ringPoint{hash: mix64(h.Sum64()), shard: int32(i)})
		}
	}
	sort.Slice(p.points, func(a, b int) bool {
		if p.points[a].hash != p.points[b].hash {
			return p.points[a].hash < p.points[b].hash
		}
		// Hash collisions between virtual points are broken by shard index
		// so the ring order — and therefore ownership — is deterministic.
		return p.points[a].shard < p.points[b].shard
	})
	return p
}

// NumShards returns the number of shards on the ring.
func (p *Placement) NumShards() int { return p.n }

// Owner returns the index of the shard owning the given user id, or -1
// for an empty ring.
func (p *Placement) Owner(id string) int {
	if len(p.points) == 0 {
		return -1
	}
	h := fnv.New64a()
	h.Write([]byte(id))
	key := mix64(h.Sum64())
	i := sort.Search(len(p.points), func(i int) bool { return p.points[i].hash >= key })
	if i == len(p.points) {
		i = 0 // wrap: the ring is circular
	}
	return int(p.points[i].shard)
}
