package knn

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"goldfinger/internal/core"
	"goldfinger/internal/dataset"
)

// TestGoldenBuilds pins the exact output of both graph builders and of the
// exact scan on an ML10M-shaped corpus: an FNV-64a hash over every
// (id, sim) entry of the Cluster-and-Conquer graph (3000 users, default
// config), of the BruteForce graph (the first 1000 users) and of 50
// TopKRange answers, plus the builders' comparison counts and
// Cluster-and-Conquer's update count. A refactor of the selection or merge
// code must leave every one of them bit-identical.
//
// BruteForce's Updates is not pinned: it depends on which worker claimed
// which row block, so it varies between runs of the same build.
func TestGoldenBuilds(t *testing.T) {
	cases := []struct {
		seed               int64
		cc, brute, topk    uint64
		ccComps, ccUpdates int64
		bruteComps         int64
	}{
		{seed: 42, cc: 0x5a198ef4d41b38c7, brute: 0x1ee1f5614f34aa53, topk: 0xec4522427889f81f,
			ccComps: 3077654, ccUpdates: 695121, bruteComps: 499500},
		{seed: 1234, cc: 0x9443c511c27314cb, brute: 0xba84758704252fa0, topk: 0x80729f57c132b941,
			ccComps: 3056321, ccUpdates: 666977, bruteComps: 499500},
	}
	for _, c := range cases {
		t.Run(fmt.Sprint(c.seed), func(t *testing.T) {
			d := dataset.Generate(dataset.ML10M, 3000/float64(dataset.ML10M.Users), c.seed)
			scheme := core.MustScheme(1024, uint64(c.seed))
			p := NewSHFProvider(scheme, d.Profiles)
			const k = 10

			cc, _, ccStats := ClusterConquerWith(p, k, Options{Seed: c.seed}, ClusterConfig{})
			bf, bfStats := BruteForce(NewSHFProvider(scheme, d.Profiles[:1000]), k, Options{Seed: c.seed})

			corpus := p.corpus()
			h := fnv.New64a()
			for q := 0; q < 50; q++ {
				fp := corpus.Fingerprint(q * 59)
				ans := TopKRange(corpus.NumUsers(), []int{1, 10, 30}[q%3], 3, func(lo, hi int, out []float64) {
					corpus.JaccardQueryInto(fp, lo, hi, out)
				})
				hashRow(h, ans)
			}

			got := []struct {
				name       string
				have, want uint64
			}{
				{"cluster graph hash", graphHash(cc), c.cc},
				{"brute graph hash", graphHash(bf), c.brute},
				{"topk answers hash", h.Sum64(), c.topk},
				{"cluster comparisons", uint64(ccStats.Comparisons), uint64(c.ccComps)},
				{"cluster updates", uint64(ccStats.Updates), uint64(c.ccUpdates)},
				{"brute comparisons", uint64(bfStats.Comparisons), uint64(c.bruteComps)},
			}
			for _, g := range got {
				if g.have != g.want {
					t.Errorf("%s = %#x (%d), want %#x", g.name, g.have, g.have, g.want)
				}
			}
		})
	}
}

// graphHash is an FNV-64a hash over every row's length and (id, sim)
// entries, in row order.
func graphHash(g *Graph) uint64 {
	h := fnv.New64a()
	for _, row := range g.Neighbors {
		hashRow(h, row)
	}
	return h.Sum64()
}

func hashRow(h hash.Hash64, row []Neighbor) {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(row)))
	for _, nb := range row {
		b = binary.LittleEndian.AppendUint32(b, uint32(nb.ID))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(nb.Sim))
	}
	h.Write(b)
}
