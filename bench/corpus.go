package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"goldfinger/internal/core"
	"goldfinger/internal/dataset"
	"goldfinger/internal/knn"
	"goldfinger/internal/profile"
)

// corpus is the generated input every workload shares: an ML10M-shaped
// member set plus held-out profiles from the same generator. Everything is
// a function of (scale, seed); the program under test only ever receives
// the fingerprints.
type corpus struct {
	sc       scale
	scheme   *core.Scheme
	profiles []profile.Profile  // N members then Held held-out
	fps      []core.Fingerprint // same order
	bodies   [][]byte           // wire form of fps
}

func newCorpus(sc scale, seed int64) (*corpus, error) {
	scaleF := float64(sc.N+sc.Held+2) / float64(dataset.ML10M.Users)
	ds := dataset.Generate(dataset.ML10M, scaleF, seed)
	if len(ds.Profiles) < sc.N+sc.Held {
		return nil, fmt.Errorf("generator produced %d users, need %d", len(ds.Profiles), sc.N+sc.Held)
	}
	scheme, err := core.NewScheme(sc.Bits, uint64(seed))
	if err != nil {
		return nil, err
	}
	c := &corpus{sc: sc, scheme: scheme, profiles: ds.Profiles[:sc.N+sc.Held]}
	c.fps = scheme.FingerprintAllParallel(c.profiles, 0)
	c.bodies = make([][]byte, len(c.fps))
	for i, fp := range c.fps {
		var b bytes.Buffer
		b.Grow(fp.SizeBytes() + 8)
		if err := core.WriteFingerprint(&b, fp); err != nil {
			return nil, err
		}
		c.bodies[i] = b.Bytes()
	}
	return c, nil
}

// heldFP / heldBody address the held-out profiles by their own index.
func (c *corpus) heldFP(i int) core.Fingerprint { return c.fps[c.sc.N+i] }
func (c *corpus) heldBody(i int) []byte         { return c.bodies[c.sc.N+i] }

func memberID(i int) string { return fmt.Sprintf("u%d", i) }

// model is the benchmark's own record of what the served corpus must
// contain: the ground truth for the correctness gate and for recall over
// the live set. Mutations register at send time (the server may apply one
// before its ack reaches us) and settle at ack time.
type model struct {
	mu    sync.Mutex
	ids   []string
	index map[string]int
	fps   []core.Fingerprint
	// deletedAt is the generator clock (ns, see clock) at which a DELETE was
	// acked; 0 while the user is live.
	deletedAt []int64
	victims   victims
	acked     []ackedMutation
}

// victims is a seeded shuffle of the member indices: deletes take them
// from the front, overwrites from the back, so no two mutations of a run
// aim at the same user (until a run sends more than n/2 of them).
type victims []int

func newVictims(n int, seed int64) victims {
	return rand.New(rand.NewSource(seed ^ 0x51c71)).Perm(n)
}

// pick maps a mutation op to the member it targets.
func (v victims) pick(o op) int {
	half := len(v) / 2
	if o.Kind == opDelete {
		return v[o.Index%half]
	}
	return v[len(v)-1-o.Index%half]
}

// ackedMutation is one mutation the server acknowledged; the post-restart
// read-back checks each of them.
type ackedMutation struct {
	ID      string
	Deleted bool
}

func newModel(c *corpus, seed int64) *model {
	n := c.sc.N
	m := &model{
		ids:       make([]string, n, n+1024),
		index:     make(map[string]int, n+1024),
		fps:       append(make([]core.Fingerprint, 0, n+1024), c.fps[:n]...),
		deletedAt: make([]int64, n, n+1024),
		victims:   newVictims(n, seed),
	}
	for i := range m.ids {
		m.ids[i] = memberID(i)
		m.index[m.ids[i]] = i
	}
	return m
}

// begin registers a mutation about to be sent and returns the user id it
// addresses.
func (m *model) begin(o op) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch o.Kind {
	case opInsert:
		id := fmt.Sprintf("n%d", o.Index)
		if _, ok := m.index[id]; !ok {
			m.index[id] = len(m.ids)
			m.ids = append(m.ids, id)
			m.fps = append(m.fps, core.Fingerprint{}) // not live until acked
			m.deletedAt = append(m.deletedAt, 0)
		}
		return id
	case opOverwrite:
		v := m.victims.pick(o)
		m.deletedAt[v] = 0 // a PUT revives
		return m.ids[v]
	default:
		return m.ids[m.victims.pick(o)]
	}
}

// commit settles an acked mutation.
func (m *model) commit(o op, id string, fp core.Fingerprint, now int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := m.index[id]
	if o.Kind == opDelete {
		m.deletedAt[i] = now
	} else {
		m.fps[i] = fp
	}
	m.acked = append(m.acked, ackedMutation{ID: id, Deleted: o.Kind == opDelete})
}

func (m *model) ackedMutations() []ackedMutation {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]ackedMutation(nil), m.acked...)
}

// checkHits validates one 200 /query or /neighbors body against the
// model: sorted by decreasing similarity, at most k entries, every user
// known and not deleted before the request was sent.
func (m *model) checkHits(hits []hit, k int, sentAt int64) error {
	if len(hits) > k {
		return fmt.Errorf("%d results for k=%d", len(hits), k)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for j, h := range hits {
		if j > 0 && h.Similarity > hits[j-1].Similarity {
			return fmt.Errorf("results not sorted by similarity at %d", j)
		}
		i, ok := m.index[h.User]
		if !ok {
			return fmt.Errorf("result names unknown user %q", h.User)
		}
		if d := m.deletedAt[i]; d != 0 && d < sentAt {
			return fmt.Errorf("result names deleted user %q", h.User)
		}
	}
	return nil
}

// live packs the users currently live in the model (those keep accepts;
// nil keeps all) and returns the row → user-id table. Call when no
// mutation is in flight.
func (m *model) live(bits int, keep func(id string) bool) (*core.PackedCorpus, []string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	fps := make([]core.Fingerprint, 0, len(m.ids))
	ids := make([]string, 0, len(m.ids))
	for i, id := range m.ids {
		if m.deletedAt[i] != 0 || m.fps[i].Bits() == nil || (keep != nil && !keep(id)) {
			continue
		}
		fps = append(fps, m.fps[i])
		ids = append(ids, id)
	}
	pc, err := core.NewPackedCorpus(bits, fps)
	return pc, ids, err
}

// exactTopK is the exact scan the approximate answers are judged against.
func exactTopK(pc *core.PackedCorpus, q core.Fingerprint, k int) []knn.Neighbor {
	return knn.TopKRange(pc.NumUsers(), k, 1, func(lo, hi int, out []float64) {
		pc.JaccardQueryInto(q, lo, hi, out)
	})
}

// parallelFor runs f(i) for i in [0,n) on GOMAXPROCS goroutines.
func parallelFor(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// recallOf is the share of the exact top-k an approximate answer found.
// gotSims are the answer's similarities to the query; one at or above the
// exact k-th similarity is a hit (above it the user is in the exact set,
// at it the user ties with the k-th and is an equally correct answer).
func recallOf(gotSims []float64, exact []knn.Neighbor) float64 {
	if len(exact) == 0 {
		return 1
	}
	floor := exact[len(exact)-1].Sim
	hits := 0
	for _, s := range gotSims {
		if s >= floor {
			hits++
		}
	}
	return float64(min(hits, len(exact))) / float64(len(exact))
}

// qualityOf is the paper's Eq. 2–3 per-user quality: the similarity mass
// of the approximate neighbourhood over the exact one's.
func qualityOf(gotSims []float64, exact []knn.Neighbor) float64 {
	var e, g float64
	for _, nb := range exact {
		e += nb.Sim
	}
	for _, s := range gotSims {
		g += s
	}
	if e == 0 {
		return 1
	}
	return g / e
}
