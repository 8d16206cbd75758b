package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"goldfinger/internal/admit"
	"goldfinger/internal/bitset"
	"goldfinger/internal/cluster"
	"goldfinger/internal/core"
	"goldfinger/internal/durable"
	"goldfinger/internal/knn"
	"goldfinger/internal/obs"
	"goldfinger/internal/router"
	"goldfinger/internal/service"
)

// lab is the traced run's in-process part: it times calls into each
// layer's public functions from outside, on the same generated corpus the
// workload serves, and files a span per replayed request. Every traced run
// measures every layer, whatever its workload exercises; only the rungs
// that need a real process differ (see runTraced).
type lab struct {
	cfg runConfig
	c   *corpus
	sc  scale
	rec *recorder
	m   map[string]float64
	g   *gate

	packed *core.PackedCorpus // the members, packed
	lg     *libGraph          // cluster-and-conquer graph over them
	single *hooked            // in-process service.Server holding the full corpus
	rig    *routerRig         // in-process router over three in-process shards
}

var sink int // keeps kernel results alive

// medianOf times f reps times and returns the median seconds. No garbage
// collection is forced between repetitions: these are small operations
// whose callers run thousands of them.
func medianOf(reps int, f func()) float64 {
	secs := make([]float64, reps)
	for i := range secs {
		t := time.Now()
		f()
		secs[i] = time.Since(t).Seconds()
	}
	return median(secs)
}

// kernels times the bit kernels and the packed-corpus primitives above
// them.
func (l *lab) kernels() {
	n, stride := l.packed.NumUsers(), l.packed.Stride()
	words := make([]uint64, n*stride)
	for i := 0; i < n; i++ {
		copy(words[i*stride:], l.packed.Row(i))
	}
	counts := make([]int32, n)
	q := 0
	l.m["bitset.andcount_into_ns_per_row"] = medianOf(20, func() {
		bitset.AndCountInto(l.c.heldFP(q%l.sc.Held).Bits().Words(), words, stride, counts)
		q++
		sink += int(counts[n/2])
	}) * 1e9 / float64(n)

	rng := rand.New(rand.NewSource(l.cfg.seed))
	ids := make([]int32, l.sc.KernelRows)
	gathered := make([]int32, len(ids))
	gatherNs := make([]float64, 200)
	for r := range gatherNs {
		for i := range ids {
			ids[i] = int32(rng.Intn(n))
		}
		t := time.Now()
		bitset.AndCountGather(l.c.heldFP(q%l.sc.Held).Bits().Words(), words, stride, ids, gathered)
		gatherNs[r] = float64(time.Since(t).Nanoseconds())
		q++
		sink += int(gathered[0])
	}
	l.m["bitset.andcount_gather_ns_per_row"] = median(gatherNs) / float64(len(ids))

	l.m["core.pack_profiles_s"] = medianOf(3, func() {
		sink += l.c.scheme.PackProfiles(l.c.profiles[:l.sc.N], 0).NumUsers()
	})
	l.m["core.new_packed_corpus_ms"] = medianOf(5, func() {
		pc, err := core.NewPackedCorpus(l.sc.Bits, l.c.fps[:l.sc.N])
		if err != nil {
			l.g.failf("NewPackedCorpus: %v", err)
			return
		}
		sink += pc.NumUsers()
	}) * 1e3
	sims := make([]float64, n)
	l.m["core.jaccard_query_into_ns_per_row"] = medianOf(20, func() {
		l.packed.JaccardQueryInto(l.c.heldFP(q%l.sc.Held), 0, n, sims)
		q++
	}) * 1e9 / float64(n)

	t := time.Now()
	for i := 0; i < l.sc.Held; i++ {
		fp, err := core.ReadFingerprint(bytes.NewReader(l.c.heldBody(i)))
		if err != nil {
			l.g.failf("ReadFingerprint: %v", err)
			return
		}
		sink += fp.Cardinality()
	}
	l.m["core.read_fingerprint_ns"] = float64(time.Since(t).Nanoseconds()) / float64(l.sc.Held)
}

// build times the construction pipeline layer by layer and keeps the graph
// for the search rungs.
func (l *lab) build() {
	t := time.Now()
	asn := cluster.Assign(l.packed, cluster.Config{Seed: l.cfg.seed})
	l.m["cluster.assign_s"] = time.Since(t).Seconds()
	var clusters, largest int
	for _, v := range asn.Views {
		clusters += len(v.Clusters)
		for _, members := range v.Clusters {
			largest = max(largest, len(members))
		}
	}
	l.m["cluster.buckets"] = float64(clusters)
	l.m["cluster.max_bucket"] = float64(largest)

	reg := obs.NewRegistry()
	runtime.GC()
	l.lg = buildLibPacked(l.packed, l.sc.K, l.cfg.seed, reg)
	snap := reg.Snapshot()
	l.m["knn.cc_build_s"] = l.lg.ccS
	for _, phase := range []string{"bucket", "scan", "merge", "refine"} {
		l.m["knn.cc_"+phase+"_s"] = snap.Histograms["build.phase."+phase+".seconds"].Sum
	}
	l.m["knn.cc_comparisons"] = float64(l.lg.stats.Comparisons)
	l.m["knn.navigable_s"] = l.lg.navS
	if err := l.lg.checkDegree(l.sc.K); err != nil {
		l.g.failf("%v", err)
	}
	quality, recall := l.lg.quality(l.sc.QualityN, l.sc.K)
	l.m["knn.cc_recall"] = recall
	if quality < floorBuildQuality {
		l.g.failf("cluster graph quality %.4f below %.2f", quality, floorBuildQuality)
	}
}

func firstIDs(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

// brute runs the exact build on the first BruteN rows; its comparison
// count must be n(n−1)/2 to the unit.
func (l *lab) brute() {
	sub := l.packed.Gather(firstIDs(min(l.sc.BruteN, l.sc.N)))
	var st knn.Stats
	secs := medianOf(1, func() {
		_, st = knn.BruteForce(knn.NewPackedSHFProvider(sub), l.sc.K, knn.Options{})
	})
	n := int64(sub.NumUsers())
	if want := n * (n - 1) / 2; st.Comparisons != want {
		l.g.failf("brute force made %d comparisons over %d rows, want %d", st.Comparisons, n, want)
	}
	l.m["knn.brute_s"] = secs
	l.m["knn.brute_comparisons_per_s"] = float64(st.Comparisons) / secs
}

// speedup builds the first SpeedupN rows on one processor and on all of
// them.
func (l *lab) speedup() {
	sub := l.packed.Gather(firstIDs(min(l.sc.SpeedupN, l.sc.N)))
	build := func() {
		knn.ClusterConquerWith(knn.NewPackedSHFProvider(sub), l.sc.K, knn.Options{Seed: l.cfg.seed}, knn.ClusterConfig{})
	}
	all := medianOf(1, build)
	prev := runtime.GOMAXPROCS(1)
	one := medianOf(1, build)
	runtime.GOMAXPROCS(prev)
	l.m["knn.build_speedup_procs"] = one / all
}

// recordingOracle notes which nodes a descent scores and against which
// floor, so the inner rungs can replay exactly that work.
type recordingOracle struct {
	inner  *core.QueryScorer
	ids    []int32
	floors []float64
}

func (o *recordingOracle) Score(v int32) float64 {
	o.ids, o.floors = append(o.ids, v), append(o.floors, 0)
	return o.inner.Score(v)
}

func (o *recordingOracle) ScoreAbove(v int32, floor float64) (float64, bool) {
	o.ids, o.floors = append(o.ids, v), append(o.floors, floor)
	return o.inner.ScoreAbove(v, floor)
}

// rungFn is one rung of a replay: run performs request req against the
// rung's layer and returns how long the layer took.
type rungFn struct {
	layer, name string
	run         func(req int) time.Duration
	// sameCall marks a rung whose duration was captured during the previous
	// rung's call (an outer handler timed around an inner one): its span
	// starts where the previous rung's did.
	sameCall bool
}

// replayBlock is how many requests one rung replays before the next rung
// replays the same ones. Rung by rung over all requests, the machine's
// speed drifts between the rungs and their difference measures the drift;
// request by request, each rung finds the rows the previous one touched
// still in cache. Fifty requests touch ~100 000 rows — well past the
// last-level cache — and take a few tens of milliseconds.
const replayBlock = 50

// replay runs q requests through the chain's rungs, innermost first, in
// blocks (see replayBlock), and files the result as a ladder. prepare runs
// once per request before any rung; side rungs are replayed after the
// chain's and returned without joining the ladder.
func replay(rec *recorder, title string, q int, prepare func(req int), chain, side []rungFn) (*ladder, [][]time.Duration) {
	all := append(append([]rungFn(nil), chain...), side...)
	starts := make([][]int64, len(all))
	durs := make([][]time.Duration, len(all))
	for r := range all {
		starts[r], durs[r] = make([]int64, q), make([]time.Duration, q)
	}
	for lo := 0; lo < q; lo += replayBlock {
		hi := min(lo+replayBlock, q)
		if prepare != nil {
			for req := lo; req < hi; req++ {
				prepare(req)
			}
		}
		for r, rg := range all {
			for req := lo; req < hi; req++ {
				starts[r][req] = rec.now()
				if rg.sameCall && r > 0 {
					starts[r][req] = starts[r-1][req]
				}
				durs[r][req] = rg.run(req)
			}
		}
	}
	ld := newLadder(rec, title)
	for r, rg := range chain {
		ld.push(rg.layer, rg.name, starts[r], durs[r])
	}
	return ld, durs[len(chain):]
}

func medianDurUs(ds []time.Duration) float64 {
	us := make([]float64, len(ds))
	for i, d := range ds {
		us[i] = durUs(d)
	}
	return median(us)
}

// searchStats is what the recording pass of the search rungs counts.
type searchStats struct {
	hops, scored, abandoned, calls int
	seedsUs, recalls               []float64
}

// searchRungs returns the three innermost rungs of a query ladder over lg
// — the AND+popcount kernel on the rows a real descent visits, the scorer
// on the same rows, the whole search — and the prepare step that records
// which rows those are.
func (l *lab) searchRungs(lg *libGraph, q int, st *searchStats) (prepare func(int), rungs []rungFn) {
	visits := make([]*recordingOracle, q)
	prepare = func(i int) {
		fp := l.c.heldFP(i)
		ro := &recordingOracle{inner: lg.packed.NewQueryScorer(fp)}
		res, ss, _ := knn.GraphSearch(lg.nav, ro, l.sc.K, knn.SearchOptions{Seeds: lg.seeds(fp)})
		visits[i] = ro
		st.hops += ss.Hops
		st.scored += ss.Scored
		st.abandoned += ss.Abandoned
		st.calls += len(ro.ids)
		if i < l.sc.RecallN {
			sims := make([]float64, len(res))
			for j, nb := range res {
				sims[j] = nb.Sim
			}
			st.recalls = append(st.recalls, recallOf(sims, exactTopK(lg.packed, fp, l.sc.K)))
		}
		t := time.Now()
		sink += len(lg.asn.Seeds(fp.Bits().Words(), clusterSeedCount))
		st.seedsUs = append(st.seedsUs, durUs(time.Since(t)))
	}
	timed := func(f func(i int)) func(int) time.Duration {
		return func(i int) time.Duration {
			t := time.Now()
			f(i)
			return time.Since(t)
		}
	}
	rungs = []rungFn{
		{layer: "bitset", name: "andcount", run: timed(func(i int) {
			qw := l.c.heldFP(i).Bits().Words()
			for _, v := range visits[i].ids {
				sink += bitset.AndCountWords(qw, lg.packed.Row(int(v))[:len(qw)])
			}
		})},
		{layer: "core", name: "score", run: timed(func(i int) {
			for j, v := range visits[i].ids {
				s, _ := visits[i].inner.ScoreAbove(v, visits[i].floors[j])
				sink += int(s)
			}
		})},
		{layer: "knn", name: "search", run: timed(func(i int) {
			res, _ := lg.search(l.c.heldFP(i), l.sc.K)
			sink += len(res)
		})},
	}
	return prepare, rungs
}

// hooked is an in-process handler target that remembers how long the last
// ServeHTTP took: the handler's own cost, without the request construction
// around it.
type hooked struct {
	tgt  *target
	last atomic.Int64 // nanoseconds
}

func newHooked(h http.Handler) *hooked {
	hk := &hooked{}
	hk.tgt = newHandlerTarget(h, func(d time.Duration) { hk.last.Store(int64(d)) })
	return hk
}

func (hk *hooked) took() time.Duration { return time.Duration(hk.last.Load()) }

// queryRung is the service.handler rung over an in-process server.
func (l *lab) queryRung(hk *hooked, mode string) rungFn {
	return rungFn{layer: "service", name: "handler", run: func(i int) time.Duration {
		rep, err := hk.tgt.query(l.c.heldBody(i), mode, l.sc.K)
		if err != nil || rep.Status != http.StatusOK {
			l.g.failf("in-process %s query %d: status %d (%v)", mode, i, rep.Status, err)
		} else if mode == "auto" && rep.Header.Get(service.HeaderQueryMode) != "graph" {
			l.g.failf("in-process auto query %d served by %q", i, rep.Header.Get(service.HeaderQueryMode))
		}
		return hk.took()
	}}
}

// mutations is the op sequence every mutation rung replays.
func (l *lab) mutations() []op {
	st := stream{seed: uint64(l.cfg.seed) ^ 0xE<<32, mutShare: 1, held: l.sc.Held}
	ops := make([]op, l.sc.LadderM)
	for i := range ops {
		ops[i] = st.at(i)
	}
	return ops
}

// durable times the store on its own: appends under both fsync policies,
// a compaction of the full state, and a reopen.
func (l *lab) durable() error {
	appendUs := func(dir string, policy durable.FsyncPolicy) (float64, float64, error) {
		st, _, err := durable.Open(durable.Options{Dir: dir, Fsync: policy, CompactBytes: -1})
		if err != nil {
			return 0, 0, err
		}
		defer st.Close()
		us := make([]float64, l.sc.LadderM)
		for i := range us {
			rec := durable.Record{Kind: durable.KindPut, MutSeq: uint64(i + 1), ID: memberID(i), FP: l.c.fps[i]}
			t := time.Now()
			if err := st.Append(rec); err != nil {
				return 0, 0, err
			}
			us[i] = durUs(time.Since(t))
		}
		return median(us), float64(st.Info().WALBytes) / float64(len(us)), nil
	}
	var err error
	if l.m["durable.append_us"], l.m["durable.wal_bytes_per_put"], err = appendUs(filepath.Join(l.cfg.ps.runDir, "lab-sync"), durable.FsyncAlways); err != nil {
		return err
	}
	if l.m["durable.append_nosync_us"], _, err = appendUs(filepath.Join(l.cfg.ps.runDir, "lab-nosync"), durable.FsyncNone); err != nil {
		return err
	}

	dir := filepath.Join(l.cfg.ps.runDir, "lab-compact")
	st, _, err := durable.Open(durable.Options{Dir: dir, Fsync: durable.FsyncAlways, CompactBytes: -1})
	if err != nil {
		return err
	}
	n := l.sc.N
	users := make([]string, n)
	for i := range users {
		users[i] = memberID(i)
	}
	state := durable.State{Users: users, FPS: l.c.fps[:n], Deleted: make([]bool, n), MutSeq: uint64(n)}
	epoch := &durable.EpochData{Seq: 1, K: l.sc.K, Algorithm: "cluster", BuiltAt: time.Now(),
		Stats: l.lg.stats, MutSeq: uint64(n), Users: users, Graph: l.lg.g}
	t := time.Now()
	if err := st.Compact(func() (durable.State, *durable.EpochData) { return state, epoch }); err != nil {
		st.Close()
		return err
	}
	l.m["durable.compact_s"] = time.Since(t).Seconds()
	// A tail of records after the snapshot, so the reopen has both to do.
	for i := 0; i < l.sc.LadderM; i++ {
		rec := durable.Record{Kind: durable.KindPut, MutSeq: uint64(n + i + 1), ID: memberID(i), FP: l.c.heldFP(i % l.sc.Held)}
		if err := st.Append(rec); err != nil {
			st.Close()
			return err
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	t = time.Now()
	st, rec, err := durable.Open(durable.Options{Dir: dir, Fsync: durable.FsyncAlways})
	if err != nil {
		return err
	}
	l.m["durable.open_s"] = time.Since(t).Seconds()
	l.m["durable.replayed_records"] = float64(rec.RecordsReplayed)
	if len(rec.State.Users) != n {
		l.g.failf("reopened store holds %d users, want %d", len(rec.State.Users), n)
	}
	return st.Close()
}

// admission times one uncontended admit + release.
func (l *lab) admission() {
	ctl := admit.NewController(admit.DefaultConfig(), obs.NewRegistry())
	const rounds = 100_000
	ctx := context.Background()
	t := time.Now()
	for i := 0; i < rounds; i++ {
		release, res := ctl.Admit(ctx, admit.Query)
		if res.Rejected() {
			l.g.failf("uncontended admission rejected a query: %+v", res)
			return
		}
		release()
	}
	l.m["admit.admit_ns"] = float64(time.Since(t).Nanoseconds()) / rounds
}

// startSingle seeds and builds an in-process service.Server holding the
// full corpus: the handler's cost with no socket around it.
func (l *lab) startSingle() error {
	srv, err := service.NewServer(l.sc.Bits)
	if err != nil {
		return err
	}
	l.single = newHooked(srv.Handler())
	if err := seedMembers(l.c, func(string) *target { return l.single.tgt }); err != nil {
		return err
	}
	_, _, err = l.single.tgt.buildGraph(l.sc.K)
	return err
}

// routerRig is an in-process router over three in-process shard servers,
// wired by a transport that calls the shard handlers directly: the routing
// tier's own cost with no socket on either side.
type routerRig struct {
	rt     *router.Router
	front  *hooked
	names  []string
	shards map[string]http.Handler

	mu        sync.Mutex
	shardDurs []time.Duration // per-shard /query ServeHTTP times since the last reset
}

// RoundTrip serves a router→shard request from the shard's handler.
func (rg *routerRig) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := rg.shards[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no in-process shard %q", req.URL.Host)
	}
	tr := handlerTransport{h: h, onServe: func(d time.Duration) {
		if req.URL.Path == "/query" {
			rg.mu.Lock()
			rg.shardDurs = append(rg.shardDurs, d)
			rg.mu.Unlock()
		}
	}}
	return tr.RoundTrip(req)
}

// slowestShard returns the longest shard handler time since the last call
// and resets the record.
func (rg *routerRig) slowestShard() time.Duration {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	var slowest time.Duration
	for _, d := range rg.shardDurs {
		slowest = max(slowest, d)
	}
	rg.shardDurs = rg.shardDurs[:0]
	return slowest
}

// startRouter wires, seeds and builds the in-process routing tier.
func (l *lab) startRouter() error {
	rg := &routerRig{shards: map[string]http.Handler{}}
	var specs []router.ShardSpec
	for i := 0; i < numShards; i++ {
		rg.names = append(rg.names, fmt.Sprintf("shard-%d", i))
	}
	ring := service.RingInfo{Epoch: 1, Mode: service.RingStable, Names: rg.names}
	for _, name := range rg.names {
		srv, err := service.NewServer(l.sc.Bits)
		if err != nil {
			return err
		}
		srv.SetShardName(name)
		if err := srv.InstallRing(ring); err != nil {
			return err
		}
		rg.shards[name] = srv.Handler()
		specs = append(specs, router.ShardSpec{Name: name, URL: "http://" + name})
	}
	rt, err := router.New(router.Config{Shards: specs, Transport: rg, ProbeInterval: -1, Metrics: obs.NewRegistry()})
	if err != nil {
		return err
	}
	rg.rt = rt
	rg.front = newHooked(rt.Handler())
	l.rig = rg
	if err := seedMembers(l.c, func(string) *target { return rg.front.tgt }); err != nil {
		return err
	}
	_, _, err = rg.front.tgt.buildGraph(l.sc.K)
	return err
}

// routerPrimitives times placement and merge on their own.
func (l *lab) routerPrimitives() {
	place := router.NewPlacement(l.rig.names, 0)
	t := time.Now()
	for i := 0; i < l.sc.N; i++ {
		sink += place.Owner(memberID(i))
	}
	l.m["router.owner_ns"] = float64(time.Since(t).Nanoseconds()) / float64(l.sc.N)

	lists := make([][]router.Hit, numShards)
	for s := range lists {
		for j := 0; j < l.sc.K; j++ {
			lists[s] = append(lists[s], router.Hit{User: memberID(s*l.sc.K + j), Similarity: 1 - float64(j*numShards+s)/100})
		}
	}
	const merges = 10_000
	t = time.Now()
	for i := 0; i < merges; i++ {
		sink += len(router.MergeTopK(l.sc.K, lists))
	}
	l.m["router.merge_topk_us"] = durUs(time.Since(t)) / merges
}

// singleLadder replays the ladder queries bottom-up through the layers of
// a single node: kernel ⊂ scorer ⊂ search over the full graph ⊂ the
// in-process handler, and — when the workload runs one — ⊂ the real
// process over one connection ⊂ the generator's own request path.
func (l *lab) singleLadder(ext *servingRun) *ladder {
	q := min(l.sc.LadderQ, l.sc.Held)
	var st searchStats
	prepare, chain := l.searchRungs(l.lg, q, &st)
	chain = append(chain, l.queryRung(l.single, "auto"))
	if ext != nil && !ext.plan.routed {
		chain = append(chain, ext.externalRungs()...)
	}
	l.single.tgt.query(l.c.heldBody(0), "auto", l.sc.K) // the first query packs the corpus; the rungs measure warm ones
	ld, _ := replay(l.rec, "single node, query", q, prepare, chain, nil)

	score, search, handler := ld.Rungs[1].Durs, ld.Rungs[2].Durs, ld.Rungs[3].Durs
	var scoreNs time.Duration
	for _, d := range score {
		scoreNs += d
	}
	l.m["core.score_above_ns"] = float64(scoreNs.Nanoseconds()) / float64(max(st.calls, 1))
	l.m["core.score_abandon_share"] = float64(st.abandoned) / float64(max(st.scored+st.abandoned, 1))
	l.m["cluster.seeds_us"] = median(st.seedsUs)
	l.m["knn.search_us"] = medianDurUs(search)
	l.m["knn.search_hops"] = float64(st.hops) / float64(q)
	l.m["knn.search_scored"] = float64(st.scored) / float64(q)
	l.m["knn.search_abandon_share"] = l.m["core.score_abandon_share"]
	l.m["knn.search_recall_at_10"] = mean(st.recalls)
	l.m["service.graph_handler_us"] = medianDurUs(handler)
	l.m["service.graph_self_us"] = median(ld.selfUs(3))
	if len(ld.Rungs) > 4 {
		// What the socket, the HTTP server and the process boundary add to
		// the handler, request by request.
		l.m["knnserver.transport_us"] = median(ld.selfUs(4))
	}
	return ld
}

// routedLadder replays the ladder queries through the routing tier: the
// inner rungs run over a graph of shard-0's members (a shard holds a third
// of the corpus), the handler rung is the slowest of the three shard
// handlers inside each routed call, then the in-process router handler
// and — when the workload runs one — the real router process and the
// generator's request path.
func (l *lab) routedLadder(ext *servingRun) *ladder {
	q := min(l.sc.LadderQ, l.sc.Held)
	rg := l.rig
	owner := router.NewPlacement(rg.names, 0)
	var ids []int32
	for i := 0; i < l.sc.N; i++ {
		if owner.Owner(memberID(i)) == 0 {
			ids = append(ids, int32(i))
		}
	}
	shard := buildLibPacked(l.packed.Gather(ids), l.sc.K, l.cfg.seed, nil)
	var st searchStats
	prepare, chain := l.searchRungs(shard, q, &st)

	full := fmt.Sprintf("%d/%d", numShards, numShards)
	routerDurs := make([]time.Duration, q)
	chain = append(chain,
		rungFn{layer: "service", name: "handler", run: func(i int) time.Duration {
			rg.slowestShard()
			rep, err := rg.front.tgt.query(l.c.heldBody(i), "auto", l.sc.K)
			if err != nil || rep.Status != http.StatusOK || rep.Header.Get(router.HeaderPartialResults) != full {
				l.g.failf("in-process routed query %d: status %d, coverage %q (%v)", i, rep.Status, rep.Header.Get(router.HeaderPartialResults), err)
			}
			routerDurs[i] = rg.front.took()
			return rg.slowestShard()
		}},
		rungFn{layer: "router", name: "handler", sameCall: true, run: func(i int) time.Duration { return routerDurs[i] }},
	)
	var side []rungFn
	if ext != nil && ext.plan.routed {
		chain = append(chain, ext.externalRungs()...)
		// Transport on its own: a shard process over one connection against
		// the same shard's handler in-process.
		direct := newHooked(rg.shards[rg.names[0]])
		one := newTarget(ext.dep.cores[0].url(), 1)
		defer one.close()
		side = []rungFn{ext.httpRung(one), l.queryRung(direct, "auto")}
	}
	rg.front.tgt.query(l.c.heldBody(0), "auto", l.sc.K) // warm: every shard packs its corpus
	ld, sides := replay(l.rec, "three shards behind a router, query", q, prepare, chain, side)

	l.m["router.handler_us"] = medianDurUs(ld.Rungs[4].Durs)
	l.m["router.self_us"] = median(ld.selfUs(4))
	if side != nil {
		l.m["knnserver.transport_us"] = medianDurUs(sides[0]) - medianDurUs(sides[1])
		// What a routed request costs beyond the in-process router handler
		// and the client↔router transport is the router↔shard hop.
		l.m["router.hop_us"] = median(ld.selfUs(5)) - l.m["knnserver.transport_us"]
		fmt.Fprintf(l.cfg.out, "  routed: knnserver.http self %.1f µs = client↔router transport %.1f + router↔shard hop %.1f\n",
			median(ld.selfUs(5)), l.m["knnserver.transport_us"], l.m["router.hop_us"])
	}
	return ld
}

// mutationLadder replays one op sequence through the maintainer, the
// in-process handler and — on churn — the real process: each rung applies
// the ops to its own state.
func (l *lab) mutationLadder(ext *servingRun) (*ladder, error) {
	online, err := l.lg.online(l.c.fps[:l.sc.N], l.sc.K)
	if err != nil {
		return nil, err
	}
	vict := newVictims(l.sc.N, l.cfg.seed)
	muts := l.mutations()
	applyUs := map[opKind][]float64{}
	var snapUs []float64
	var insertCmp, inserts int
	chain := []rungFn{
		// A mutation and the snapshot the service takes before applying the
		// next one: the maintainer's whole cost per mutation.
		{layer: "knn", name: "online", run: func(i int) time.Duration {
			t := time.Now()
			res, err := applyOnline(online, l.c, vict, muts[i])
			d := time.Since(t)
			if err != nil {
				l.g.failf("online mutation %d: %v", i, err)
			}
			t = time.Now()
			online.Snapshot()
			snap := time.Since(t)
			applyUs[muts[i].Kind] = append(applyUs[muts[i].Kind], durUs(d))
			snapUs = append(snapUs, durUs(snap))
			if muts[i].Kind == opInsert {
				insertCmp += res.Comparisons
				inserts++
			}
			return d + snap
		}},
		{layer: "service", name: "handler", run: func(i int) time.Duration {
			mut := muts[i]
			id := memberID(vict.pick(mut))
			if mut.Kind == opInsert {
				id = fmt.Sprintf("n%d", mut.Index)
			}
			var rep reply
			var err error
			if mut.Kind == opDelete {
				rep, err = l.single.tgt.del(id)
			} else {
				rep, err = l.single.tgt.put(id, l.c.heldBody(mut.Payload))
			}
			if err != nil || rep.Status != http.StatusNoContent {
				l.g.failf("in-process mutation of %s: status %d (%v)", id, rep.Status, err)
			}
			return l.single.took()
		}},
	}
	if ext != nil && ext.plan.mutateFromA {
		one := newTarget(ext.dep.front.url(), 1)
		defer one.close()
		exec := ext.exec(one, "auto")
		chain = append(chain, rungFn{layer: "knnserver", name: "http", run: func(i int) time.Duration {
			o := muts[i]
			o.Index = ext.opBase // the same kinds and payloads, aimed at users this run has not touched
			ext.opBase++
			t := time.Now()
			out := exec(0, o)
			ext.att++
			if !out.OK {
				ext.failed++
			}
			return time.Since(t)
		}})
	}
	ld, _ := replay(l.rec, "mutation", len(muts), nil, chain, nil)

	l.m["knn.online_insert_us"] = median(applyUs[opInsert])
	l.m["knn.online_overwrite_us"] = median(applyUs[opOverwrite])
	l.m["knn.online_delete_us"] = median(applyUs[opDelete])
	l.m["knn.online_insert_comparisons"] = float64(insertCmp) / float64(max(inserts, 1))
	l.m["knn.online_snapshot_us"] = median(snapUs)
	var putUs, delUs []float64
	for i, d := range ld.Rungs[1].Durs {
		if muts[i].Kind == opDelete {
			delUs = append(delUs, durUs(d))
		} else {
			putUs = append(putUs, durUs(d))
		}
	}
	l.m["service.put_handler_us"] = median(putUs)
	l.m["service.delete_handler_us"] = median(delUs)
	return ld, nil
}

// handlerExtras times what the ladders do not: the scan path, and a query
// right after a mutation against the same query again.
func (l *lab) handlerExtras() {
	scan := l.queryRung(l.single, "scan")
	scans := make([]time.Duration, min(l.sc.RecallN, l.sc.Held))
	for i := range scans {
		scans[i] = scan.run(i)
	}
	l.m["service.scan_handler_us"] = medianDurUs(scans)
	l.m["knn.topk_scan_us"] = medianOf(len(scans), func() {
		sink += len(l.lg.scan(l.c.heldFP(sink%l.sc.Held), l.sc.K))
	}) * 1e6

	// PUT → query → query: the first query repacks the corpus the PUT
	// invalidated, the second finds it warm.
	vict := newVictims(l.sc.N, l.cfg.seed)
	auto := l.queryRung(l.single, "auto")
	var repack, warm []float64
	for i := 0; i < 20; i++ {
		id := memberID(vict.pick(op{Kind: opOverwrite, Index: l.sc.LadderM + i}))
		if rep, err := l.single.tgt.put(id, l.c.heldBody(i)); err != nil || rep.Status != http.StatusNoContent {
			l.g.failf("in-process overwrite: status %d (%v)", rep.Status, err)
		}
		repack = append(repack, durUs(auto.run(i)))
		warm = append(warm, durUs(auto.run(i)))
	}
	l.m["service.repack_query_us"] = median(repack)
	l.m["service.warm_query_us"] = median(warm)
}

// runTraced is the traced run of any workload: the workload's own set-up
// and processes, an untraced and a traced open-loop phase for the tracing
// overhead, the in-process lab, and the ladders. Every traced run measures
// every layer and prints both query ladders; the workload decides which
// ladder reaches out to real processes.
func runTraced(cfg runConfig) (*result, error) {
	l := &lab{cfg: cfg, sc: cfg.sc, rec: newRecorder(), m: map[string]float64{}, g: &gate{}}
	var ext *servingRun
	if cfg.workload == wlBuild {
		c, err := newCorpus(cfg.sc, cfg.seed)
		if err != nil {
			return nil, err
		}
		l.c = c
	} else {
		var err error
		if ext, err = newServingRun(cfg); err != nil {
			return nil, err
		}
		ext.gate, ext.metrics = l.g, l.m
		if err := ext.setup(); err != nil {
			return nil, err
		}
		l.c = ext.c
		// The open-loop phases come first, while the benchmark's own heap
		// is still small.
		if err := ext.tracedPhases(l.rec); err != nil {
			return nil, err
		}
	}
	var err error
	if l.packed, err = core.NewPackedCorpus(l.sc.Bits, l.c.fps[:l.sc.N]); err != nil {
		return nil, err
	}

	stage := time.Now()
	lap := func(name string) {
		fmt.Fprintf(cfg.out, "  lab: %-12s %5.1f s\n", name, time.Since(stage).Seconds())
		stage = time.Now()
	}
	l.kernels()
	l.build()
	lap("build")
	l.brute()
	l.speedup()
	lap("brute, procs")
	if err := l.durable(); err != nil {
		return nil, err
	}
	l.admission()
	if err := l.startSingle(); err != nil {
		return nil, err
	}
	if err := l.startRouter(); err != nil {
		return nil, err
	}
	defer l.rig.rt.Close()
	l.routerPrimitives()
	lap("in-process")

	single := l.singleLadder(ext)
	routed := l.routedLadder(ext)
	mutation, err := l.mutationLadder(ext)
	if err != nil {
		return nil, err
	}
	l.handlerExtras()
	lap("ladders")

	own := single
	if cfg.workload == wlRouted {
		own = routed
	}
	for _, ld := range []*ladder{single, routed, mutation} {
		sum := ld.print(cfg.out)
		if ld == own {
			l.m["client.ladder_gap_share"] = sum.GapShare
		}
	}
	l.validity()
	if cfg.traceOut != "" {
		if err := l.rec.writeFile(cfg.traceOut); err != nil {
			return nil, err
		}
		fmt.Fprintf(cfg.out, "  %d spans written to %s\n", len(l.rec.spans), cfg.traceOut)
	}
	res := &result{Correct: l.g.ok(), Attempted: max(len(l.rec.spans), 1), Metrics: l.m, Violations: l.g.list()}
	if ext != nil {
		res.Attempted += ext.att
		res.Failed = ext.failed
	}
	return res, nil
}

// validity prints whether the traced run's own instruments stayed within
// their limits. A noisy machine can break these without the program being
// wrong, so they are reported, not gated.
func (l *lab) validity() {
	check := func(name string, limit float64) {
		verdict := "ok"
		if l.m[name] > limit {
			verdict = "EXCEEDED: read this run's latencies with care"
		}
		fmt.Fprintf(l.cfg.out, "  validity: %s %.4g (limit %.4g) %s\n", name, l.m[name], limit, verdict)
	}
	check("client.gen_late_p99_us", limitGenLateP99us)
	check("client.gen_cpu_share", limitGenCPUShare)
	check("client.trace_overhead_share", limitTraceOverhead)
	check("client.ladder_gap_share", limitLadderGapShare)
}
