package main

import (
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"goldfinger/internal/core"
	"goldfinger/internal/router"
)

// servingPlan is one serving workload's traffic mix. Fractions split the
// measured seconds between the phases.
type servingPlan struct {
	routed bool

	aRate, aMut, aFrac float64 // phase A: open loop, mode=auto, share of mutating ops
	bMut, bFrac        float64 // phase B: closed loop, nproc connections
	cRate, cFrac       float64 // phase C: open loop, mode=scan, read-only

	// mutateFromA takes mutate_* from phase A's mutations (timed from their
	// due time, beside reads). Otherwise they come from a closing burst of
	// sequential mutations after the read phases, so the read phases stay
	// read-only.
	mutateFromA bool
	recallFloor float64
}

var servingPlans = map[string]servingPlan{
	wlServe:  {aRate: rateServeAuto, aFrac: 0.50, bFrac: 0.25, cRate: rateServeScan, cFrac: 0.25, recallFloor: floorRecallRead},
	wlChurn:  {aRate: rateChurnMixed, aMut: 0.20, aFrac: 0.60, bMut: 0.20, bFrac: 0.25, cRate: rateServeScan, cFrac: 0.15, mutateFromA: true, recallFloor: floorRecallChurn},
	wlRouted: {routed: true, aRate: rateRoutedAuto, aFrac: 0.55, bFrac: 0.30, cRate: rateRoutedScan, cFrac: 0.15, recallFloor: floorRecallRead},
}

const numShards = 3

// deployment is the set of knnserver processes a serving workload runs
// against.
type deployment struct {
	routed bool
	front  *proc   // what clients talk to: the single server, or the router
	cores  []*proc // processes that hold data: the single server, or the shards
	names  []string
	args   [][]string // start arguments of cores[i], for the restart
}

func (d *deployment) all() []*proc {
	if d.routed {
		return append([]*proc{d.front}, d.cores...)
	}
	return d.cores
}

func (d *deployment) cpu() float64 {
	var s float64
	for _, p := range d.all() {
		s += cpuSeconds(p.pid())
	}
	return s
}

func (d *deployment) mem(key string) float64 {
	var s float64
	for _, p := range d.all() {
		s += memMiB(p.pid(), key)
	}
	return s
}

// servingRun carries one serving workload's state.
type servingRun struct {
	cfg   runConfig
	plan  servingPlan
	c     *corpus
	m     *model
	dep   *deployment
	gate  *gate
	t0    time.Time
	nproc int

	tgt     *target // front, nproc connections
	metrics map[string]float64
	mu      sync.Mutex // guards att and failed where reads run in parallel
	att     int
	failed  int
	opBase  int // next unused op index (mutation targets derive from it)

	startup time.Duration // exec → listen of the data-holding process, with its data

	// speed is the machine speed read during the measured rounds (see
	// refWork); 1 until measure has run.
	speed float64

	// spans, while non-nil, receives a client span per generated op (the
	// traced open-loop phase).
	spans *recorder
}

func (r *servingRun) clock() int64 { return int64(time.Since(r.t0)) + 1 }

// launch starts the workload's processes with empty data dirs. Single-node
// workloads seed under -fsync none and are restarted under -fsync always
// (the shipped default) before the build: 100 000 fsyncs would cost ~30 s
// of set-up per run and measure the disk, not the program.
func (r *servingRun) launch() error {
	bits := strconv.Itoa(r.c.sc.Bits)
	d := &deployment{routed: r.plan.routed}
	r.dep = d
	if !r.plan.routed {
		dir, err := r.cfg.ps.dataDir("node")
		if err != nil {
			return err
		}
		d.names = []string{"knnserver"}
		d.args = [][]string{{"-bits", bits, "-data-dir", dir}}
		p, err := r.cfg.ps.start("knnserver", append(d.args[0], "-fsync", "none")...)
		if err != nil {
			return err
		}
		d.front, d.cores = p, []*proc{p}
		return nil
	}
	rt, err := r.cfg.ps.start("router", "-role", "router")
	if err != nil {
		return err
	}
	d.front = rt
	for i := 0; i < numShards; i++ {
		name := fmt.Sprintf("shard-%d", i)
		dir, err := r.cfg.ps.dataDir(name)
		if err != nil {
			return err
		}
		args := []string{"-role", "shard", "-name", name, "-bits", bits,
			"-data-dir", dir, "-fsync", "none", "-join", rt.url()}
		p, err := r.cfg.ps.start(name, args...)
		if err != nil {
			return err
		}
		d.cores = append(d.cores, p)
		d.names = append(d.names, name)
		d.args = append(d.args, args)
	}
	return r.waitRing()
}

// waitRing blocks until the router's ring is stable with every shard on it.
func (r *servingRun) waitRing() error {
	t := newTarget(r.dep.front.url(), 1)
	defer t.close()
	return waitFor(30*time.Second, "a stable 3-shard ring", func() bool {
		var cv struct {
			RingMode  string   `json:"ring_mode"`
			RingNames []string `json:"ring_names"`
		}
		return t.getJSON("/cluster", &cv) == nil && cv.RingMode == "stable" && len(cv.RingNames) == numShards
	})
}

// seed uploads every member. Behind a router the members go straight to
// the shard the ring assigns them: through the router the same 100 000
// PUTs take three times as long on two cores, all of it set-up. The router
// still places every later request; a disagreement between its ring and
// this one would surface as 421s and unreadable users.
func (r *servingRun) seed() error {
	owner := r.owner()
	targets := make([]*target, len(r.dep.cores))
	for i, p := range r.dep.cores {
		targets[i] = newTarget(p.url(), r.nproc)
		defer targets[i].close()
	}
	return seedMembers(r.c, func(id string) *target { return targets[owner(id)] })
}

// seedMembers PUTs every member to the target route picks for it, from
// GOMAXPROCS callers.
func seedMembers(c *corpus, route func(id string) *target) error {
	var mu sync.Mutex
	var firstErr error
	parallelFor(c.sc.N, func(i int) {
		id := memberID(i)
		rep, err := route(id).put(id, c.bodies[i])
		if err == nil && rep.Status != http.StatusNoContent {
			err = fmt.Errorf("PUT %s: status %d: %s", id, rep.Status, rep.Body)
		}
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}
	})
	return firstErr
}

// restartDurable restarts the single server gracefully under -fsync
// always and records how long it took to come up with its data.
func (r *servingRun) restartDurable() error {
	d := r.dep
	if err := d.front.stop(); err != nil {
		return fmt.Errorf("stopping the seeded server: %w", err)
	}
	d.args[0] = append(d.args[0], "-fsync", "always")
	p, err := r.cfg.ps.start("knnserver", d.args[0]...)
	if err != nil {
		return err
	}
	d.front, d.cores = p, []*proc{p}
	r.startup = p.started
	return nil
}

// setup brings the deployment to the state every phase starts from:
// seeded, built, serving graph queries.
func (r *servingRun) setup() error {
	if err := r.launch(); err != nil {
		return err
	}
	if err := r.seed(); err != nil {
		return fmt.Errorf("seeding: %w", err)
	}
	if !r.plan.routed {
		if err := r.restartDurable(); err != nil {
			return err
		}
	} else {
		r.startup = r.dep.cores[0].started
	}
	r.tgt = newTarget(r.dep.front.url(), r.nproc)
	// An untraced run builds the graph twice and the faster build counts:
	// one build is one sample, and interference only ever adds time.
	builds := 2
	if r.cfg.trace {
		builds = 1
	}
	var walls, reports []float64
	for i := 0; i < builds; i++ {
		wall, reported, err := r.tgt.buildGraph(r.c.sc.K)
		if err != nil {
			return err
		}
		walls = append(walls, wall.Seconds())
		reports = append(reports, percentile(reported, 100)/1000)
	}
	r.metrics["build_s"] = minOf(walls)
	r.metrics["service.build_s"] = minOf(reports)
	r.metrics["knnserver.startup_s"] = r.startup.Seconds()
	r.metrics["knnserver.rss_after_build_mb"] = r.dep.mem("VmRSS")
	return nil
}

// exec returns the function that performs one generated op against t and
// checks its answer.
func (r *servingRun) exec(t *target, mode string) func(worker int, o op) outcome {
	do := r.execOp(t, mode)
	return func(w int, o op) outcome {
		rec := r.spans
		if rec == nil {
			return do(w, o)
		}
		name := "query"
		if o.Kind.mutation() {
			name = "mutation"
		}
		start := rec.now()
		out := do(w, o)
		rec.add(span{Req: o.Index, Layer: "client", Name: name, StartNs: start, EndNs: rec.now()})
		return out
	}
}

func (r *servingRun) execOp(t *target, mode string) func(worker int, o op) outcome {
	k := r.c.sc.K
	return func(_ int, o op) outcome {
		switch o.Kind {
		case opQuery:
			sentAt := r.clock()
			rep, err := t.query(r.c.heldBody(o.Payload), mode, k)
			if err != nil || rep.Status != http.StatusOK {
				return outcome{}
			}
			hits, err := rep.hits()
			if err == nil {
				err = r.m.checkHits(hits, k, sentAt)
			}
			if err != nil {
				r.gate.failf("query: %v", err)
				return outcome{}
			}
			if r.plan.routed {
				if got, want := rep.Header.Get(router.HeaderPartialResults), fmt.Sprintf("%d/%d", numShards, numShards); got != want {
					r.gate.failf("routed 200 carries %s %q, want %q", router.HeaderPartialResults, got, want)
					return outcome{}
				}
			}
			return outcome{OK: true}
		case opDelete:
			id := r.m.begin(o)
			rep, err := t.del(id)
			if err != nil || rep.Status != http.StatusNoContent {
				return outcome{}
			}
			r.m.commit(o, id, core.Fingerprint{}, r.clock())
			return outcome{OK: true}
		default:
			id := r.m.begin(o)
			rep, err := t.put(id, r.c.heldBody(o.Payload))
			if err != nil || rep.Status != http.StatusNoContent {
				return outcome{}
			}
			r.m.commit(o, id, r.c.heldFP(o.Payload), r.clock())
			return outcome{OK: true}
		}
	}
}

func (r *servingRun) count(st phaseStats) {
	r.att += st.Attempted
	r.failed += st.Failed
	if st.Dropped > 0 {
		r.gate.failf("generator dropped %d requests", st.Dropped)
	}
}

// openPhase runs one open-loop phase against the front door.
func (r *servingRun) openPhase(salt uint64, rate, mutShare float64, dur time.Duration, mode string) ([]sample, phaseStats) {
	sched := poissonSchedule(r.cfg.seed^int64(salt), rate, dur)
	st := stream{seed: uint64(r.cfg.seed) ^ salt<<32, mutShare: mutShare, held: r.c.sc.Held}
	base := r.opBase
	r.opBase += len(sched)
	samples := runOpen(sched, func(i int) op { return st.at(base + i) }, r.nproc, r.exec(r.tgt, mode))
	stats := summarize(samples)
	r.count(stats)
	return samples, stats
}

func (r *servingRun) dur(frac float64) time.Duration {
	return time.Duration(frac * r.cfg.seconds * float64(time.Second))
}

// rounds is how many times the measured phases repeat within a run. The
// machines this runs on slow down for seconds at a time when a neighbour
// gets busy; a metric taken once lands in or out of such a spell by luck.
// Every phase therefore runs in short slices spread over the whole run,
// each metric is computed per round, and the run reports the quiet
// quartile of the rounds (see quiet).
const rounds = 5

// quiet picks, from one metric's per-round values, the quartile on the
// side interference cannot reach: interference only ever adds time, so for
// a lower-is-better metric that is the lower quartile of the rounds (the
// second fastest of five), for throughput the upper one. A change in the
// program moves every round and so moves this figure; a busy neighbour
// moves some rounds and mostly does not.
func quiet(perRound []float64, lowerIsBetter bool) float64 {
	s := sorted(perRound)
	if len(s) == 0 {
		return 0
	}
	i := (len(s) - 1) / 4
	if !lowerIsBetter {
		i = len(s) - 1 - i
	}
	return s[i]
}

// roundValues collects per-round values by metric name.
type roundValues map[string][]float64

func (rv roundValues) add(name string, v float64) { rv[name] = append(rv[name], v) }

// phaseA is one open-loop auto-mode slice.
func (r *servingRun) phaseA(salt uint64, frac float64) phaseStats {
	_, st := r.openPhase(0xA0+salt, r.plan.aRate, r.plan.aMut, r.dur(frac), "auto")
	return st
}

// phaseB is one closed-loop slice: throughput and server CPU per op.
func (r *servingRun) phaseB(frac float64) (qps, cpuMsPerOp float64) {
	st := stream{seed: uint64(r.cfg.seed) ^ 0xB<<32, mutShare: r.plan.bMut, held: r.c.sc.Held}
	cpu0 := r.dep.cpu()
	samples := runClosed(r.dur(frac), st.at, r.opBase, r.nproc, r.exec(r.tgt, "auto"))
	cpu1 := r.dep.cpu()
	r.opBase += len(samples)
	stats := summarize(samples)
	r.count(stats)
	ok := len(stats.QueryMs) + len(stats.MutateMs)
	if ok == 0 || stats.Elapsed <= 0 {
		r.gate.failf("a closed-loop slice completed no operation")
		return 0, 0
	}
	return float64(len(stats.QueryMs)) / stats.Elapsed.Seconds(), (cpu1 - cpu0) * 1000 / float64(ok)
}

// measure runs the rounds of the three read phases and reports their
// metrics, scaled by the machine speed read between the slices (see
// refWork); it returns the pooled phase-A statistics for the tail figures.
func (r *servingRun) measure() phaseStats {
	rv := roundValues{}
	ref := reference()
	var speeds []float64
	var pooled phaseStats
	for i := 0; i < rounds; i++ {
		a := r.phaseA(uint64(i), r.plan.aFrac/rounds)
		speeds = append(speeds, ref.speed())
		qps, cpu := r.phaseB(r.plan.bFrac / rounds)
		speeds = append(speeds, ref.speed())
		_, c := r.openPhase(0xC0+uint64(i), r.plan.cRate, 0, r.dur(r.plan.cFrac/rounds), "scan")

		rv.add("query_p50_ms", median(a.QueryMs))
		rv.add("scan_p50_ms", median(c.QueryMs))
		rv.add("cpu_ms_per_op", cpu)
		rv.add("query_qps", qps)
		if len(a.MutateMs) > 0 {
			rv.add("mutate_p50_ms", median(a.MutateMs))
		}
		pooled.QueryMs = append(pooled.QueryMs, a.QueryMs...)
		pooled.MutateMs = append(pooled.MutateMs, a.MutateMs...)
		pooled.LateUs = append(append(pooled.LateUs, a.LateUs...), c.LateUs...)
	}
	r.speed = median(speeds)
	for _, name := range []string{"query_p50_ms", "scan_p50_ms", "cpu_ms_per_op"} {
		r.metrics[name] = quiet(rv[name], true) * r.speed
	}
	r.metrics["query_qps"] = quiet(rv["query_qps"], false) / r.speed
	if r.plan.mutateFromA {
		r.metrics["mutate_p50_ms"] = quiet(rv["mutate_p50_ms"], true) * r.speed
		r.reportMutateTail(pooled.MutateMs)
	}
	r.reportQueryTail(pooled)
	fmt.Fprintf(r.cfg.out, "  machine speed %.3f of nominal (readings %.3v); per round as timed: query p50 %.3v ms, scan p50 %.3v ms, %.0f queries/s\n",
		r.speed, speeds, rv["query_p50_ms"], rv["scan_p50_ms"], rv["query_qps"])
	return pooled
}

// reportQueryTail files the pooled open-loop tail figures and the
// generator's lateness. They are per-layer metrics: a tail rests on few
// samples and on this class of machine does not repeat within any bound
// worth gating on (README.md, "Why the tails are not gated").
func (r *servingRun) reportQueryTail(st phaseStats) {
	r.metrics["client.query_p90_ms"] = percentile(st.QueryMs, 90)
	p, v, w := windowedTail(st.QueryMs, 99, 10, 1000, 5)
	r.metrics["client.query_p99_ms"] = v
	late := percentile(st.LateUs, 99)
	r.metrics["client.gen_late_p99_us"] = max(r.metrics["client.gen_late_p99_us"], late)
	fmt.Fprintf(r.cfg.out, "  open loop: %d queries, tail p%.2f over %d window(s); generator late p99 %.0f µs\n",
		len(st.QueryMs), p, w, late)
}

func (r *servingRun) reportMutateTail(ms []float64) {
	r.metrics["client.mutate_p90_ms"] = percentile(ms, 90)
	p, v := tailPercentile(ms, 99, 10)
	r.metrics["client.mutate_p99_ms"] = v
	fmt.Fprintf(r.cfg.out, "  mutations: %d samples, tail p%.2f\n", len(ms), p)
}

// burst sends BurstN mutations one after another on one connection, after
// the read phases: the write path's latency with nothing beside it, in
// rounds like everything else.
func (r *servingRun) burst() {
	t := newTarget(r.dep.front.url(), 1)
	defer t.close()
	st := stream{seed: uint64(r.cfg.seed) ^ 0xD<<32, mutShare: 1, held: r.c.sc.Held}
	exec := r.exec(t, "auto")
	var all, medians []float64
	for round := 0; round < rounds; round++ {
		var ms []float64
		for i := 0; i < r.c.sc.BurstN/rounds; i++ {
			o := st.at(r.opBase)
			r.opBase++
			start := time.Now()
			out := exec(0, o)
			r.att++
			if !out.OK {
				r.failed++
				continue
			}
			ms = append(ms, float64(time.Since(start))/float64(time.Millisecond))
		}
		if len(ms) > 0 {
			medians = append(medians, median(ms))
		}
		all = append(all, ms...)
	}
	r.metrics["mutate_p50_ms"] = quiet(medians, true) * r.speed
	r.reportMutateTail(all)
}

// owner returns the function mapping a user id to the index in dep.cores
// of the process that holds it, from the router's own ring.
func (r *servingRun) owner() func(id string) int {
	if !r.plan.routed {
		return func(string) int { return 0 }
	}
	var cv struct {
		RingNames []string `json:"ring_names"`
	}
	t := newTarget(r.dep.front.url(), 1)
	defer t.close()
	if err := t.getJSON("/cluster", &cv); err != nil || len(cv.RingNames) != numShards {
		r.gate.failf("reading ring names: %v (%v)", err, cv.RingNames)
		return func(string) int { return 0 }
	}
	core := make([]int, len(cv.RingNames))
	for i, name := range cv.RingNames {
		for j, n := range r.dep.names {
			if n == name {
				core[i] = j
			}
		}
	}
	place := router.NewPlacement(cv.RingNames, 0)
	return func(id string) int { return core[place.Owner(id)] }
}

// fetchHits issues one read and decodes its 200 body; anything else is an
// error. It counts the attempt.
func (r *servingRun) fetchHits(do func() (reply, error)) ([]hit, reply, error) {
	rep, err := do()
	r.mu.Lock()
	r.att++
	r.mu.Unlock()
	if err == nil && rep.Status != http.StatusOK {
		err = fmt.Errorf("status %d", rep.Status)
	}
	var hits []hit
	if err == nil {
		hits, err = rep.hits()
	}
	if err != nil {
		r.mu.Lock()
		r.failed++
		r.mu.Unlock()
	}
	return hits, rep, err
}

// sampleRecall asks RecallN auto-mode queries of the quiescent system and
// scores them against the exact scan over the model's live set. Reported
// similarities must be the true SHF similarities of the named users.
func (r *servingRun) sampleRecall() error {
	live, ids, err := r.m.live(r.c.sc.Bits, nil)
	if err != nil {
		return err
	}
	row := make(map[string]int, len(ids))
	for i, id := range ids {
		row[id] = i
	}
	n := r.c.sc.RecallN
	recalls := make([]float64, n)
	sizes := make([]float64, n)
	parallelFor(n, func(i int) {
		q := i * r.c.sc.Held / n
		fp := r.c.heldFP(q)
		hits, rep, err := r.fetchHits(func() (reply, error) { return r.tgt.query(r.c.heldBody(q), "auto", r.c.sc.K) })
		if err != nil {
			r.gate.failf("recall query %d: %v", q, err)
			return
		}
		sims := make([]float64, len(hits))
		for j, h := range hits {
			ri, ok := row[h.User]
			if !ok {
				r.gate.failf("recall query %d names %q, which is not live", q, h.User)
				continue
			}
			sims[j] = core.Jaccard(fp, live.Fingerprint(ri))
			if d := sims[j] - h.Similarity; d > 1e-9 || d < -1e-9 {
				r.gate.failf("recall query %d: %q reported similarity %v, true %v", q, h.User, h.Similarity, sims[j])
			}
		}
		recalls[i] = recallOf(sims, exactTopK(live, fp, r.c.sc.K))
		sizes[i] = float64(len(rep.Body))
	})
	r.metrics["recall_at_10"] = mean(recalls)
	r.metrics["service.response_bytes"] = mean(sizes)
	return nil
}

// sampleQuality reads QualityN members' served neighbourhoods and scores
// them (paper Eq. 2–3) against the exact neighbourhoods over the live
// users of the process that serves them — a shard's graph only spans its
// own users.
func (r *servingRun) sampleQuality() error {
	owner := r.owner()
	type part struct {
		pc  *core.PackedCorpus
		row map[string]int
	}
	parts := make([]part, len(r.dep.cores))
	for s := range parts {
		pc, ids, err := r.m.live(r.c.sc.Bits, func(id string) bool { return owner(id) == s })
		if err != nil {
			return err
		}
		row := make(map[string]int, len(ids))
		for i, id := range ids {
			row[id] = i
		}
		parts[s] = part{pc: pc, row: row}
	}
	n := r.c.sc.QualityN
	quals := make([]float64, n)
	parallelFor(n, func(i int) {
		quals[i] = -1
		id := memberID(i * r.c.sc.N / n)
		p := parts[owner(id)]
		u, ok := p.row[id]
		if !ok {
			return // deleted during churn
		}
		sentAt := r.clock()
		hits, _, err := r.fetchHits(func() (reply, error) { return r.tgt.neighbors(id) })
		if err == nil {
			err = r.m.checkHits(hits, r.c.sc.K, sentAt)
		}
		if err != nil {
			r.gate.failf("neighbors of %s: %v", id, err)
			return
		}
		sims := make([]float64, len(hits))
		for j, h := range hits {
			sims[j] = h.Similarity
		}
		exact := exactTopK(p.pc, p.pc.Fingerprint(u), r.c.sc.K+1)
		kept := exact[:0]
		for _, nb := range exact {
			if int(nb.ID) != u && len(kept) < r.c.sc.K {
				kept = append(kept, nb)
			}
		}
		quals[i] = qualityOf(sims, kept)
	})
	var kept []float64
	for _, q := range quals {
		if q >= 0 {
			kept = append(kept, q)
		}
	}
	if len(kept) == 0 {
		return fmt.Errorf("no live member left to sample quality from")
	}
	r.metrics["build_quality"] = mean(kept)
	return nil
}

// recoverCycles is how many times the outage is timed; the fastest counts.
const recoverCycles = 3

// recover SIGKILLs one data-holding process, restarts it on the same data
// dir and times the outage: kill → first graph-mode 200 (through the
// router: first 200 with full coverage). Then every acked mutation must
// read back.
func (r *servingRun) recover() error {
	d := r.dep
	full := fmt.Sprintf("%d/%d", numShards, numShards)
	var outages []float64
	for cycle := 0; cycle < recoverCycles; cycle++ {
		killedAt := time.Now()
		d.cores[0].kill()
		p, err := r.cfg.ps.start(d.names[0], d.args[0]...)
		if err != nil {
			return err
		}
		d.cores[0] = p
		if !d.routed {
			d.front = p
			r.tgt.close()
			r.tgt = newTarget(p.url(), r.nproc)
		}
		err = waitFor(60*time.Second, "the restarted process to serve graph queries", func() bool {
			rep, err := r.tgt.query(r.c.heldBody(0), "graph", r.c.sc.K)
			if err != nil || rep.Status != http.StatusOK {
				return false
			}
			return !d.routed || rep.Header.Get(router.HeaderPartialResults) == full
		})
		if err != nil {
			return err
		}
		outages = append(outages, time.Since(killedAt).Seconds())
	}
	r.metrics["recover_s"] = minOf(outages)

	acked := r.m.ackedMutations()
	lost := make([]bool, len(acked))
	parallelFor(len(acked), func(i int) {
		a := acked[i]
		want := http.StatusOK
		if a.Deleted {
			want = http.StatusGone
		}
		rep, err := r.tgt.neighbors(a.ID)
		if err != nil || rep.Status != want {
			lost[i] = true
			r.gate.failf("acked mutation of %s not readable after restart: got %d (%v), want %d", a.ID, rep.Status, err, want)
		}
	})
	nLost := 0
	for _, l := range lost {
		if l {
			nLost++
		}
	}
	fmt.Fprintf(r.cfg.out, "  restart: outages %.3v s; %d acked mutations read back, %d lost\n", outages, len(acked), nLost)
	return nil
}

// counters is the slice of the program's own /metrics the benchmark
// reads, summed over the data-holding processes, plus the router's.
type counters struct {
	shed, graph, scan, compactions int64
	waitSum                        float64
	waitCount                      int64
	shardQueries                   int64
	routerQueries, hedges, retries int64
	partial                        int64
}

func (r *servingRun) readCounters() (counters, error) {
	var c counters
	for _, p := range r.dep.cores {
		t := newTarget(p.url(), 1)
		s, err := t.metrics()
		t.close()
		if err != nil {
			return c, fmt.Errorf("reading %s /metrics: %w\n%s", p.name, err, p.logTail())
		}
		for _, class := range []string{"read", "query", "write"} {
			c.shed += s.Counters["admit."+class+".shed.total"]
		}
		c.graph += s.Counters["query.mode.graph.total"]
		c.scan += s.Counters["query.mode.scan.total"]
		c.compactions += s.Counters["snapshots_written"]
		c.waitSum += s.Histograms["admit.query.wait.seconds"].Sum
		c.waitCount += s.Histograms["admit.query.wait.seconds"].Count
		c.shardQueries += s.Histograms["query.seconds"].Count
	}
	if r.dep.routed {
		s, err := r.tgt.metrics()
		if err != nil {
			return c, fmt.Errorf("reading router /metrics: %w", err)
		}
		c.routerQueries = s.Counters["router.query.total"]
		c.hedges = s.Counters["router.hedge.total"]
		c.retries = s.Counters["router.retry.total"]
		c.partial = s.Counters["router.query.partial.total"]
	}
	return c, nil
}

// reportCounters turns the delta between two reads into per-layer metrics
// and gate checks.
func (r *servingRun) reportCounters(before, after counters) {
	shed := after.shed - before.shed
	partial := after.partial - before.partial
	r.metrics["admit.shed"] = float64(shed)
	r.metrics["router.partial"] = float64(partial)
	r.metrics["router.hedges"] = float64(after.hedges - before.hedges)
	r.metrics["router.retries"] = float64(after.retries - before.retries)
	r.metrics["durable.compactions"] = float64(after.compactions - before.compactions)
	if n := after.waitCount - before.waitCount; n > 0 {
		r.metrics["admit.query_wait_us"] = (after.waitSum - before.waitSum) / float64(n) * 1e6
	}
	if g, s := after.graph-before.graph, after.scan-before.scan; g+s > 0 {
		r.metrics["service.graph_share"] = float64(g) / float64(g+s)
	}
	if n := after.routerQueries - before.routerQueries; n > 0 {
		r.metrics["router.fanout"] = float64(after.shardQueries-before.shardQueries) / float64(n)
	}
	if shed != 0 {
		r.gate.failf("admission shed %d requests", shed)
	}
	if partial != 0 {
		r.gate.failf("router answered %d queries with partial coverage", partial)
	}
}

// runServing runs one untraced serving workload end to end.
func runServing(cfg runConfig) (*result, error) {
	r, err := newServingRun(cfg)
	if err != nil {
		return nil, err
	}
	if err := r.setup(); err != nil {
		return nil, err
	}
	r.metrics["setup_s"] = time.Since(r.t0).Seconds()
	fmt.Fprintf(cfg.out, "  set-up %.2fs (build %.2fs)\n", r.metrics["setup_s"], r.metrics["build_s"])

	before, err := r.readCounters()
	if err != nil {
		return nil, err
	}
	r.measure()
	after, err := r.readCounters()
	if err != nil {
		return nil, err
	}
	r.reportCounters(before, after)
	if !r.plan.mutateFromA {
		r.burst()
	}
	if err := r.sampleRecall(); err != nil {
		return nil, err
	}
	if err := r.sampleQuality(); err != nil {
		return nil, err
	}
	r.metrics["peak_rss_mb"] = r.dep.mem("VmHWM")
	if err := r.recover(); err != nil {
		return nil, err
	}
	r.checkFloors()
	return r.result(endToEnd), nil
}

func newServingRun(cfg runConfig) (*servingRun, error) {
	r := &servingRun{
		cfg: cfg, plan: servingPlans[cfg.workload], gate: &gate{}, t0: time.Now(),
		nproc: runtime.GOMAXPROCS(0), metrics: map[string]float64{}, speed: 1,
	}
	var err error
	if r.c, err = newCorpus(cfg.sc, cfg.seed); err != nil {
		return nil, err
	}
	r.m = newModel(r.c, cfg.seed)
	return r, nil
}

func (r *servingRun) checkFloors() {
	if q := r.metrics["build_quality"]; q < floorBuildQuality {
		r.gate.failf("build_quality %.4f below %.2f", q, floorBuildQuality)
	}
	if v := r.metrics["recall_at_10"]; v < r.plan.recallFloor {
		r.gate.failf("recall_at_10 %.4f below %.2f", v, r.plan.recallFloor)
	}
}

func (r *servingRun) result(specs []metricSpec) *result {
	res := &result{Correct: r.gate.ok(), Attempted: r.att, Failed: r.failed, Metrics: map[string]float64{}, Violations: r.gate.list()}
	for _, s := range specs {
		res.Metrics[s.Name] = r.metrics[s.Name]
	}
	return res
}

// gate collects correctness violations; any one fails the run.
type gate struct {
	mu    sync.Mutex
	n     int
	first []string
}

func (g *gate) failf(format string, args ...any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n++
	if len(g.first) < 10 {
		g.first = append(g.first, fmt.Sprintf(format, args...))
	}
}

func (g *gate) ok() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n == 0
}

func (g *gate) list() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := append([]string(nil), g.first...)
	if g.n > len(g.first) {
		out = append(out, fmt.Sprintf("... and %d more", g.n-len(g.first)))
	}
	return out
}
