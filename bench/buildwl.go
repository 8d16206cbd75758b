package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"goldfinger/internal/core"
	"goldfinger/internal/knn"
)

// runBuild is the untraced build-100k workload: the library alone, no
// server. It reports the same end-to-end metrics as the serving workloads,
// each measured at the library's own boundary (see README.md).
func runBuild(cfg runConfig) (*result, error) {
	// peak_rss_mb is this process's high-water mark; "5" resets it, so that
	// a run after other workloads in the same process (-sets, all) starts
	// its own. An error (a kernel without the knob) leaves the old mark.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	t0 := time.Now()
	c, err := newCorpus(cfg.sc, cfg.seed)
	if err != nil {
		return nil, err
	}
	sc := cfg.sc
	g := &gate{}
	m := map[string]float64{"setup_s": time.Since(t0).Seconds()}
	slice := func(frac float64) time.Duration {
		return time.Duration(frac * cfg.seconds * float64(time.Second))
	}

	// build_s: pack + cluster-and-conquer + navigable. As many repetitions
	// as fit in half the measured seconds (at least two); the fastest
	// counts, because interference only ever adds time.
	var lg *libGraph
	builds := timeReps(slice(0.5), 2, 5, func() {
		lg = buildLib(c.scheme, c.profiles[:sc.N], sc.K, cfg.seed)
	})
	m["build_s"] = minOf(builds)
	fmt.Fprintf(cfg.out, "  %d build repetitions: %.3v s\n", len(builds), builds)
	if err := lg.checkDegree(sc.K); err != nil {
		g.failf("%v", err)
	}
	quality, _ := lg.quality(sc.QualityN, sc.K)
	m["build_quality"] = quality
	if quality < floorBuildQuality {
		g.failf("build_quality %.4f below %.2f", quality, floorBuildQuality)
	}

	online, err := lg.online(c.fps[:sc.N], sc.K)
	if err != nil {
		return nil, err
	}
	vict := newVictims(sc.N, cfg.seed)
	muts := stream{seed: uint64(cfg.seed) ^ 0xD<<32, mutShare: 1, held: sc.Held}

	// The query, scan, throughput and mutation figures come from the same
	// scheme as the serving workloads (see rounds and refWork): each round
	// searches, scans, runs the closed loop and mutates for a slice of the
	// run, and the figures are scaled by the machine speed read between them.
	rv := roundValues{}
	var recalls []float64
	att, nextQ, nextMut := 0, 0, 0
	perRound := func(n int) int { return max(n/rounds, 1) }
	var speeds []float64
	for round := 0; round < rounds; round++ {
		speeds = append(speeds, reference().speed())
		var searchMs, scanMs, mutMs []float64
		for i := 0; i < perRound(2*sc.LadderQ); i++ {
			fp := c.heldFP(nextQ % sc.Held)
			nextQ++
			t := time.Now()
			res, _ := lg.search(fp, sc.K)
			searchMs = append(searchMs, float64(time.Since(t))/float64(time.Millisecond))
			if len(res) != sc.K {
				g.failf("a search returned %d results", len(res))
			}
		}
		// The exact scan doubles as the recall oracle for the same query.
		for i := 0; i < perRound(sc.RecallN); i++ {
			fp := c.heldFP((round*perRound(sc.RecallN) + i) * sc.Held / sc.RecallN % sc.Held)
			t := time.Now()
			exact := lg.scan(fp, sc.K)
			scanMs = append(scanMs, float64(time.Since(t))/float64(time.Millisecond))
			res, _ := lg.search(fp, sc.K)
			sims := make([]float64, len(res))
			for j, nb := range res {
				sims[j] = nb.Sim
			}
			recalls = append(recalls, recallOf(sims, exact))
		}
		done, elapsed, cpu := closedLoopSearch(lg, c, sc.K, slice(0.25/rounds))
		for i := 0; i < perRound(sc.BurstN); i++ {
			t := time.Now()
			if _, err := applyOnline(online, c, vict, muts.at(nextMut)); err != nil {
				return nil, err
			}
			nextMut++
			online.Snapshot() // a mutation is not visible before the next reader's snapshot
			mutMs = append(mutMs, float64(time.Since(t))/float64(time.Millisecond))
		}
		att += len(searchMs) + len(scanMs) + done + len(mutMs)
		speeds = append(speeds, reference().speed())
		rv.add("query_p50_ms", median(searchMs))
		rv.add("scan_p50_ms", median(scanMs))
		rv.add("mutate_p50_ms", median(mutMs))
		rv.add("query_qps", float64(done)/elapsed.Seconds())
		rv.add("cpu_ms_per_op", cpu*1000/float64(max(done, 1)))
	}
	speed := median(speeds)
	for _, name := range []string{"query_p50_ms", "scan_p50_ms", "mutate_p50_ms", "cpu_ms_per_op"} {
		m[name] = quiet(rv[name], true) * speed
	}
	m["query_qps"] = quiet(rv["query_qps"], false) / speed
	fmt.Fprintf(cfg.out, "  machine speed %.3f of nominal; per round as timed: search p50 %.3v ms, scan p50 %.3v ms\n",
		speed, rv["query_p50_ms"], rv["scan_p50_ms"])
	m["recall_at_10"] = mean(recalls)
	if m["recall_at_10"] < floorRecallRead {
		g.failf("recall_at_10 %.4f below %.2f", m["recall_at_10"], floorRecallRead)
	}

	// recover_s: the library's share of a restart — from fingerprints and
	// the base graph back to a searchable, mutable structure.
	recovers := timeReps(0, recoverCycles, recoverCycles, func() {
		packed, err := core.NewPackedCorpus(sc.Bits, c.fps[:sc.N])
		if err != nil {
			g.failf("repacking: %v", err)
			return
		}
		nav := lg.g.Navigable(knn.NewPackedSHFProvider(packed))
		re := &libGraph{packed: packed, g: lg.g, nav: nav, asn: lg.asn}
		if _, err := re.online(c.fps[:sc.N], sc.K); err != nil {
			g.failf("rebuilding the maintainer: %v", err)
		}
	})
	m["recover_s"] = minOf(recovers)
	m["peak_rss_mb"] = memMiB(os.Getpid(), "VmHWM")

	return &result{Correct: g.ok(), Attempted: att, Metrics: m, Violations: g.list()}, nil
}

// closedLoopSearch keeps GOMAXPROCS callers searching back to back for dur
// and returns how many searches completed, the time they took and the CPU
// this process spent on them.
func closedLoopSearch(lg *libGraph, c *corpus, k int, dur time.Duration) (done int, elapsed time.Duration, cpuSeconds float64) {
	var total atomic.Int64
	workers := runtime.GOMAXPROCS(0)
	cpu0, start := selfCPU(), time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n := int64(0)
			for q := w; time.Since(start) < dur; q += workers {
				lg.search(c.heldFP(q%c.sc.Held), k)
				n++
			}
			total.Add(n)
		}(w)
	}
	wg.Wait()
	return int(total.Load()), time.Since(start), selfCPU() - cpu0
}
