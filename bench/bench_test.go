package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{{50, 3}, {90, 5}, {100, 5}, {20, 1}, {1, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 {
		t.Error("empty samples must yield 0")
	}
}

func TestTailPercentilePicksWhatTheSampleSupports(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	// 400 samples: ten beyond leaves p97.5, whose nearest-rank value is 390.
	if p, v := tailPercentile(seq(400), 99, 10); p != 97.5 || v != 390 {
		t.Errorf("400 samples: p%v = %v, want p97.5 = 390", p, v)
	}
	// 5000 samples support p99.8; the cap holds it at p99.
	if p, v := tailPercentile(seq(5000), 99, 10); p != 99 || v != 4950 {
		t.Errorf("5000 samples: p%v = %v, want p99 = 4950", p, v)
	}
	// Too few samples for any tail: the median.
	if p, v := tailPercentile(seq(15), 99, 10); p != 50 || v != 8 {
		t.Errorf("15 samples: p%v = %v, want p50 = 8", p, v)
	}
}

func TestWindowedTailIgnoresOneBadWindow(t *testing.T) {
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = 1
	}
	for i := 1000; i < 2000; i++ { // one window stalls
		xs[i] = 100
	}
	p, v, windows := windowedTail(xs, 99, 10, 1000, 5)
	if windows != 5 || p != 99 || v != 1 {
		t.Errorf("windowedTail = p%v %v over %d windows, want p99 1 over 5", p, v, windows)
	}
	if _, _, w := windowedTail(xs[:400], 99, 10, 1000, 5); w != 1 {
		t.Errorf("400 samples split into %d windows, want 1", w)
	}
}

func TestLadderSelfTimesAndParents(t *testing.T) {
	rec := newRecorder()
	ld := newLadder(rec, "test")
	us := func(xs ...int) []time.Duration {
		ds := make([]time.Duration, len(xs))
		for i, x := range xs {
			ds[i] = time.Duration(x) * time.Microsecond
		}
		return ds
	}
	starts := []int64{0, 0, 0}
	ld.push("inner", "a", starts, us(10, 20, 30))
	ld.push("mid", "b", starts, us(15, 30, 45))
	ld.push("outer", "c", starts, us(115, 130, 145))

	s := ld.summary()
	if want := []float64{20, 10, 100}; !equalFloats(s.SelfUs, want) {
		t.Errorf("median self times %v, want %v", s.SelfUs, want)
	}
	if s.SumUs != 130 || s.TopUs != 130 || s.GapShare != 0 {
		t.Errorf("sum %v top %v gap %v, want 130 130 0", s.SumUs, s.TopUs, s.GapShare)
	}
	// Every inner span names the same request's span on the rung above.
	byID := map[int]span{}
	for _, sp := range rec.spans {
		byID[sp.ID] = sp
	}
	for _, sp := range rec.spans {
		switch sp.Layer {
		case "outer":
			if sp.Parent != 0 {
				t.Errorf("outermost span %d has parent %d", sp.ID, sp.Parent)
			}
		default:
			parent, ok := byID[sp.Parent]
			if !ok || parent.Req != sp.Req || parent.Layer == sp.Layer {
				t.Errorf("span %+v has parent %+v", sp, parent)
			}
		}
	}

	// Skewed per-request self times make the medians stop telescoping; the
	// gap must say so.
	skew := newLadder(newRecorder(), "skew")
	skew.push("inner", "a", starts, us(10, 10, 100))
	skew.push("outer", "b", starts, us(110, 20, 110))
	if g := skew.summary().GapShare; g < 0.5 {
		t.Errorf("skewed ladder reports gap %v, want a large one", g)
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			return false
		}
	}
	return true
}

// A stalled system delays the requests queued behind the stall; timed from
// their due time they must show that wait even though each is served fast.
func TestOpenLoopChargesQueueingToLaterRequests(t *testing.T) {
	const stall = 200 * time.Millisecond
	sched := make([]time.Duration, 300)
	for i := range sched {
		sched[i] = time.Duration(i) * time.Millisecond
	}
	samples := runOpen(sched, func(i int) op { return op{Index: i} }, 1, func(_ int, o op) outcome {
		if o.Index == 50 {
			time.Sleep(stall)
		}
		return outcome{OK: true}
	})
	for _, s := range samples {
		if s.Dropped || !s.OK {
			t.Fatalf("sample %d dropped or failed", s.Op.Index)
		}
	}
	// Request 60 was due 10 ms into the stall: ~190 ms of queueing, served
	// in microseconds.
	s := samples[60]
	if wait := s.End - s.Due; wait < 150*time.Millisecond {
		t.Errorf("request behind the stall shows %v from its due time, want ≳190ms", wait)
	}
	if service := s.End - s.Start; service > 50*time.Millisecond {
		t.Errorf("request behind the stall took %v to serve, want ≈0", service)
	}
	// Before the stall nothing queues.
	if wait := samples[10].End - samples[10].Due; wait > 50*time.Millisecond {
		t.Errorf("request before the stall waited %v", wait)
	}
}

func TestStreamAndScheduleAreDeterministic(t *testing.T) {
	a := stream{seed: 7, mutShare: 0.2, held: 4000}
	b := stream{seed: 7, mutShare: 0.2, held: 4000}
	other := stream{seed: 8, mutShare: 0.2, held: 4000}
	muts, differ := 0, 0
	byKind := map[opKind]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		if a.at(i) != b.at(i) {
			t.Fatalf("same seed, op %d differs: %+v vs %+v", i, a.at(i), b.at(i))
		}
		if a.at(i) != other.at(i) {
			differ++
		}
		o := a.at(i)
		byKind[o.Kind]++
		if o.Kind.mutation() {
			muts++
		}
		if o.Payload < 0 || o.Payload >= 4000 || o.Index != i {
			t.Fatalf("op %d out of range: %+v", i, o)
		}
	}
	if differ < n/2 {
		t.Errorf("seeds 7 and 8 agree on %d of %d ops", n-differ, n)
	}
	if share := float64(muts) / n; math.Abs(share-0.2) > 0.02 {
		t.Errorf("mutation share %v, want 0.2", share)
	}
	// Half the mutations insert, a quarter overwrite, a quarter delete.
	if r := float64(byKind[opInsert]) / float64(muts); math.Abs(r-0.5) > 0.05 {
		t.Errorf("insert share of mutations %v, want 0.5", r)
	}
	if r := float64(byKind[opDelete]) / float64(muts); math.Abs(r-0.25) > 0.05 {
		t.Errorf("delete share of mutations %v, want 0.25", r)
	}

	s1 := poissonSchedule(7, 1000, 2*time.Second)
	s2 := poissonSchedule(7, 1000, 2*time.Second)
	if len(s1) != len(s2) {
		t.Fatalf("same seed, %d vs %d arrivals", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("same seed, arrival %d differs", i)
		}
		if i > 0 && s1[i] < s1[i-1] {
			t.Fatalf("arrival %d precedes its predecessor", i)
		}
	}
	if math.Abs(float64(len(s1))-2000) > 200 {
		t.Errorf("%d arrivals in 2 s at 1000/s", len(s1))
	}
	if s3 := poissonSchedule(8, 1000, 2*time.Second); len(s3) == len(s1) && s3[0] == s1[0] {
		t.Error("seeds 7 and 8 produce the same schedule")
	}
}

func TestVictimsNeverCollide(t *testing.T) {
	v := newVictims(1000, 3)
	seen := map[int]opKind{}
	for i := 0; i < 499; i++ {
		for _, k := range []opKind{opDelete, opOverwrite} {
			u := v.pick(op{Kind: k, Index: i})
			if prev, dup := seen[u]; dup {
				t.Fatalf("user %d targeted twice (%v then %v at index %d)", u, prev, k, i)
			}
			seen[u] = k
		}
	}
}

func TestProcParsing(t *testing.T) {
	// The command may hold spaces and parentheses; fields count from the
	// last ')'. utime=1234 stime=766 ticks → 20 s.
	stat := "4242 (knn (srv) x) S 1 4242 4242 0 -1 4194560 500 0 0 0 1234 766 0 0 20 0 9 0 100 1000 200 18446744073709551615"
	got, err := parseStatCPU(stat)
	if err != nil || got != 20 {
		t.Errorf("parseStatCPU = %v, %v; want 20", got, err)
	}
	if _, err := parseStatCPU("garbage"); err == nil {
		t.Error("parseStatCPU accepted garbage")
	}
	if _, err := parseStatCPU("1 (x) S 1 2"); err == nil {
		t.Error("parseStatCPU accepted a truncated line")
	}
	status := "Name:\tknnserver\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t  102400 kB\n"
	if kb, err := parseStatusKB(status, "VmHWM"); err != nil || kb != 204800 {
		t.Errorf("VmHWM = %v, %v; want 204800", kb, err)
	}
	if kb, err := parseStatusKB(status, "VmRSS"); err != nil || kb != 102400 {
		t.Errorf("VmRSS = %v, %v; want 102400", kb, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("parseStatusKB found a line that is not there")
	}
	if cpuSeconds(os.Getpid()) < 0 || memMiB(os.Getpid(), "VmRSS") <= 0 {
		t.Error("reading this process's own /proc entries failed")
	}
}

func TestModelGatesResults(t *testing.T) {
	c, err := newCorpus(scale{N: 50, Held: 10, Bits: 256, K: 5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := newModel(c, 1)
	ok := []hit{{"u1", 0.9}, {"u2", 0.9}, {"u3", 0.1}}
	if err := m.checkHits(ok, 5, 100); err != nil {
		t.Errorf("valid result rejected: %v", err)
	}
	if err := m.checkHits([]hit{{"u1", 0.1}, {"u2", 0.9}}, 5, 100); err == nil {
		t.Error("unsorted result accepted")
	}
	if err := m.checkHits([]hit{{"nobody", 0.5}}, 5, 100); err == nil {
		t.Error("unknown user accepted")
	}
	if err := m.checkHits(ok, 2, 100); err == nil {
		t.Error("more than k results accepted")
	}
	del := op{Kind: opDelete, Index: 0}
	id := m.begin(del)
	m.commit(del, id, c.fps[0], 50)
	gone := []hit{{id, 0.5}}
	if err := m.checkHits(gone, 5, 100); err == nil {
		t.Error("user deleted before the request was sent accepted")
	}
	if err := m.checkHits(gone, 5, 40); err != nil {
		t.Errorf("user deleted after the request was sent rejected: %v", err)
	}
	if _, ids, err := m.live(256, nil); err != nil || len(ids) != 49 {
		t.Errorf("live set has %d users (%v), want 49", len(ids), err)
	}
}

// BENCHMARK.json and spec.go state the same contract.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bj struct {
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, spec.go says %q", i, w.Name, workloadNames[i])
		}
	}
	check := func(kind string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in spec.go", len(got), kind, len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s metric %d is %+v, spec.go says %+v", kind, i, g, w)
			}
			if bounded && (g.Bound == nil || *g.Bound != w.Bound) {
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in spec.go", g.Name, g.Bound, w.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: per-layer metric carries a bound", g.Name)
			}
		}
	}
	check("end-to-end", bj.EndToEnd, endToEnd, true)
	check("per-layer", bj.PerLayer, perLayer, false)
}

// The smoke scale drives every workload, untraced and traced, through the
// same code as the full scale.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("launches knnserver processes")
	}
	for _, args := range [][]string{{"-smoke"}, {"-smoke", "--trace", "1", "--workload", wlChurn}} {
		var out, errOut bytes.Buffer
		start := time.Now()
		code := realMain(args, &out, &errOut)
		if code != 0 {
			t.Fatalf("bench %v exited %d\nstderr: %s\nstdout tail: %s", args, code, errOut.String(), tail(out.String(), 40))
		}
		results := 0
		for _, line := range strings.Split(out.String(), "\n") {
			if !strings.HasPrefix(line, "{") {
				continue
			}
			var res struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				t.Fatalf("result line does not parse: %v\n%s", err, line)
			}
			results++
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("run reports correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if len(args) > 1 {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("run reports %d metrics, want %d", len(res.Metrics), len(want))
			}
			for _, s := range want {
				m, ok := res.Metrics[s.Name]
				if !ok || m.Unit != s.Unit {
					t.Errorf("metric %s missing or in unit %q, want %q", s.Name, m.Unit, s.Unit)
				}
				if len(args) == 1 && m.Value <= 0 {
					t.Errorf("end-to-end metric %s is %v", s.Name, m.Value)
				}
			}
		}
		if want := map[int]int{1: len(workloadNames), 5: 1}[len(args)]; results != want {
			t.Errorf("bench %v printed %d result lines, want %d", args, results, want)
		}
		t.Logf("bench %v: %v", args, time.Since(start).Round(100*time.Millisecond))
	}
}

func tail(s string, lines int) string {
	all := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(all) > lines {
		all = all[len(all)-lines:]
	}
	return strings.Join(all, "\n")
}
