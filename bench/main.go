// Command bench is the one benchmark of the SHF KNN stack. It runs a named
// workload against the tree it lives in — the library in-process for
// build-100k, the real cmd/knnserver binary for the serving workloads —
// prints every metric by name with its unit, checks that what the program
// answered is correct, and ends with one JSON line. README.md explains the
// workloads, the metrics and how to read a trace.
//
//	go run . --workload serve-read-100k --seed 42 --seconds 10 --trace 0
//	go run . -sets 2            # every workload twice; fails on disagreement
//	go run . -smoke             # same code paths at n=2000, seconds not minutes
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runConfig is one workload run.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	sc       scale
	out      io.Writer
	ps       *procs
}

// result is what a run reports.
type result struct {
	Correct    bool
	Attempted  int
	Failed     int
	Metrics    map[string]float64
	Violations []string
}

// runLimit bounds one workload run; the contract allows 180 s.
const runLimit = 170 * time.Second

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: "+fmt.Sprint(workloadNames)+" or all")
	seed := fs.Int64("seed", 42, "seed of the dataset, the SHF scheme, arrival times and the op stream")
	seconds := fs.Float64("seconds", 10, "how long one run measures")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics and the ladder")
	traceOut := fs.String("trace-out", "", "traced run: also write the spans to this file (JSON lines)")
	smoke := fs.Bool("smoke", false, "n=2000 and 2 measured seconds: the same code paths in seconds")
	sets := fs.Int("sets", 1, "run the selected workloads this many times and fail if two sets disagree beyond a metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %v\n", fs.Args())
		return 2
	}
	names := workloadNames
	if *workload != "all" {
		if !slices.Contains(workloadNames, *workload) {
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %v)\n", *workload, workloadNames)
			return 2
		}
		names = []string{*workload}
	}
	if *seconds <= 0 || *sets < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: need --seconds > 0, -sets >= 1, --trace 0 or 1")
		return 2
	}
	sc := fullScale
	if *smoke {
		sc = smokeScale
		if !flagSet(fs, "seconds") {
			*seconds = 2
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	root, err := findRepoRoot(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	workDir := filepath.Join(root, workDirName)
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	bin, err := buildServer(root, workDir)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	ps, err := newProcs(bin, workDir)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	// Children and temp dirs go away on every way out: normal return,
	// panic (deferred), SIGINT/SIGTERM and the run-time limit (below).
	defer ps.cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-done:
			return
		case <-sig:
			fmt.Fprintln(stderr, "bench: interrupted")
		case <-time.After(runLimit * time.Duration(len(names)**sets)):
			fmt.Fprintln(stderr, "bench: run-time limit reached")
		}
		ps.cleanup()
		os.Exit(1)
	}()

	printEnv(stdout, root, *seed)
	code := 0
	var prev map[string]*result
	for set := 0; set < *sets; set++ {
		cur := map[string]*result{}
		for _, name := range names {
			cfg := runConfig{
				workload: name, seed: *seed, seconds: *seconds, trace: *trace == 1,
				traceOut: *traceOut, sc: sc, out: stdout, ps: ps,
			}
			fmt.Fprintf(stdout, "== %s (seed %d, %.0f s, trace %d)\n", name, *seed, *seconds, *trace)
			res, err := runWorkload(cfg)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			printResult(stdout, cfg, res)
			if !res.Correct {
				code = 1
			}
			cur[name] = res
		}
		if prev != nil && !compareSets(stdout, names, prev, cur) {
			code = 1
		}
		prev = cur
	}
	return code
}

func flagSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// runWorkload dispatches one run. Each run starts from freed memory so a
// -sets or all-workloads invocation measures what a single one does.
func runWorkload(cfg runConfig) (*result, error) {
	runtime.GC()
	debug.FreeOSMemory()
	defer cfg.ps.reset()
	switch {
	case cfg.trace:
		return runTraced(cfg)
	case cfg.workload == wlBuild:
		return runBuild(cfg)
	default:
		return runServing(cfg)
	}
}

// printEnv records what the numbers were taken on.
func printEnv(w io.Writer, root string, seed int64) {
	commit := "unknown"
	if raw, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		commit = strings.TrimSpace(string(raw))
		if ref, ok := strings.CutPrefix(commit, "ref: "); ok {
			if raw, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
				commit = strings.TrimSpace(string(raw))
			}
		}
	}
	fmt.Fprintf(w, "bench: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, seed)
	fmt.Fprintf(w, "bench: frozen rates (req/s): serve-read auto %.0f, scan %.0f; churn mixed %.0f; routed auto %.0f, scan %.0f\n",
		rateServeAuto, rateServeScan, rateChurnMixed, rateRoutedAuto, rateRoutedScan)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints every metric by name with its unit, the gate's
// verdict, and — as the last line — the run's JSON object.
func printResult(w io.Writer, cfg runConfig, res *result) {
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, max(res.Attempted, 1), res.Failed, map[string]metricValue{}}
	for _, s := range specs {
		v := res.Metrics[s.Name]
		fmt.Fprintf(w, "%s %-36s %14.6g %s\n", cfg.workload, s.Name, v, s.Unit)
		out.Metrics[s.Name] = metricValue{v, s.Unit}
	}
	failedShare := float64(res.Failed) / float64(out.Attempted)
	fmt.Fprintf(w, "%s attempted %d failed %d failed_share %.6f correct %v\n",
		cfg.workload, out.Attempted, res.Failed, failedShare, res.Correct)
	for _, v := range res.Violations {
		fmt.Fprintf(w, "%s GATE: %s\n", cfg.workload, v)
	}
	line, _ := json.Marshal(out) // a struct of plain values cannot fail to encode
	fmt.Fprintf(w, "%s\n", line)
}

// compareSets prints, for every end-to-end metric of every workload, the
// relative difference between two sets beside the metric's bound, and
// reports whether all of them agree.
func compareSets(w io.Writer, names []string, a, b map[string]*result) bool {
	ok := true
	fmt.Fprintln(w, "== repeatability: set 2 vs set 1")
	for _, name := range names {
		keys := make([]string, 0, len(a[name].Metrics))
		for k := range a[name].Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			bound := boundOf(k)
			if bound == 0 {
				continue
			}
			d := relDiff(a[name].Metrics[k], b[name].Metrics[k])
			verdict := "ok"
			if d > bound {
				verdict = "DISAGREE"
				ok = false
			}
			fmt.Fprintf(w, "%s %-16s %12.6g %12.6g  diff %.4f  bound %.2f  %s\n",
				name, k, a[name].Metrics[k], b[name].Metrics[k], d, bound, verdict)
		}
	}
	return ok
}

func boundOf(metric string) float64 {
	for _, s := range endToEnd {
		if s.Name == metric {
			return s.Bound
		}
	}
	return 0
}
