package knn

import (
	"context"
	"runtime"

	"goldfinger/internal/obs"
)

// Options configures the approximate KNN algorithms. The zero value selects
// the paper's parameters (§3.3): δ = 0.001 and at most 30 iterations.
type Options struct {
	// Workers is the number of parallel workers; 0 means GOMAXPROCS.
	Workers int
	// Seed drives the random initial graph and all sampling.
	Seed int64
	// Delta is the termination threshold: an iteration performing fewer
	// than Delta·k·n updates ends the algorithm. 0 means 0.001.
	Delta float64
	// MaxIterations bounds the number of refinement iterations. 0 means 30.
	MaxIterations int
	// Ctx cancels a running build. Builders check it between scan blocks
	// (Brute Force) or refinement units (Hyrec, NNDescent), so a
	// cancellation takes effect within one block, and return the partial —
	// still structurally valid — graph accumulated so far; callers decide
	// whether to keep it by inspecting Ctx.Err(). Nil means never cancel.
	Ctx context.Context
	// Obs, when non-nil, receives build instrumentation: per-phase
	// durations (histograms under "build.phase.<name>.seconds"), progress
	// gauges, the current-phase text, and the comparison counter. Nil
	// disables instrumentation at the cost of one nil check per event.
	Obs *obs.Registry
}

func (o Options) workers() int {
	if o.Workers <= 0 {
		return defaultWorkers()
	}
	return o.Workers
}

func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

func (o Options) delta() float64 {
	if o.Delta == 0 {
		return 0.001
	}
	return o.Delta
}

func (o Options) maxIterations() int {
	if o.MaxIterations == 0 {
		return 30
	}
	return o.MaxIterations
}

func (o Options) ctx() context.Context {
	if o.Ctx == nil {
		return context.Background()
	}
	return o.Ctx
}

// Metric names the builders publish into Options.Obs. The service's
// /metrics endpoint exports them verbatim and /stats reads the progress
// gauges and phase text while a build runs.
const (
	// MetricComparisons counts similarity computations across all builds;
	// it matches the sum of the per-build Stats.Comparisons values.
	MetricComparisons = "build.comparisons.total"
	// MetricProgressDone / MetricProgressTotal gauge the current build's
	// progress in algorithm-specific units: scan blocks for Brute Force,
	// iterations for Hyrec and NNDescent, users for LSH.
	MetricProgressDone  = "build.progress.done"
	MetricProgressTotal = "build.progress.total"
	// MetricPhase is the text value holding the current build phase
	// ("snapshot", "init", "scan", "iterate", "merge", "bucket",
	// "refine", "idle").
	MetricPhase = "build.phase"
)

// buildMetrics caches the obs handles a builder touches, so the hot path
// never goes through the registry's mutex. All handles are nil (and their
// methods no-ops) when Options.Obs is nil.
type buildMetrics struct {
	reg           *obs.Registry
	comparisons   *obs.Counter
	progressDone  *obs.Gauge
	progressTotal *obs.Gauge
}

func (o Options) metrics() buildMetrics {
	return buildMetrics{
		reg:           o.Obs,
		comparisons:   o.Obs.Counter(MetricComparisons),
		progressDone:  o.Obs.Gauge(MetricProgressDone),
		progressTotal: o.Obs.Gauge(MetricProgressTotal),
	}
}

// startProgress resets the progress gauges for a new build.
func (m buildMetrics) startProgress(total int64) {
	m.progressTotal.Set(total)
	m.progressDone.Set(0)
}

// phase flips the current-phase text and returns the histogram the phase's
// duration should be observed into.
func (m buildMetrics) phase(name string) *obs.Histogram {
	m.reg.SetText(MetricPhase, name)
	return m.reg.Histogram("build.phase."+name+".seconds", obs.DefTimeBuckets)
}

// Stats reports how an algorithm run unfolded.
type Stats struct {
	// Iterations is the number of refinement iterations performed (0 for
	// one-shot algorithms such as Brute Force and LSH).
	Iterations int
	// Comparisons is the number of similarity computations.
	Comparisons int64
	// Updates is the number of successful neighborhood improvements.
	// For BruteForce only Comparisons is independent of the schedule:
	// its Updates depends on which worker claimed which row block.
	Updates int64
}

// ScanRate returns Comparisons normalized by the n(n−1)/2 comparisons of an
// exhaustive search — the metric of the paper's Fig. 12.
func (s Stats) ScanRate(n int) float64 {
	if n < 2 {
		return 0
	}
	return float64(s.Comparisons) / (float64(n) * float64(n-1) / 2)
}
