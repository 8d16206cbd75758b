package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one replayed request share
// Req; Parent is the span of the same request on the rung above (0 at the
// top of a ladder). Times are nanoseconds since the recorder was created.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps spans in memory; they are written out once, when the run
// ends, so recording costs a lock, an append and two clock reads.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// add files a span and returns its id.
func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// rung is one level of a ladder: the same requests replayed against one
// layer. Durs[req] is how long the layer took for request req.
type rung struct {
	Layer, Name string
	Durs        []time.Duration
}

// ladder is a chain of rungs, innermost (rung 0) to outermost: every rung
// contains the work of the one before it plus its own. Self time of a rung
// for a request is its duration minus the inner rung's for the same
// request; the innermost rung's self time is its whole duration.
type ladder struct {
	Title string
	Rungs []rung

	rec       *recorder
	prevFirst int // index in rec.spans of the previous rung's first span
}

func newLadder(rec *recorder, title string) *ladder {
	return &ladder{Title: title, rec: rec, prevFirst: -1}
}

// push adds the next rung up. Replays run a block of requests per rung (see
// replayBlock), so a parent span does not enclose its child in wall-clock
// time; the parent link says which outer call the inner one stands for.
func (l *ladder) push(layer, name string, starts []int64, durs []time.Duration) {
	first := len(l.rec.spans)
	for req, d := range durs {
		id := l.rec.add(span{Req: req, Layer: layer, Name: name, StartNs: starts[req], EndNs: starts[req] + int64(d)})
		if l.prevFirst >= 0 {
			l.rec.spans[l.prevFirst+req].Parent = id
		}
	}
	l.prevFirst = first
	l.Rungs = append(l.Rungs, rung{Layer: layer, Name: name, Durs: durs})
}

func durUs(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// selfUs returns the per-request self time of rung ri in microseconds.
func (l *ladder) selfUs(ri int) []float64 {
	out := make([]float64, len(l.Rungs[ri].Durs))
	for req, d := range l.Rungs[ri].Durs {
		if ri > 0 {
			d -= l.Rungs[ri-1].Durs[req]
		}
		out[req] = durUs(d)
	}
	return out
}

// totalUs returns the per-request duration of rung ri in microseconds.
func (l *ladder) totalUs(ri int) []float64 {
	out := make([]float64, len(l.Rungs[ri].Durs))
	for req, d := range l.Rungs[ri].Durs {
		out[req] = durUs(d)
	}
	return out
}

// ladderSummary is the printed ladder: the median self time and median
// duration of every rung, the sum of the former, the outermost rung's
// median, and the gap between those two as a share of the latter.
// Per-request self times telescope exactly; their medians need not, so the
// gap says how far the medians can be read as a budget.
type ladderSummary struct {
	SelfUs, TotalUs []float64
	SumUs, TopUs    float64
	GapShare        float64
}

func (l *ladder) summary() ladderSummary {
	var s ladderSummary
	for ri := range l.Rungs {
		s.SelfUs = append(s.SelfUs, median(l.selfUs(ri)))
		s.TotalUs = append(s.TotalUs, median(l.totalUs(ri)))
		s.SumUs += s.SelfUs[ri]
	}
	if n := len(s.TotalUs); n > 0 {
		s.TopUs = s.TotalUs[n-1]
		s.GapShare = relDiff(s.TopUs, s.SumUs)
	}
	return s
}

func (l *ladder) print(w io.Writer) ladderSummary {
	s := l.summary()
	if len(l.Rungs) == 0 {
		return s
	}
	fmt.Fprintf(w, "ladder %s (median µs over %d requests, outermost first)\n", l.Title, len(l.Rungs[0].Durs))
	for ri := len(l.Rungs) - 1; ri >= 0; ri-- {
		depth := len(l.Rungs) - 1 - ri
		fmt.Fprintf(w, "  %s%-*s total %9.1f  self %9.1f\n", strings.Repeat("  ", depth),
			30-2*depth, l.Rungs[ri].Layer+"."+l.Rungs[ri].Name, s.TotalUs[ri], s.SelfUs[ri])
	}
	fmt.Fprintf(w, "  sum of self %.1f vs outermost %.1f: gap %.3f\n", s.SumUs, s.TopUs, s.GapShare)
	return s
}
