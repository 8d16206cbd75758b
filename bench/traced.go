package main

import (
	"net/http"
	"time"
)

// tracedPhases runs the part of a traced run that needs the open loop:
// two phase-A replays — one as every untraced run does it, one filing a
// client span per request — whose difference is the tracing overhead, plus
// the counters and tail figures the per-layer list takes from them.
func (r *servingRun) tracedPhases(rec *recorder) error {
	before, err := r.readCounters()
	if err != nil {
		return err
	}
	const frac = 0.3
	plain := r.phaseA(0, frac)

	gen0, srv0 := selfCPU(), r.dep.cpu()
	r.spans = rec
	withSpans := r.phaseA(1, frac)
	r.spans = nil
	gen1, srv1 := selfCPU(), r.dep.cpu()
	r.reportQueryTail(withSpans)
	if p := median(plain.QueryMs); p > 0 {
		r.metrics["client.trace_overhead_share"] = (median(withSpans.QueryMs) - p) / p
	}
	if total := (gen1 - gen0) + (srv1 - srv0); total > 0 {
		r.metrics["client.gen_cpu_share"] = (gen1 - gen0) / total
	}
	after, err := r.readCounters()
	if err != nil {
		return err
	}
	r.reportCounters(before, after)
	if r.plan.mutateFromA {
		r.reportMutateTail(append(plain.MutateMs, withSpans.MutateMs...))
	} else {
		r.burst()
	}
	return nil
}

// httpRung is the knnserver.http rung: one raw request over t's single
// keep-alive connection, nothing decoded.
func (r *servingRun) httpRung(t *target) rungFn {
	var bytes, n float64
	return rungFn{layer: "knnserver", name: "http", run: func(i int) time.Duration {
		start := time.Now()
		rep, err := t.query(r.c.heldBody(i), "auto", r.c.sc.K)
		d := time.Since(start)
		r.att++
		if err != nil || rep.Status != http.StatusOK {
			r.failed++
			r.gate.failf("ladder query %d: status %d (%v)", i, rep.Status, err)
		}
		bytes, n = bytes+float64(len(rep.Body)), n+1
		r.metrics["service.response_bytes"] = bytes / n
		return d
	}}
}

// externalRungs are the two outermost rungs of the workload's own ladder:
// the front door over one connection, then the generator's request path —
// pooled connection, decode, correctness checks — as the open loop uses it.
func (r *servingRun) externalRungs() []rungFn {
	one := newTarget(r.dep.front.url(), 1)
	exec := r.exec(r.tgt, "auto")
	return []rungFn{
		r.httpRung(one),
		{layer: "client", name: "request", run: func(i int) time.Duration {
			start := time.Now()
			out := exec(0, op{Kind: opQuery, Payload: i})
			d := time.Since(start)
			r.att++
			if !out.OK {
				r.failed++
			}
			return d
		}},
	}
}
