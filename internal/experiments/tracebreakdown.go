package experiments

import (
	"context"
	"io"

	"csaw/internal/core"
	"csaw/internal/trace"
	"csaw/internal/worldgen"
)

// TraceBreakdown runs one serial client behind ISP-B — the multi-stage
// censor of Table 1 (DNS redirect + dropped HTTP/HTTPS for YouTube, iframe
// block pages for the rest) — with the flight recorder attached, and
// reports where each fetch's PLT went: the per-serving-source phase
// breakdown (DNS/connect/TLS/TTFB/body/switch) that EXPERIMENTS.md quotes.
//
// Each URL is fetched over several rounds, so the breakdown contrasts the
// expensive first visit (full detection, approach search) with the steady
// state (local-DB hit, straight to the selected approach).
var TraceBreakdown = experiment("trace-breakdown", scenario{scale: 300, sites: caseStudy, traced: true}, func(r *rig) *Result {
	// The -trace factory when the operator asked for a JSONL artifact, else
	// an unsampled recorder over a discarded stream (the aggregate breakdown
	// is the product either way).
	if r.tracer == nil {
		r.tracer = trace.New(r.w.Clock, trace.NewStreamSink(io.Discard), trace.WithTiming(trace.DefaultTick))
	}
	// Serial fetches keep one lane per path and no racing goroutines: the
	// breakdown then reflects protocol costs, not scheduling accidents.
	cl := r.client("trace-breakdown", 0, true, func(cfg *core.Config) { cfg.Serial = true }, r.isps[1])

	urls := []string{
		worldgen.YouTubeHost + "/",      // DNS redirect + SNI/HTTP drop: multi-stage
		worldgen.PornHost + "/",         // iframe block page
		worldgen.NewsHost + "/",         // clean, external CDN assets
		worldgen.SmallHost + "/",        // clean, small
		worldgen.YouTubeHost + "/watch", // second blocked page on the same host
	}
	res := &Result{Title: "PLT phase breakdown behind ISP-B (flight recorder)"}
	fetches, failures := 0, 0
	for round := 0; round < r.runs(3); round++ {
		for _, u := range urls {
			fetches++
			if !cl.FetchURL(context.Background(), u).OK() {
				failures++
			}
		}
	}
	cl.WaitIdle()

	res.Text = r.tracer.Breakdown()
	started, sampled := r.tracer.Stats()
	res.Metric("fetches", float64(fetches))
	res.Metric("fetch.failures", float64(failures))
	res.Metric("trace.spans.started", float64(started))
	res.Metric("trace.spans.recorded", float64(sampled))
	res.Note("switch = time before the serving lane opened (detection + earlier approaches); other = selection/db bookkeeping")
	return res
})
