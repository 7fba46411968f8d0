package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"csaw/internal/blockpage"
	"csaw/internal/detect"
	"csaw/internal/globaldb"
	"csaw/internal/httpx"
	"csaw/internal/localdb"
	"csaw/internal/seedrand"
	"csaw/internal/trace"
	"csaw/internal/vtime"
)

// Result is one proxied URL fetch.
type Result struct {
	URL    string
	Resp   *httpx.Response
	Source string // "direct" or the approach name
	Status localdb.Status
	Stages []localdb.Stage
	Took   time.Duration
	Err    error
}

// OK reports whether a response was served.
func (r *Result) OK() bool { return r.Err == nil && r.Resp != nil }

// Fetch implements web.Fetcher: the browser-facing entry point.
func (c *Client) Fetch(ctx context.Context, host, path string) (*httpx.Response, error) {
	res := c.FetchURL(ctx, localdb.JoinURL(host, path))
	if res.Err != nil {
		return nil, res.Err
	}
	return res.Resp, nil
}

// FetchURL runs Algorithm 1 for one URL ("host/path").
func (c *Client) FetchURL(ctx context.Context, url string) (res *Result) {
	start := c.cfg.Clock.Now()
	defer func() { res.Took = c.cfg.Clock.Since(start) }()

	url = localdb.JoinURL(localdb.SplitURL(url))
	// Flight recorder: one span per fetch; emission waits for background
	// lanes (the redundant copy can outlive this call).
	sp := c.cfg.Trace.Start(c.host.Name(), c.traceSeq.Add(1), url)
	if sp != nil {
		ctx = trace.WithSpan(ctx, sp)
		defer func() { sp.Finish(res.Source, res.Status.String(), res.Err) }()
	}
	status, stages, fromGlobal := c.verdict(sp, url)

	switch status {
	case localdb.Blocked:
		return c.fetchBlocked(ctx, url, stages, fromGlobal)
	case localdb.NotBlocked:
		if c.cfg.NoSelectiveRedundancy {
			return c.fetchUnmeasured(ctx, url)
		}
		// Known clean: the direct fetch implicitly re-measures it (churn
		// scenario B) without a redundant copy (selective redundancy,
		// §4.3.1); a blocked outcome is Unblocked→Blocked churn.
		return c.measureThenServe(ctx, url, "churn-unblocked-to-blocked")
	default:
		return c.fetchUnmeasured(ctx, url)
	}
}

// verdict is Algorithm 1's first question — what is known about url? —
// for every request, whatever its method: the local_DB's record unless it
// predates the censor's current epoch, else the crowd's under the same rule,
// widened under multihoming to what any provider blocks.
func (c *Client) verdict(sp *trace.Span, url string) (status localdb.Status, stages []localdb.Stage, fromGlobal bool) {
	rec, status := c.db.Lookup(url)
	stages = rec.Stages
	// Stale-verdict re-detection: a verdict measured before the censor's
	// current policy epoch (Config.CensorEpoch) describes an adversary that
	// no longer exists — treat the URL as unmeasured and re-detect.
	epoch := c.censorEpoch()
	if status != localdb.NotMeasured && !epoch.IsZero() && rec.Measured.Before(epoch) {
		c.counters.Add("stale-verdict", 1)
		sp.Event("db", "stale-verdict", status.String())
		status, stages = localdb.NotMeasured, nil
	}
	// Algorithm 1: consult the global list only when the local_DB does not
	// already say blocked.
	if status != localdb.Blocked {
		if e, ok := c.globalLookup(url); ok {
			if !epoch.IsZero() && e.LastTp.Before(epoch) {
				// The crowd's report predates the flip too: ignore it rather
				// than circumvent on outdated intelligence.
				c.counters.Add("stale-global-ignored", 1)
				sp.Event("db", "stale-global", "ignored")
			} else {
				status = localdb.Blocked
				stages = globaldb.FromWire(e.Stages)
				fromGlobal = true
			}
		}
	}
	if status == localdb.Blocked && !fromGlobal && c.Multihomed() && !c.cfg.NoMultihoming {
		// §4.4: under multihoming, circumvent for the union of the blocking
		// observed across providers (the "more strict censorship"). The
		// crowd's entry already is that union.
		stages = c.mergedStages(url, stages)
	}
	if sp != nil {
		detail := status.String()
		if fromGlobal {
			detail += " global"
		}
		sp.Event("db", "lookup", detail)
	}
	return status, stages, fromGlobal
}

// globalLookup consults the crowd's list for each of the host's ASes (exact
// URL, then the host's base URL), keeping only entries the §5 trust rule
// accepts. A URL more than one provider lists comes back as one entry with
// the union of their stages and the sum of their votes (§4.4).
func (c *Client) globalLookup(url string) (globaldb.Entry, bool) {
	g := c.gdb
	if g == nil {
		return globaldb.Entry{}, false
	}
	keys := []string{url, localdb.BaseURL(url)}
	if keys[1] == url {
		keys = keys[:1]
	}
	for _, key := range keys {
		var found globaldb.Entry
		listed := false
		for i := range c.host.NumASes() {
			e, ok := g.Lookup(c.host.ASNumber(i), key)
			if !ok || !(globaldb.TrustFilter{}).Trusted(e) {
				continue
			}
			if listed {
				found = mergeEntries(found, e)
			} else {
				found, listed = e, true
			}
		}
		if listed {
			return found, true
		}
	}
	return globaldb.Entry{}, false
}

// mergeEntries unions two providers' entries for one URL. The stage slices
// belong to the globaldb client's lists, so the merge must never append in
// place: the full slice expression pins capacity to force copy-on-append.
func mergeEntries(a, b globaldb.Entry) globaldb.Entry {
	merged := a
	merged.Stages = a.Stages[:len(a.Stages):len(a.Stages)]
	for _, s := range b.Stages {
		if !slices.ContainsFunc(merged.Stages, func(m globaldb.WireStage) bool { return m.Type == s.Type }) {
			merged.Stages = append(merged.Stages, s)
		}
	}
	merged.Votes += b.Votes
	if b.Reporters > merged.Reporters {
		merged.Reporters = b.Reporters
	}
	return merged
}

// mergedStages unions locally known stages with globally reported ones. The
// local stages belong to the local_DB's record, so the union pins their
// capacity to copy on append, as mergeEntries does.
func (c *Client) mergedStages(url string, stages []localdb.Stage) []localdb.Stage {
	e, ok := c.globalLookup(url)
	if !ok {
		return stages
	}
	out := stages[:len(stages):len(stages)]
	for _, ws := range globaldb.FromWire(e.Stages) {
		if !slices.ContainsFunc(out, func(s localdb.Stage) bool { return s.Type == ws.Type }) {
			out = append(out, ws)
		}
	}
	return out
}

// censorEpoch evaluates the stale-verdict oracle (zero when unset).
func (c *Client) censorEpoch() time.Time {
	if c.cfg.CensorEpoch == nil {
		return time.Time{}
	}
	return c.cfg.CensorEpoch()
}

// recordOutcome writes a detection outcome into the local_DB. A
// not-measured status is an *aborted* measurement (client shutdown,
// failover-budget expiry — see detect's context rewrite), not a verdict;
// recording it would evict a real one.
func (c *Client) recordOutcome(url string, status localdb.Status, stages []localdb.Stage) {
	if status == localdb.NotMeasured {
		return
	}
	c.db.Put(url, c.currentASN(), status, stages)
}

// measureThenServe measures the direct path and serves its page when it is
// clean; when it is blocked it counts onBlocked (if any) and circumvents,
// confirming phase-1 suspicions against the copy.
func (c *Client) measureThenServe(ctx context.Context, url, onBlocked string) *Result {
	lane := trace.SpanFromContext(ctx).Lane("direct")
	out := c.measure(trace.WithLane(ctx, lane), url)
	lane.Close()
	if out.Status == localdb.NotMeasured {
		// Aborted measurement (shutdown / budget expiry): no verdict, no page.
		return &Result{URL: url, Source: "direct", Status: out.Status, Err: out.Err}
	}
	if !out.Blocked() {
		c.recordOutcome(url, localdb.NotBlocked, nil)
		c.counters.Add("served-direct", 1)
		return &Result{URL: url, Resp: out.Response, Source: "direct", Status: localdb.NotBlocked}
	}
	if onBlocked != "" {
		c.counters.Add(onBlocked, 1)
	}
	return c.confirmAndServe(ctx, url, out)
}

// fetchUnmeasured handles status not-measured: redundant requests on the
// direct path and one or more circumvention paths (§4.3.1).
func (c *Client) fetchUnmeasured(ctx context.Context, url string) *Result {
	sp := trace.SpanFromContext(ctx)
	if c.cfg.Serial {
		return c.measureThenServe(ctx, url, "")
	}

	// The direct lane is opened before the goroutine launches so the span
	// cannot emit before the background measurement lands its events. The
	// measurement context is additionally stop-aware: a client Close must
	// be able to unhang a detector stalled on a blackholed connect whose
	// virtual timeout will never fire again.
	directLane := sp.Lane("direct")
	directCh := make(chan detect.Outcome, 1)
	dctx, dcancel := c.stopCtx(ctx)
	go func() {
		defer dcancel()
		out := c.measure(trace.WithLane(dctx, directLane), url)
		directLane.Close()
		directCh <- out
	}()

	circumCh := make(chan circumOut, 1)
	launchNow := make(chan struct{})
	var copyMu sync.Mutex
	copyLaunched, copySkipped := false, false
	// The redundant copy must be able to outlive this call: when the direct
	// response is served first, the copy keeps running in the background so
	// phase 2 can still catch a phase-1 false negative (§4.3.1). The
	// transport's own timeout bounds it — and client shutdown cancels it.
	cctx, ccancel := c.stopCtx(vtime.Detach(ctx))
	// The copy goroutine opens circumvention lanes after this call may have
	// returned; the hold keeps the span from emitting (and being pool-
	// recycled) until it is done.
	sp.Hold()
	go func() {
		defer sp.Release()
		defer ccancel()
		if d := c.cfg.RedundantDelay; d > 0 {
			// Staggered copy: if the direct path answers within the delay,
			// the redundant request is never sent (§7.1, footnote 10).
			select {
			case <-c.cfg.Clock.After(d):
			case <-launchNow:
			case <-cctx.Done():
				circumCh <- circumOut{err: cctx.Err()}
				return
			}
		}
		copyMu.Lock()
		if copySkipped {
			copyMu.Unlock()
			circumCh <- circumOut{err: fmt.Errorf("core: redundant copy skipped")}
			return
		}
		copyLaunched = true
		copyMu.Unlock()
		c.counters.Add("circum-copy-sent", 1)
		resp, source, err := c.circumFetch(cctx, url, nil)
		circumCh <- circumOut{resp: resp, source: source, err: err}
	}()

	select {
	case out := <-directCh:
		if out.Status == localdb.NotMeasured {
			// Aborted measurement (shutdown): nothing to serve or record.
			return &Result{URL: url, Source: "direct", Status: out.Status, Err: out.Err}
		}
		if !out.Blocked() && !out.Suspected {
			// Clean direct response: serve immediately. If the copy has
			// not been sent yet (still inside the stagger delay), it never
			// will be; if it was, it completes in the background and phase
			// 2 still gets to catch a phase-1 false negative via refresh.
			copyMu.Lock()
			if !copyLaunched && c.cfg.RedundantDelay > 0 {
				copySkipped = true
			}
			copyMu.Unlock()
			c.finishPhase2FalseNegative(url, out, circumCh)
			c.recordOutcome(url, localdb.NotBlocked, nil)
			c.counters.Add("served-direct", 1)
			return &Result{URL: url, Resp: out.Response, Source: "direct", Status: localdb.NotBlocked}
		}
		// Direct path blocked or suspected: we need the circumvented copy.
		close(launchNow)
		cr := <-circumCh
		return c.settle(url, out, cr.resp, cr.source, cr.err)
	case cr := <-circumCh:
		if cr.err == nil {
			// The circumvention path won the race: serve it (§7.1 "the
			// faster of the two responses is shown to the user") and let
			// the direct measurement finish in the background.
			c.counters.Add("served-circum", 1)
			done := c.lifeCtx().Done()
			c.bg.Add(1)
			go func() {
				defer c.bg.Done()
				// Honor shutdown: Close must not wait behind a direct
				// measurement that can no longer finish (directCh is
				// buffered, so the measuring goroutine never blocks).
				select {
				case out := <-directCh:
					c.settleBackground(url, out, cr.resp)
				case <-done:
				}
			}()
			return &Result{URL: url, Resp: cr.resp, Source: cr.source, Status: localdb.NotMeasured}
		}
		// Circumvention failed; fall back to whatever the direct path says.
		out := <-directCh
		return c.settle(url, out, nil, "", cr.err)
	}
}

// confirmAndServe circumvents for a URL whose direct measurement concluded
// blocking, applying phase 2 to suspected block pages.
func (c *Client) confirmAndServe(ctx context.Context, url string, out detect.Outcome) *Result {
	resp, source, err := c.circumFetch(ctx, url, out.Stages)
	return c.settle(url, out, resp, source, err)
}

// settle reconciles the direct outcome with the circumvented copy, updates
// the DB, and chooses what to serve.
func (c *Client) settle(url string, out detect.Outcome, circ *httpx.Response, source string, circErr error) *Result {
	if circErr != nil {
		circ = nil
	}
	status, stages := c.reconcile(url, out, circ)
	if status == localdb.NotBlocked && out.Response != nil {
		c.counters.Add("served-direct", 1)
		return &Result{URL: url, Resp: out.Response, Source: "direct", Status: status}
	}
	if circ == nil {
		// Blocked and no circumvented copy: surface the block page itself
		// (the least-bad option) or the failure.
		if out.Response != nil {
			c.counters.Add("served-blockpage", 1)
			return &Result{URL: url, Resp: out.Response, Source: "direct", Status: status, Stages: stages}
		}
		err := circErr
		if err == nil {
			err = out.Err
		}
		if err == nil {
			err = fmt.Errorf("core: %s blocked and no circumvention available", url)
		}
		return &Result{URL: url, Source: source, Status: status, Stages: stages, Err: err}
	}
	c.counters.Add("served-circum", 1)
	return &Result{URL: url, Resp: circ, Source: source, Status: status, Stages: stages}
}

// phase2 applies the §4.3.1 size comparison to a suspected block page once
// the circumvented copy is in hand: it either confirms the suspicion or
// overturns it (a phase-1 false positive — the direct page was real).
func (c *Client) phase2(out detect.Outcome, circ *httpx.Response) (localdb.Status, []localdb.Stage) {
	status, stages := out.Status, out.Stages
	if out.Suspected && circ != nil {
		if blockpage.Phase2(respLen(out.Response), len(circ.Body)) {
			c.counters.Add("phase2-confirm", 1)
		} else {
			c.counters.Add("phase2-overturn", 1)
			stages = dropBlockPageStage(stages)
			if len(stages) == 0 {
				status = localdb.NotBlocked
			}
		}
	}
	return status, stages
}

// reconcile applies phase 2 and records the final verdict.
func (c *Client) reconcile(url string, out detect.Outcome, circ *httpx.Response) (localdb.Status, []localdb.Stage) {
	status, stages := c.phase2(out, circ)
	c.recordOutcome(url, status, stages)
	return status, stages
}

// settleBackground finishes measurement bookkeeping after the user was
// already served the circumvented copy, including the phase-1
// false-negative correction (page refresh, §4.3.1).
func (c *Client) settleBackground(url string, out detect.Outcome, circ *httpx.Response) localdb.Status {
	status, stages := c.phase2(out, circ)
	if !out.Suspected && !out.Blocked() && out.Response != nil && circ != nil {
		// Phase-1 called it clean; the circumvented copy disagrees on size
		// badly enough to mean manipulation → issue a refresh.
		if blockpage.Phase2(respLen(out.Response), len(circ.Body)) {
			c.counters.Add("refresh", 1)
			status = localdb.Blocked
			stages = []localdb.Stage{{Type: localdb.BlockContent, Detail: "size-mismatch"}}
		}
	}
	c.recordOutcome(url, status, stages)
	return status
}

// circumOut is the result of one circumvention attempt.
type circumOut struct {
	resp   *httpx.Response
	source string
	err    error
}

// finishPhase2FalseNegative arms the background page-refresh check for a
// direct response already served to the user.
func (c *Client) finishPhase2FalseNegative(url string, out detect.Outcome, circumCh <-chan circumOut) {
	done := c.lifeCtx().Done()
	c.bg.Add(1)
	go func() {
		defer c.bg.Done()
		// Honor shutdown: the copy sender never blocks (circumCh is
		// buffered), so abandoning the receive leaks nothing.
		select {
		case cr := <-circumCh:
			if cr.err != nil || cr.resp == nil {
				return
			}
			c.settleBackground(url, out, cr.resp)
		case <-done:
		}
	}()
}

func respLen(r *httpx.Response) int {
	if r == nil {
		return 0
	}
	return len(r.Body)
}

// dropBlockPageStage removes the phase-1 block-page stage, keeping any
// independently detected stages (e.g. a DNS redirect).
func dropBlockPageStage(stages []localdb.Stage) []localdb.Stage {
	var out []localdb.Stage
	for _, s := range stages {
		if (s.Type == localdb.BlockHTTP || s.Type == localdb.BlockSNI) &&
			(s.Detail == "blockpage" || s.Detail == "blockpage-redirect") {
			continue
		}
		out = append(out, s)
	}
	return out
}

// fetchBlocked serves a URL known (locally or globally) to be blocked:
// circumvent with the selected approach; for globally-reported URLs on
// relay approaches, re-measure the direct path with probability p
// (§4.3.1 "low overhead vs resilience to false reports"). Local-fix URLs
// use the direct path anyway, which measures it by default (Table 6 note).
func (c *Client) fetchBlocked(ctx context.Context, url string, stages []localdb.Stage, fromGlobal bool) *Result {
	first := c.choose(trace.SpanFromContext(ctx), url, stages)
	if fromGlobal && c.roll() < c.cfg.p() {
		// Validate the global report against the direct path. The
		// measurement runs in the background but draws on the client's
		// shared connection budget — slots held through long detection
		// timeouts are what makes p cost PLT under load (Table 6).
		c.counters.Add("direct-remeasure", 1)
		c.bg.Add(1)
		go func() {
			defer c.bg.Done()
			// Stop-aware: Close cancels the measurement even when the
			// virtual clock (and thus the timeout below) never advances
			// again.
			mctx, cancel := c.cfg.Clock.WithTimeout(c.lifeCtx(), time.Minute)
			defer cancel()
			out := c.measure(mctx, url)
			if out.Status == localdb.NotMeasured {
				return // aborted mid-measure: not a verdict
			}
			if !out.Blocked() {
				c.counters.Add("false-report-corrected", 1)
				c.recordOutcome(url, localdb.NotBlocked, nil)
			} else {
				c.recordOutcome(url, out.Status, out.Stages)
			}
		}()
	}
	resp, source, err := c.circumFetchVia(ctx, first, url, stages)
	if err != nil {
		return &Result{URL: url, Source: source, Status: localdb.Blocked, Stages: stages, Err: err}
	}
	c.counters.Add("served-circum", 1)
	return &Result{URL: url, Resp: resp, Source: source, Status: localdb.Blocked, Stages: stages}
}

// roll draws a uniform [0,1) sample.
func (c *Client) roll() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.randLocked().Float64()
}

// drawLocked draws a uniform index below n. Caller holds c.mu.
func (c *Client) drawLocked(n int) int { return c.randLocked().Intn(n) }

// randLocked is the client's random source, seeded at its first draw.
// Caller holds c.mu.
func (c *Client) randLocked() *rand.Rand {
	if c.rng == nil {
		c.rng = seedrand.New(c.seed + 1)
	}
	return c.rng
}
