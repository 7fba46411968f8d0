package core

import (
	"context"
	"fmt"
	"math"

	"csaw/internal/httpx"
	"csaw/internal/localdb"
	"csaw/internal/metrics"
	"csaw/internal/trace"
)

// selectApproach picks the circumvention approach expected to yield the
// smallest PLT (§4.3.2): local fixes over relays, then the best moving
// average among relays, with a random choice every n-th access to keep
// exploring. Unknown stages (nil) mean "we don't know the mechanism yet",
// which only relays are guaranteed to beat.
func (c *Client) selectApproach(sp *trace.Span, url string, stages []localdb.Stage) *Approach {
	var locals, relays []*Approach
	for _, a := range c.cfg.Approaches {
		if c.cfg.Pref == PreferAnonymity && !a.Anonymous {
			continue
		}
		switch {
		case a.Kind == KindLocalFix && stages != nil && a.Handles(url, stages):
			locals = append(locals, a)
		case a.Kind == KindRelay:
			relays = append(relays, a)
		}
	}
	// Quarantine: benched approaches are invisible to selection unless the
	// bench emptied every tier (see quarFilterTiers).
	locals, relays = c.quarFilterTiers(sp, locals, relays)
	if len(locals) > 0 {
		a := c.bestByEWMA(url, locals)
		c.traceChoice(sp, url, a, "local-fix", locals)
		return a
	}
	if len(relays) == 0 {
		return nil
	}
	// Every n-th access to this URL explores a random approach (§4.3.2).
	explore := false
	n := c.cfg.ExploreEvery
	if n <= 0 {
		n = DefaultExploreEvery
	}
	c.mu.Lock()
	if c.access == nil {
		c.access = make(map[string]int)
	}
	c.access[url]++
	if c.access[url]%n == 0 {
		explore = true
	}
	c.mu.Unlock()
	if explore && len(relays) > 1 {
		c.counters.Add("explore", 1)
		a := relays[c.pick(len(relays))]
		c.traceChoice(sp, url, a, "explore", relays)
		return a
	}
	a := c.bestByEWMA(url, relays)
	c.traceChoice(sp, url, a, "best-ewma", relays)
	return a
}

// traceChoice records the selection decision on the span: every candidate
// with its current moving average (the EWMA inputs, numeric only in the
// timing profile), then the chosen approach with the reason.
func (c *Client) traceChoice(sp *trace.Span, url string, chosen *Approach, reason string, candidates []*Approach) {
	if sp == nil || chosen == nil {
		return
	}
	for _, a := range candidates {
		sp.EventNum("select", "candidate", a.Name, c.ewmaValue(a, url))
	}
	sp.Event("select", "chosen", chosen.Name+" "+reason)
}

// pick draws a uniform index.
func (c *Client) pick(n int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.randLocked().Intn(n)
}

// bestByEWMA returns the candidate with the lowest moving-average PLT for
// this URL. Untried approaches score zero (optimistic), so each gets tried
// before the averages take over; ties among them break randomly — a strict
// "<" would always elect the first untried candidate in config order and
// the others would never get their §4.3.2 exploration turn.
func (c *Client) bestByEWMA(url string, candidates []*Approach) *Approach {
	var best *Approach
	bestVal := math.Inf(1)
	ties := 0
	for _, a := range candidates {
		v := c.ewmaValue(a, url) // zero, the optimistic default, for the untried
		switch {
		case best == nil || v < bestVal:
			best, bestVal, ties = a, v, 1
		case v == bestVal:
			// Reservoir-sample among equals so each tied candidate is
			// equally likely to be picked.
			ties++
			if c.pick(ties) == 0 {
				best = a
			}
		}
	}
	return best
}

// ewmaKey names one moving average: an approach's for one URL, or, with an
// empty url, a local fix's for every URL. §4.3.2 keeps the average per
// (approach, URL); local fixes behave uniformly across URLs, so theirs
// collapse to per-approach.
type ewmaKey struct{ approach, url string }

func newEWMAKey(a *Approach, url string) ewmaKey {
	key := ewmaKey{approach: a.Name}
	if a.Kind == KindRelay {
		key.url = url
	}
	return key
}

// ewmaAlpha is the moving averages' smoothing factor.
const ewmaAlpha = 0.3

// ewmaValue returns an approach's moving average for url, zero before its
// first observation.
func (c *Client) ewmaValue(a *Approach, url string) float64 {
	key := newEWMAKey(a, url)
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ewma[key]
}

// circumFetch selects an approach and fetches through it.
func (c *Client) circumFetch(ctx context.Context, url string, stages []localdb.Stage) (*httpx.Response, string, error) {
	app := c.selectApproach(trace.SpanFromContext(ctx), url, stages)
	return c.circumFetchVia(ctx, app, url, stages)
}

// circumFetchVia fetches via a specific approach; if that fails, it fails
// over down the remaining candidates — penalizing each failure in the
// moving averages (and striking the quarantine record) so future selection
// avoids broken approaches. The whole ladder walk shares one virtual-time
// deadline budget (Config.FailoverBudget): a censor that *drops* instead of
// resetting cannot pin a fetch for attempts × transport timeout.
func (c *Client) circumFetchVia(ctx context.Context, app *Approach, url string, stages []localdb.Stage) (*httpx.Response, string, error) {
	if app == nil {
		return nil, "", fmt.Errorf("core: no circumvention approach available for %s (pref=%d)", url, c.cfg.Pref)
	}
	host, path := localdb.SplitURL(url)
	sp := trace.SpanFromContext(ctx)
	parent := ctx
	if b := c.failoverBudget(); b > 0 {
		var cancel context.CancelFunc
		ctx, cancel = c.cfg.Clock.WithTimeout(ctx, b)
		defer cancel()
	}
	var firstErr error
	for attempt, a := range c.candidateOrder(url, stages, app) {
		if attempt > 0 {
			c.counters.Add("failover", 1)
		}
		lane := sp.Lane(a.Name)
		lane.Event("circum", "attempt", a.Name)
		start := c.cfg.Clock.Now()
		resp, err := c.roundTrip(trace.WithLane(ctx, lane), a, httpx.NewRequest("GET", host, path))
		if err == nil && resp.StatusCode >= 400 {
			// The approach reached *a* server but not the content (e.g. an
			// IP-addressed request to shared hosting): a failed
			// circumvention, not a success.
			err = fmt.Errorf("core: %s returned %d for %s", a.Name, resp.StatusCode, url)
		}
		if err == nil {
			seconds := c.cfg.Clock.Since(start).Seconds()
			lane.Event("circum", "ok", a.Name)
			lane.Close()
			sp.EventNum("select", "observe", a.Name, seconds)
			c.ewmaObserve(a, url, seconds)
			c.quarRestore(sp, a)
			return resp, a.Name, nil
		}
		if lane != nil {
			lane.Event("circum", "fail", err.Error())
		}
		lane.Close()
		if ctx.Err() == nil {
			// Only a failure the approach had time to earn counts against
			// it; a budget expiry (or caller cancellation) mid-attempt
			// blames the deadline, not the approach — neither the moving
			// average nor the quarantine record remembers it, so a
			// budget-cut rung stays effectively untried.
			sp.EventNum("select", "observe", a.Name, failurePenaltySeconds)
			c.ewmaObserve(a, url, failurePenaltySeconds)
			c.quarStrike(sp, a)
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("core: circumvention via %s failed: %w", a.Name, err)
		}
		if ctx.Err() != nil {
			if parent.Err() == nil {
				c.counters.Add("failover-budget-exhausted", 1)
				sp.Event("circum", "budget-exhausted", a.Name)
			}
			break
		}
	}
	return nil, app.Name, firstErr
}

// failurePenaltySeconds is the EWMA penalty a failed circumvention attempt
// observes — far above any plausible PLT, so a failing approach sinks in
// the §4.3.2 ordering until successes pull it back.
const failurePenaltySeconds = 120

// candidateOrder is the failover sequence: the selected approach, then the
// other applicable local fixes, then relays, each tier in EWMA order —
// benched approaches excluded (the selected one is exempt: selection
// already vetted or overrode it).
func (c *Client) candidateOrder(url string, stages []localdb.Stage, first *Approach) []*Approach {
	out := []*Approach{first}
	seen := map[*Approach]bool{first: true}
	appendBest := func(cands []*Approach) {
		for len(cands) > 0 {
			best := c.bestByEWMA(url, cands)
			out = append(out, best)
			var rest []*Approach
			for _, a := range cands {
				if a != best {
					rest = append(rest, a)
				}
			}
			cands = rest
		}
	}
	var locals, relays []*Approach
	for _, a := range c.cfg.Approaches {
		if seen[a] {
			continue
		}
		if c.cfg.Pref == PreferAnonymity && !a.Anonymous {
			continue
		}
		if !c.quarAllowed(a) {
			continue
		}
		switch {
		case a.Kind == KindLocalFix && stages != nil && a.Handles(url, stages):
			locals = append(locals, a)
		case a.Kind == KindRelay:
			relays = append(relays, a)
		}
	}
	appendBest(locals)
	appendBest(relays)
	const maxAttempts = 4
	if len(out) > maxAttempts {
		out = out[:maxAttempts]
	}
	return out
}

// ewmaObserve folds an observed PLT into an approach's moving average for
// url. The averages are plain values under c.mu: an entry is its average,
// and a URL's first observation is its first value.
func (c *Client) ewmaObserve(app *Approach, url string, seconds float64) {
	key := newEWMAKey(app, url)
	c.mu.Lock()
	defer c.mu.Unlock()
	if avg, ok := c.ewma[key]; ok {
		seconds = metrics.Smooth(ewmaAlpha, avg, seconds)
	} else if c.ewma == nil {
		c.ewma = make(map[ewmaKey]float64)
	}
	c.ewma[key] = seconds
}

// ewmaResetLocked forgets an approach's moving averages (per-approach for
// local fixes, per-URL for relays). Caller holds c.mu. Used when a bench
// expires into probation: the pre-bench average was poisoned by the very
// failures that benched the approach, and an approach scored by a poisoned
// average would never be re-probed — resetting it to untried (optimistic
// zero) is what makes the probation probe actually run.
func (c *Client) ewmaResetLocked(app *Approach) {
	for k := range c.ewma {
		if k.approach == app.Name {
			delete(c.ewma, k)
		}
	}
}
