package core

import (
	"context"
	"fmt"

	"csaw/internal/httpx"
	"csaw/internal/localdb"
	"csaw/internal/trace"
)

// choose asks the planner (plan.go) which approach url takes, under c.mu,
// and records the choice on the span (the quarantine override, every
// candidate with its moving average, the chosen approach with its rule) and
// in the counts. It returns the approach's index, -1 when none can carry
// the URL.
func (c *Client) choose(sp *trace.Span, url string, stages []localdb.Stage) int {
	apps := c.cfg.Approaches
	locals, relays := tiers(c.cfg, url, stages)
	c.mu.Lock()
	p, paroled := c.sel.choose(c.cfg, url, locals, relays, c.cfg.Clock.Now(), c.drawLocked)
	if p.override {
		sp.Event("quarantine", "override", "all-benched")
	}
	if sp != nil && p.app >= 0 {
		for i := range p.tier.each {
			sp.EventNum("select", "candidate", apps[i].Name, c.sel.ewma(c.cfg, i, url))
		}
		sp.Event("select", "chosen", apps[p.app].Name+" "+string(p.why))
	}
	c.mu.Unlock()
	c.countParoles(paroled)
	if p.override {
		c.counters.Add("quarantine-override", 1)
	}
	if p.why == WhyExplore {
		c.counters.Add("explore", 1)
	}
	return p.app
}

func (c *Client) countParoles(n int) {
	if n > 0 {
		c.counters.Add("quarantine-parole", n)
	}
}

// circumFetch selects an approach and fetches through it.
func (c *Client) circumFetch(ctx context.Context, url string, stages []localdb.Stage) (*httpx.Response, string, error) {
	return c.circumFetchVia(ctx, c.choose(trace.SpanFromContext(ctx), url, stages), url, stages)
}

// circumFetchVia fetches via the chosen approach; if that fails, it fails
// over down the planner's order, folding each attempt's outcome into the
// selection table so future choices avoid broken approaches. The whole walk
// shares one virtual-time deadline budget (Config.FailoverBudget): a censor
// that *drops* instead of resetting cannot pin a fetch for attempts ×
// transport timeout.
func (c *Client) circumFetchVia(ctx context.Context, first int, url string, stages []localdb.Stage) (*httpx.Response, string, error) {
	if first < 0 {
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
	var walk [maxAttempts]int
	locals, relays := tiers(c.cfg, url, stages)
	c.mu.Lock()
	order, paroled := c.sel.order(walk[:0], c.cfg, url, locals, relays, first, c.cfg.Clock.Now(), c.drawLocked)
	c.mu.Unlock()
	c.countParoles(paroled)
	var firstErr error
	for attempt, i := range order {
		a := c.cfg.Approaches[i]
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
			c.fold(sp, i, url, served, seconds)
			return resp, a.Name, nil
		}
		if lane != nil {
			lane.Event("circum", "fail", err.Error())
		}
		lane.Close()
		// Only a failure the approach had time to earn counts against it:
		// a budget expiry (or caller cancellation) mid-attempt blames the
		// deadline, not the approach.
		out := failed
		if ctx.Err() != nil {
			out = cut
		}
		c.fold(sp, i, url, out, 0)
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
	return nil, c.cfg.Approaches[first].Name, firstErr
}

// fold folds an attempt's outcome into the selection table under c.mu and
// records it: the seconds observed on the span, and a bench or a restore in
// the counts and on the span.
func (c *Client) fold(sp *trace.Span, i int, url string, out outcome, seconds float64) {
	c.mu.Lock()
	seconds, benched, restored := c.sel.fold(c.cfg, i, url, out, seconds, c.cfg.Clock.Now())
	c.mu.Unlock()
	if out == cut {
		return // the planner recorded nothing
	}
	name := c.cfg.Approaches[i].Name
	sp.EventNum("select", "observe", name, seconds)
	switch {
	case benched:
		c.counters.Add("quarantine-bench", 1)
		sp.Event("quarantine", "bench", name)
	case restored:
		c.counters.Add("quarantine-restore", 1)
		sp.Event("quarantine", "restore", name)
	}
}
