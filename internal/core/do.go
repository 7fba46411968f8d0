package core

import (
	"context"
	"fmt"

	"csaw/internal/httpx"
	"csaw/internal/localdb"
	"csaw/internal/netem"
	"csaw/internal/trace"
)

// Do proxies an arbitrary HTTP request. Non-idempotent methods are never
// duplicated ("to avoid multiple writes, HTTP POST requests are not
// duplicated", §4.3.1 footnote 7): a POST to an unmeasured URL goes out on
// the direct path only, and to a known-blocked URL over the selected
// circumvention approach only — no redundant copy, no racing.
//
// GET requests delegate to FetchURL and enjoy the full Algorithm-1
// treatment.
func (c *Client) Do(ctx context.Context, req *httpx.Request) (*Result, error) {
	if req.Method == "GET" {
		res := c.FetchURL(ctx, localdb.JoinURL(req.Host, req.Target))
		return res, res.Err
	}
	url := localdb.JoinURL(req.Host, req.Target)
	status, stages, _ := c.verdict(trace.SpanFromContext(ctx), url)

	start := c.cfg.Clock.Now()
	if status == localdb.Blocked {
		i := c.choose(trace.SpanFromContext(ctx), url, stages)
		if i < 0 {
			return nil, fmt.Errorf("core: no approach can carry %s %s", req.Method, url)
		}
		app := c.cfg.Approaches[i]
		resp, err := c.sendVia(ctx, app, req)
		if err != nil {
			return nil, err
		}
		c.counters.Add("served-circum", 1)
		return &Result{URL: url, Resp: resp, Source: app.Name, Status: status, Stages: stages, Took: c.cfg.Clock.Since(start)}, nil
	}

	// Unmeasured or clean: one direct attempt, never duplicated. A failure
	// is reported to the caller; the next GET will measure properly.
	resp, err := c.sendDirect(ctx, req)
	if err != nil {
		c.counters.Add("post-direct-failed", 1)
		return nil, fmt.Errorf("core: direct %s %s: %w", req.Method, url, err)
	}
	c.counters.Add("served-direct", 1)
	return &Result{URL: url, Resp: resp, Source: "direct", Status: status, Took: c.cfg.Clock.Since(start)}, nil
}

// sendDirect performs one non-GET exchange on the direct path, resolving
// via LDNS with GDNS fallback.
func (c *Client) sendDirect(ctx context.Context, req *httpx.Request) (*httpx.Response, error) {
	host, _ := localdb.SplitURL(req.Host)
	ip := host
	if !netem.IsIPLiteral(host) {
		addr, err := c.lookupLocalThenGlobal(ctx, host)
		if err != nil {
			return nil, err
		}
		ip = addr
	}
	hc := &httpx.Client{Dial: c.dial, Clock: c.cfg.Clock}
	return hc.Do(ctx, ip+":80", req)
}

// sendVia performs one non-GET exchange through an approach's transport:
// same dialer, resolution, and (pseudo-)TLS/SNI rules as its GET path.
func (c *Client) sendVia(ctx context.Context, app *Approach, req *httpx.Request) (*httpx.Response, error) {
	resp, err := c.roundTrip(ctx, app, req)
	if err != nil {
		return nil, fmt.Errorf("core: %s %s via %s: %w", req.Method, req.Host+req.Target, app.Name, err)
	}
	return resp, nil
}
