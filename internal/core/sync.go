package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"csaw/internal/globaldb"
	"csaw/internal/httpx"
)

// Start registers with the global DB (solving the CAPTCHA), performs an
// initial download of the blocked list for the client's AS(es) (the
// initialization step of §3), and launches the background sync and
// multihoming-probe loops. It is a no-op for clients without a global DB.
func (c *Client) Start(ctx context.Context) error {
	if c.gdb != nil && c.gdb.UUID() == "" {
		if err := c.gdb.Register(ctx, c.captcha); err != nil {
			return fmt.Errorf("core: registration: %w", err)
		}
	}
	if err := c.SyncNow(ctx); err != nil {
		return err
	}
	c.startLoops()
	return nil
}

// startLoops launches the periodic sync and ASN probe goroutines. A
// negative SyncInterval means the owner syncs explicitly (SyncNow) and no
// loop goroutine or ticker is created at all — the fleet driver runs 100k
// clients this way, so "one parked ticker per client" is not a rounding
// error there.
func (c *Client) startLoops() {
	if c.gdb != nil && c.cfg.SyncInterval >= 0 {
		interval := c.cfg.SyncInterval
		if interval == 0 {
			interval = DefaultSyncInterval
		}
		done := c.lifeCtx().Done()
		c.loops.Add(1)
		go func() {
			defer c.loops.Done()
			tk := c.cfg.Clock.NewTicker(interval)
			defer tk.Stop()
			for {
				select {
				case <-tk.C:
					c.syncWithRetry(interval, done)
				case <-done:
					return
				}
			}
		}()
	}
	if c.cfg.ASNProbeAddr != "" {
		done := c.lifeCtx().Done()
		c.loops.Add(1)
		go func() {
			defer c.loops.Done()
			tk := c.cfg.Clock.NewTicker(DefaultASNProbeInterval)
			defer tk.Stop()
			for {
				select {
				case <-tk.C:
					ctx, cancel := c.cfg.Clock.WithTimeout(context.Background(), DefaultASNProbeInterval)
					if err := c.ProbeASN(ctx); err != nil {
						// A failed probe postpones multihoming detection; it
						// must show up in the counters, not vanish.
						c.counters.Add("asn-probe-failures", 1)
					}
					cancel()
				case <-done:
					return
				}
			}
		}()
	}
}

// syncWithRetry drives one background round: a failed round is retried with
// exponential backoff and jitter (in virtual time, so virtual-time tests
// stay deterministic) until it succeeds, the retry budget is spent, the
// circuit breaker opens, or the client stops (done closes).
func (c *Client) syncWithRetry(timeout time.Duration, done <-chan struct{}) {
	pol := c.cfg.Sync
	for attempt := 0; ; attempt++ {
		ctx, cancel := c.cfg.Clock.WithTimeout(context.Background(), timeout)
		err := c.SyncNow(ctx)
		cancel()
		if err == nil || errors.Is(err, ErrSyncDegraded) || attempt >= pol.retries() {
			return
		}
		c.counters.Add("sync-retries", 1)
		select {
		case <-c.cfg.Clock.After(pol.Backoff(attempt, c.roll())):
		case <-done:
			return
		}
	}
}

// SyncNow runs one synchronization round: post pending blocked records
// (over the report path — Tor in a full deployment) and refresh the local
// copy of the global blocked list for every AS the client uses. Failures
// are partial, not total: an acknowledged report batch stays acknowledged
// (never re-posted), and a failed per-AS fetch keeps that AS's stale list
// instead of discarding what other ASes returned. While the circuit
// breaker is open SyncNow returns ErrSyncDegraded without touching the
// network.
func (c *Client) SyncNow(ctx context.Context) error {
	g := c.gdb
	if g == nil {
		return nil
	}
	if !c.syncAdmit() {
		c.counters.Add("sync-skipped", 1)
		return ErrSyncDegraded
	}
	err := c.syncRound(ctx)
	c.syncFinish(err)
	return err
}

// syncAdmit decides whether a round may run: always while the breaker is
// closed, and one half-open probe once the open-state cooldown has passed.
func (c *Client) syncAdmit() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.syncDegraded {
		return true
	}
	return c.cfg.Clock.Now().UnixNano() >= c.syncOpenUntil
}

// syncFinish folds a round's outcome into the failure counters and the
// circuit breaker.
func (c *Client) syncFinish(err error) {
	pol := c.cfg.Sync
	c.mu.Lock()
	defer c.mu.Unlock()
	if err == nil {
		c.syncFails = 0
		c.lastSyncErr = nil
		c.counters.Add("sync-ok", 1)
		if c.syncDegraded {
			// Half-open probe succeeded: close the circuit, leave
			// local-only mode.
			c.syncDegraded = false
			c.counters.Add("sync-circuit-close", 1)
		}
		return
	}
	c.syncFails++
	c.lastSyncErr = err
	c.counters.Add("sync-failures", 1)
	if after := pol.breakerAfter(); after > 0 && int(c.syncFails) >= after {
		if !c.syncDegraded {
			c.syncDegraded = true
			c.counters.Add("sync-circuit-open", 1)
		}
		c.syncOpenUntil = c.cfg.Clock.Now().Add(pol.breakerReset()).UnixNano()
	}
}

// syncRound does the actual report + fetch work of one round.
func (c *Client) syncRound(ctx context.Context) error {
	g := c.gdb
	var errs []error

	// Report phase. The pending queue is bounded: a round takes on at most
	// SyncMaxPending records (overflow stays safely in the local_DB and is
	// counted), posted oldest-first in SyncMaxBatch batches. A record is
	// marked posted only after the server acknowledged its batch, so a
	// failed batch is retried later rather than lost, and an acknowledged
	// one is never re-posted.
	pending := c.db.PendingGlobal()
	sort.SliceStable(pending, func(i, j int) bool {
		return pending[i].Measured.Before(pending[j].Measured)
	})
	if over := len(pending) - SyncMaxPending; over > 0 {
		pending = pending[:SyncMaxPending]
		c.counters.Add("sync-report-deferred", over)
	}
	for len(pending) > 0 {
		batch := pending[:min(len(pending), SyncMaxBatch)]
		if _, err := g.Report(ctx, batch); err != nil {
			errs = append(errs, fmt.Errorf("report (%d pending): %w", len(pending), err))
			break
		}
		for _, r := range batch {
			c.db.MarkPosted(r.URL)
		}
		c.counters.Add("reports-posted", len(batch))
		pending = pending[len(batch):]
	}

	// Fetch phase, independently per AS. The global-DB client owns the lists
	// (Lookup reads them): a refresh that fails, or a 304, leaves that AS's
	// list as it was, so one provider's failure costs neither the others'
	// fresh lists nor its own stale one (§5 resilience).
	failed := 0
	for i := range c.host.NumASes() {
		asn := c.host.ASNumber(i)
		if _, err := g.FetchBlocked(ctx, asn); err != nil {
			failed++
			errs = append(errs, fmt.Errorf("fetch AS%d: %w", asn, err))
			c.counters.Add("sync-fetch-failures", 1)
		}
	}
	if failed > 0 && failed < c.host.NumASes() {
		c.counters.Add("sync-partial", 1)
	}
	return errors.Join(errs...)
}

// GlobalCacheLen reports how many globally-reported blocked URLs the client
// currently trusts, across its ASes.
func (c *Client) GlobalCacheLen() int {
	g := c.gdb
	if g == nil {
		return 0
	}
	urls := make(map[string]struct{})
	for i := range c.host.NumASes() {
		for _, e := range g.Blocked(c.host.ASNumber(i)) {
			if (globaldb.TrustFilter{}).Trusted(e) {
				urls[e.URL] = struct{}{}
			}
		}
	}
	return len(urls)
}

// Degraded reports whether the sync circuit breaker has dropped the client
// into local-only mode (stale global cache, no DB traffic).
func (c *Client) Degraded() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.syncDegraded
}

// LastSyncError returns the most recent round's failure, or nil once a
// round succeeds. It is nil exactly when the breaker counts no consecutive
// failures; the round counts themselves are the "sync-*" counters.
func (c *Client) LastSyncError() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastSyncErr
}

// ProbeASN asks the ASN-echo service which AS this connection egressed
// through and folds the answer into multihoming detection (§4.4: "if over
// short timescales, more than one ASN is returned, we mark the network to
// be multi-homed").
func (c *Client) ProbeASN(ctx context.Context) error {
	if c.cfg.ASNProbeAddr == "" {
		return fmt.Errorf("core: no ASN probe service configured")
	}
	hc := &httpx.Client{Dial: c.host.Dial, Clock: c.cfg.Clock, Timeout: 10 * time.Second}
	host := c.cfg.ASNProbeHost
	if host == "" {
		host = "asn.echo"
	}
	resp, err := hc.Get(ctx, c.cfg.ASNProbeAddr, host, "/asn")
	if err != nil {
		return err
	}
	asn, err := strconv.Atoi(strings.TrimSpace(string(resp.Body)))
	if err != nil || asn == 0 {
		return fmt.Errorf("core: bad ASN echo %q", resp.Body)
	}
	c.mu.Lock()
	if c.seenASNs == nil {
		c.seenASNs = make(map[int]bool)
	}
	c.seenASNs[asn] = true
	if len(c.seenASNs) > 1 {
		c.multihomed = true
	}
	c.mu.Unlock()
	return nil
}

// currentASN is the AS number recorded with measurements: the single
// provider's, or the primary one for multihomed hosts (per-measurement
// egress attribution is not observable to a real client either).
func (c *Client) currentASN() int {
	return c.host.ASNumber(0)
}
