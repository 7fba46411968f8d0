package core

import (
	"time"

	"csaw/internal/trace"
)

// Quarantine defaults: two consecutive hard failures bench an approach for
// two minutes; each re-bench doubles the sentence up to half an hour.
const (
	DefaultQuarantineStrikes = 2
	DefaultBenchBase         = 2 * time.Minute
	DefaultBenchMax          = 30 * time.Minute
)

// QuarantinePolicy tunes approach quarantine: hard circumvention failures
// bench an approach (it stops being selected), the bench expires into a
// probation probe, and a probation failure re-benches with exponential
// backoff — so a blacklisted approach costs one failed fetch per backoff
// period instead of one per fetch, while still being re-probed often
// enough to notice the censor relenting. The zero value selects the
// documented defaults; Strikes < 0 disables quarantine entirely.
type QuarantinePolicy struct {
	// Strikes is how many consecutive failures bench an approach
	// (default DefaultQuarantineStrikes; negative disables quarantine).
	Strikes int
	// BenchBase is the first bench duration (default DefaultBenchBase);
	// each subsequent bench doubles it, capped at BenchMax
	// (default DefaultBenchMax).
	BenchBase time.Duration
	BenchMax  time.Duration
}

func (p QuarantinePolicy) disabled() bool { return p.Strikes < 0 }

func (p QuarantinePolicy) strikes() int {
	if p.Strikes > 0 {
		return p.Strikes
	}
	return DefaultQuarantineStrikes
}

func (p QuarantinePolicy) benchFor(benches int) time.Duration {
	base := p.BenchBase
	if base <= 0 {
		base = DefaultBenchBase
	}
	max := p.BenchMax
	if max <= 0 {
		max = DefaultBenchMax
	}
	d := base << (benches - 1)
	if benches > 30 || d <= 0 || d > max { // shift overflow guard + cap
		d = max
	}
	return d
}

// quarState is one approach's quarantine record (guarded by Client.mu).
type quarState struct {
	strikes int       // consecutive failures since the last success
	benches int       // completed bench count — the backoff exponent
	until   time.Time // benched until; an expired until means probation
	paroled bool      // bench expiry observed: probation probe armed
}

// quarStrike records a hard circumvention failure. Enough consecutive
// strikes bench the approach; any failure while on probation (benches > 0)
// re-benches immediately with a doubled sentence.
func (c *Client) quarStrike(sp *trace.Span, a *Approach) {
	pol := c.cfg.Quarantine
	if pol.disabled() {
		return
	}
	c.mu.Lock()
	if c.quar == nil {
		c.quar = make(map[string]*quarState)
	}
	s := c.quar[a.Name]
	if s == nil {
		s = &quarState{}
		c.quar[a.Name] = s
	}
	s.strikes++
	bench := s.benches > 0 || s.strikes >= pol.strikes()
	if bench {
		s.benches++
		s.strikes = 0
		s.paroled = false
		s.until = c.cfg.Clock.Now().Add(pol.benchFor(s.benches))
	}
	c.mu.Unlock()
	if bench {
		c.counters.Add("quarantine-bench", 1)
		sp.Event("quarantine", "bench", a.Name)
	}
}

// quarRestore clears an approach's quarantine record after a successful
// fetch: probation served, full trust restored.
func (c *Client) quarRestore(sp *trace.Span, a *Approach) {
	if c.cfg.Quarantine.disabled() {
		return
	}
	c.mu.Lock()
	s := c.quar[a.Name]
	benched := s != nil && s.benches > 0
	if s != nil {
		delete(c.quar, a.Name)
	}
	c.mu.Unlock()
	if benched {
		c.counters.Add("quarantine-restore", 1)
		sp.Event("quarantine", "restore", a.Name)
	}
}

// quarAllowed reports whether an approach may be selected: never benched,
// or its bench has expired (a probation probe). The first call that
// observes an expired bench paroles the approach: its moving averages are
// reset so the probation probe actually runs (§4.3.2 selection scores
// untried approaches optimistically) — the averages were poisoned by the
// failures that benched it, which may describe a censor condition (e.g.
// residual censorship) that has since passed. A probe success records a
// fresh average and restores trust; a probe failure re-benches with
// doubled backoff (quarStrike), so a genuinely dead approach costs one
// probe per exponential backoff period.
func (c *Client) quarAllowed(a *Approach) bool {
	if c.cfg.Quarantine.disabled() {
		return true
	}
	c.mu.Lock()
	s := c.quar[a.Name]
	if s == nil || s.until.IsZero() {
		c.mu.Unlock()
		return true
	}
	if c.cfg.Clock.Now().Before(s.until) {
		c.mu.Unlock()
		return false
	}
	parole := !s.paroled
	if parole {
		s.paroled = true
		c.ewmaResetLocked(a)
	}
	c.mu.Unlock()
	if parole {
		c.counters.Add("quarantine-parole", 1)
	}
	return true
}

// quarFilterTiers drops benched approaches from both selection tiers at
// once, so the override decision considers their union: benched locals must
// not shadow healthy relays, but when *everything* is benched the original
// tiers come back — a client with only benched approaches must still try
// something — and the override is counted.
func (c *Client) quarFilterTiers(sp *trace.Span, locals, relays []*Approach) ([]*Approach, []*Approach) {
	if c.cfg.Quarantine.disabled() {
		return locals, relays
	}
	allowed := func(cands []*Approach) []*Approach {
		out := cands[:0:0]
		for _, a := range cands {
			if c.quarAllowed(a) {
				out = append(out, a)
			}
		}
		return out
	}
	fl, fr := allowed(locals), allowed(relays)
	if len(fl)+len(fr) == 0 && len(locals)+len(relays) > 0 {
		c.counters.Add("quarantine-override", 1)
		sp.Event("quarantine", "override", "all-benched")
		return locals, relays
	}
	return fl, fr
}
