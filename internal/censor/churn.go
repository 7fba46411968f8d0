package censor

import (
	"math/rand"
	"sort"
	"sync"
	"time"

	"csaw/internal/seedrand"
	"csaw/internal/vtime"
)

// Epoch is one step of a censor's policy timeline: at Start (virtual time)
// the censor begins enforcing Policy. Epochs model the adversary of §5 —
// blocking events arrive mid-run, previously-working circumvention channels
// get escalated against — without any goroutine: the active epoch is
// resolved lazily on every Policy() read, so a flip takes effect on the
// first flow that arrives after its Start.
type Epoch struct {
	Start  time.Time
	Policy *Policy
}

// churnState is the adversarial-timeline machinery attached to a Censor by
// EnableChurn: the epoch schedule, the seeded RNG backing intermittent
// enforcement, and the residual-censorship table. It has its own mutex so
// lazy epoch advancement can run before Censor.mu is taken.
type churnState struct {
	mu    sync.Mutex
	clock *vtime.Clock
	rng   *rand.Rand

	epochs []Epoch
	idx    int // index of the active epoch; -1 before the schedule starts

	// residual maps a client source IP to the end of its punishment window:
	// until then, every new flow from that IP is dropped at connect time
	// (the "residual censorship" behaviour measured in the Turkmenistan and
	// Pakistan studies). Entries expire lazily.
	residual map[string]time.Time
}

// EnableChurn arms the censor's adversarial timeline: epoch schedules
// (SetSchedule), probabilistic enforcement (Policy.Intermittent), and
// residual censorship (Policy.ResidualWindow) all need a virtual clock and
// a seeded RNG, which plain static policies do not. Deterministic by
// construction: the RNG is drawn only when a rule matches, so clean traffic
// never perturbs the draw sequence.
func (c *Censor) EnableChurn(clock *vtime.Clock, seed int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.churn = &churnState{
		clock:    clock,
		rng:      seedrand.New(seed),
		idx:      -1,
		residual: make(map[string]time.Time),
	}
}

// SetSchedule installs the epoch timeline (sorted by Start; the slice is
// copied). Epochs whose Start has already passed apply on the next Policy()
// read; only transitions beyond the first epoch count as "epoch-flip"
// events. EnableChurn must have been called first.
func (c *Censor) SetSchedule(epochs []Epoch) {
	c.mu.Lock()
	ch := c.churn
	c.mu.Unlock()
	if ch == nil {
		panic("censor: SetSchedule before EnableChurn")
	}
	ch.mu.Lock()
	ch.epochs = append([]Epoch(nil), epochs...)
	sort.SliceStable(ch.epochs, func(i, j int) bool {
		return ch.epochs[i].Start.Before(ch.epochs[j].Start)
	})
	ch.idx = -1
	ch.mu.Unlock()
}

// advanceEpoch steps the active epoch forward to the last one whose Start
// is not after the current virtual time, swapping the active policy and
// counting one "epoch-flip" per transition past the first. Returns
// immediately when churn is off or the schedule is exhausted.
func (c *Censor) advanceEpoch() {
	c.mu.RLock()
	ch := c.churn
	c.mu.RUnlock()
	if ch == nil {
		return
	}
	ch.mu.Lock()
	if len(ch.epochs) == 0 || ch.idx >= len(ch.epochs)-1 {
		ch.mu.Unlock()
		return
	}
	now := ch.clock.Now()
	next := ch.idx
	for next < len(ch.epochs)-1 && !ch.epochs[next+1].Start.After(now) {
		next++
	}
	if next == ch.idx {
		ch.mu.Unlock()
		return
	}
	flips := next - ch.idx
	if ch.idx < 0 {
		flips-- // entering the first epoch is the initial policy, not a flip
	}
	p := ch.epochs[next].Policy
	ch.idx = next
	ch.mu.Unlock()

	for i := 0; i < flips; i++ {
		c.Counters.Add("epoch-flip", 1)
	}
	c.SetPolicy(p)
}

// EpochIndex returns the index of the active epoch after lazy advancement
// (-1 when churn is off, the schedule is empty, or nothing has started).
func (c *Censor) EpochIndex() int {
	c.advanceEpoch()
	c.mu.RLock()
	ch := c.churn
	c.mu.RUnlock()
	if ch == nil {
		return -1
	}
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.idx
}

// EpochStart returns the Start of the active epoch (zero time before the
// schedule begins or when churn is off). Clients use this as the
// stale-verdict oracle: any measurement taken before EpochStart describes a
// censor that no longer exists.
func (c *Censor) EpochStart() time.Time {
	c.advanceEpoch()
	c.mu.RLock()
	ch := c.churn
	c.mu.RUnlock()
	if ch == nil {
		return time.Time{}
	}
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if ch.idx < 0 {
		return time.Time{}
	}
	return ch.epochs[ch.idx].Start
}

// decide is the censor's one enforcement step, for a rule's action act
// (its zero value when no rule matched): a matched rule fires unless the
// censor blinks (enforce), and firing arms residual punishment of the
// flow's source src. It returns act, or the zero value when nothing fires.
func decide[A comparable](c *Censor, p *Policy, src string, act A) A {
	var none A
	if act == none || !c.enforce(p) {
		return none
	}
	c.triggerResidual(p, src)
	return act
}

// enforce reports whether a matched rule fires this time. With
// Policy.Intermittent == 0 (or churn off) enforcement is deterministic;
// otherwise the seeded RNG is consulted and the rule is skipped — the
// censor "blinks" — with probability Intermittent, counted as
// "intermittent-pass". Called only after a rule has matched, so the draw
// sequence depends only on matching traffic.
func (c *Censor) enforce(p *Policy) bool {
	if p.Intermittent <= 0 {
		return true
	}
	c.mu.RLock()
	ch := c.churn
	c.mu.RUnlock()
	if ch == nil {
		return true
	}
	ch.mu.Lock()
	skip := ch.rng.Float64() < p.Intermittent
	ch.mu.Unlock()
	if skip {
		c.Counters.Add("intermittent-pass", 1)
	}
	return !skip
}

// triggerResidual starts (or extends) the residual-censorship window for a
// client source IP after an enforcement event. No-op unless churn is armed
// and the active policy sets ResidualWindow.
func (c *Censor) triggerResidual(p *Policy, srcIP string) {
	if p.ResidualWindow <= 0 || srcIP == "" {
		return
	}
	c.mu.RLock()
	ch := c.churn
	c.mu.RUnlock()
	if ch == nil {
		return
	}
	ch.mu.Lock()
	until := ch.clock.Now().Add(p.ResidualWindow)
	if until.After(ch.residual[srcIP]) {
		ch.residual[srcIP] = until
	}
	ch.mu.Unlock()
	c.Counters.Add("residual-arm", 1)
}

// residualActive reports whether srcIP is inside a residual punishment
// window, expiring stale entries lazily.
func (c *Censor) residualActive(srcIP string) bool {
	c.mu.RLock()
	ch := c.churn
	c.mu.RUnlock()
	if ch == nil || srcIP == "" {
		return false
	}
	ch.mu.Lock()
	defer ch.mu.Unlock()
	until, ok := ch.residual[srcIP]
	if !ok {
		return false
	}
	if ch.clock.Now().After(until) {
		delete(ch.residual, srcIP)
		return false
	}
	return true
}
