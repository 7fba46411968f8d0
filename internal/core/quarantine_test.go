package core

import (
	"testing"
	"time"

	"csaw/internal/metrics"
	"csaw/internal/vtime"
)

// quarClient builds the minimal Client the quarantine state machine needs:
// a policy and a clock.
func quarClient(pol QuarantinePolicy) *Client {
	return &Client{
		cfg:      &Config{Quarantine: pol, Clock: vtime.New(1)},
		counters: new(metrics.Counters).In(clientScope),
	}
}

func TestQuarantineBenchAfterStrikes(t *testing.T) {
	c := quarClient(QuarantinePolicy{})
	a := &Approach{Name: "tor"}

	c.quarStrike(nil, a)
	if !c.quarAllowed(a) {
		t.Fatal("benched after one strike; default is two")
	}
	c.quarStrike(nil, a)
	if c.quarAllowed(a) {
		t.Fatal("not benched after two strikes")
	}
	if c.Counter("quarantine-bench") != 1 {
		t.Fatalf("quarantine-bench = %d, want 1", c.Counter("quarantine-bench"))
	}

	// Bench expires into probation: allowed again without any success.
	c.cfg.Clock.Advance(DefaultBenchBase + time.Second)
	if !c.quarAllowed(a) {
		t.Fatal("not allowed on probation after bench expiry")
	}

	// One probation failure re-benches immediately with a doubled sentence.
	c.quarStrike(nil, a)
	if c.quarAllowed(a) {
		t.Fatal("probation failure did not re-bench")
	}
	c.cfg.Clock.Advance(DefaultBenchBase + time.Second)
	if c.quarAllowed(a) {
		t.Fatal("second bench should last 2×BenchBase, but expired after ~1×")
	}
	c.cfg.Clock.Advance(DefaultBenchBase)
	if !c.quarAllowed(a) {
		t.Fatal("second bench did not expire after 2×BenchBase")
	}

	// A probation success restores full trust: the next failure is strike
	// one again, not an instant re-bench.
	c.quarRestore(nil, a)
	if c.Counter("quarantine-restore") != 1 {
		t.Fatalf("quarantine-restore = %d, want 1", c.Counter("quarantine-restore"))
	}
	c.quarStrike(nil, a)
	if !c.quarAllowed(a) {
		t.Fatal("restored approach benched after a single strike")
	}
}

func TestQuarantineBenchBackoffCapped(t *testing.T) {
	pol := QuarantinePolicy{BenchBase: time.Minute, BenchMax: 5 * time.Minute}
	for benches, want := range map[int]time.Duration{
		1:  time.Minute,
		2:  2 * time.Minute,
		3:  4 * time.Minute,
		4:  5 * time.Minute, // capped
		40: 5 * time.Minute, // shift-overflow guard
	} {
		if got := pol.benchFor(benches); got != want {
			t.Errorf("benchFor(%d) = %v, want %v", benches, got, want)
		}
	}
}

func TestQuarantineDisabled(t *testing.T) {
	c := quarClient(QuarantinePolicy{Strikes: -1})
	a := &Approach{Name: "tor"}
	for i := 0; i < 10; i++ {
		c.quarStrike(nil, a)
	}
	if !c.quarAllowed(a) {
		t.Fatal("disabled quarantine benched an approach")
	}
	if c.Counter("quarantine-bench") != 0 {
		t.Fatal("disabled quarantine counted a bench")
	}
}

func TestQuarantineOverrideWhenAllBenched(t *testing.T) {
	c := quarClient(QuarantinePolicy{Strikes: 1})
	a := &Approach{Name: "a", Kind: KindRelay}
	b := &Approach{Name: "b", Kind: KindRelay}
	c.quarStrike(nil, a)
	c.quarStrike(nil, b)

	locals, relays := c.quarFilterTiers(nil, nil, []*Approach{a, b})
	if len(locals) != 0 || len(relays) != 2 {
		t.Fatalf("override did not return the original tiers: %d locals, %d relays", len(locals), len(relays))
	}
	if c.Counter("quarantine-override") != 1 {
		t.Fatalf("quarantine-override = %d, want 1", c.Counter("quarantine-override"))
	}

	// With one healthy relay the benched one stays filtered out.
	ok := &Approach{Name: "ok", Kind: KindRelay}
	_, relays = c.quarFilterTiers(nil, nil, []*Approach{a, ok})
	if len(relays) != 1 || relays[0] != ok {
		t.Fatalf("filter kept %v, want only the healthy relay", relays)
	}
}
