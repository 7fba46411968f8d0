package core

import (
	"errors"
	"testing"
	"time"

	"csaw/internal/metrics"
	"csaw/internal/vtime"
)

// syncClient builds the minimal Client the breaker state machine needs: a
// clock and a policy.
func syncClient(pol SyncPolicy) *Client {
	return &Client{
		cfg:      &Config{Sync: pol, Clock: vtime.New(1)},
		counters: new(metrics.Counters).In(clientScope),
	}
}

// TestSyncBackoffSchedule pins the deterministic (jitter-free) backoff
// ladder: base doubled per attempt, capped at max, defaults filled in.
func TestSyncBackoffSchedule(t *testing.T) {
	for _, tc := range []struct {
		name    string
		pol     SyncPolicy
		attempt int
		want    time.Duration
	}{
		{"default-first", SyncPolicy{}, 0, DefaultSyncBackoffBase},
		{"default-doubles", SyncPolicy{}, 1, 2 * DefaultSyncBackoffBase},
		{"default-doubles-again", SyncPolicy{}, 2, 4 * DefaultSyncBackoffBase},
		{"default-capped", SyncPolicy{}, 10, DefaultSyncBackoffMax},
		{"custom-base", SyncPolicy{BackoffBase: time.Second}, 2, 4 * time.Second},
		{"custom-cap", SyncPolicy{BackoffBase: time.Second, BackoffMax: 3 * time.Second}, 2, 3 * time.Second},
		{"huge-attempt-no-overflow", SyncPolicy{BackoffBase: time.Second, BackoffMax: 8 * time.Second}, 200, 8 * time.Second},
	} {
		if got := tc.pol.Backoff(tc.attempt, 0); got != tc.want {
			t.Errorf("%s: Backoff(%d, 0) = %v, want %v", tc.name, tc.attempt, got, tc.want)
		}
	}
}

// TestSyncBackoffJitterBounds checks the jitter contract: for jitter j in
// [0,1) the delay is extended by exactly j·DefaultSyncJitterFrac of itself, so
// it stays within [d, d·(1+DefaultSyncJitterFrac)).
func TestSyncBackoffJitterBounds(t *testing.T) {
	for _, tc := range []struct {
		name string
		pol  SyncPolicy
	}{
		{"default", SyncPolicy{}},
		{"short-base", SyncPolicy{BackoffBase: 10 * time.Second}},
		{"long-cap", SyncPolicy{BackoffBase: time.Minute, BackoffMax: time.Hour}},
	} {
		for attempt := 0; attempt < 6; attempt++ {
			base := tc.pol.Backoff(attempt, 0)
			hi := time.Duration(float64(base) * (1 + DefaultSyncJitterFrac))
			for _, j := range []float64{0.001, 0.25, 0.5, 0.999} {
				got := tc.pol.Backoff(attempt, j)
				if got < base || got >= hi {
					t.Errorf("%s: Backoff(%d, %v) = %v outside [%v, %v)",
						tc.name, attempt, j, got, base, hi)
				}
				want := base + time.Duration(j*DefaultSyncJitterFrac*float64(base))
				if got != want {
					t.Errorf("%s: Backoff(%d, %v) = %v, want exactly %v",
						tc.name, attempt, j, got, want)
				}
			}
			// Jitter must be monotone in j for a fixed attempt.
			if a, b := tc.pol.Backoff(attempt, 0.1), tc.pol.Backoff(attempt, 0.9); a > b {
				t.Errorf("%s: jitter not monotone at attempt %d: %v > %v", tc.name, attempt, a, b)
			}
		}
	}
}

// TestSyncBreakerTransitions walks the circuit through its full life on
// virtual time: closed → open after BreakerAfter consecutive failures →
// half-open probe after BreakerReset → re-open on probe failure → closed on
// probe success.
func TestSyncBreakerTransitions(t *testing.T) {
	c := syncClient(SyncPolicy{})
	fail := errors.New("db unreachable")

	// Closed: failures below the threshold keep admitting rounds.
	for i := 0; i < DefaultSyncBreakerAfter-1; i++ {
		if !c.syncAdmit() {
			t.Fatalf("breaker open after %d failures (threshold %d)", i, DefaultSyncBreakerAfter)
		}
		c.syncFinish(fail)
	}
	if c.Counter("sync-circuit-open") != 0 {
		t.Fatal("circuit opened below the failure threshold")
	}

	// The threshold failure opens the circuit: no rounds until the reset.
	c.syncFinish(fail)
	if c.Counter("sync-circuit-open") != 1 {
		t.Fatalf("sync-circuit-open = %d, want 1", c.Counter("sync-circuit-open"))
	}
	if !c.Degraded() {
		t.Fatal("client not degraded with the circuit open")
	}
	if c.syncAdmit() {
		t.Fatal("open circuit admitted a round")
	}
	c.cfg.Clock.Advance(DefaultSyncBreakerReset - time.Second)
	if c.syncAdmit() {
		t.Fatal("open circuit admitted a round before the reset cooldown")
	}

	// Half-open: exactly the cooldown elapses, one probe goes through; its
	// failure re-opens (no second open-transition counted) for a fresh
	// cooldown.
	c.cfg.Clock.Advance(time.Second)
	if !c.syncAdmit() {
		t.Fatal("no half-open probe after the reset cooldown")
	}
	c.syncFinish(fail)
	if c.Counter("sync-circuit-open") != 1 {
		t.Fatalf("re-open counted as a new transition: %d", c.Counter("sync-circuit-open"))
	}
	if c.syncAdmit() {
		t.Fatal("failed probe did not restart the cooldown")
	}

	// A successful probe closes the circuit and resets the failure streak:
	// the next failure is streak one, far from re-opening.
	c.cfg.Clock.Advance(DefaultSyncBreakerReset)
	if !c.syncAdmit() {
		t.Fatal("no probe after the second cooldown")
	}
	c.syncFinish(nil)
	if c.Counter("sync-circuit-close") != 1 {
		t.Fatalf("sync-circuit-close = %d, want 1", c.Counter("sync-circuit-close"))
	}
	if c.Degraded() || !c.syncAdmit() {
		t.Fatal("closed circuit still degraded or not admitting")
	}
	c.syncFinish(fail)
	if c.Degraded() {
		t.Fatal("one failure after recovery re-opened the circuit")
	}
}

// TestSyncBreakerDisabled: a negative BreakerAfter never opens the circuit,
// no matter the failure streak.
func TestSyncBreakerDisabled(t *testing.T) {
	c := syncClient(SyncPolicy{BreakerAfter: -1})
	for i := 0; i < 20; i++ {
		c.syncFinish(errors.New("down"))
	}
	if c.Degraded() || !c.syncAdmit() {
		t.Fatal("disabled breaker opened the circuit")
	}
	if c.Counter("sync-circuit-open") != 0 {
		t.Fatal("disabled breaker counted an open transition")
	}
}
