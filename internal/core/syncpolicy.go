package core

import (
	"errors"
	"time"
)

// ErrSyncDegraded is returned by SyncNow while the sync circuit breaker is
// open: the client is in local-only mode, serving from the stale global
// cache and the local_DB without touching the network.
var ErrSyncDegraded = errors.New("core: sync circuit open (local-only mode)")

// Defaults for SyncPolicy. A zero SyncPolicy selects all of them.
const (
	// DefaultSyncRetries is how many times a failed background sync round is
	// retried (with backoff) before waiting for the next tick.
	DefaultSyncRetries = 3
	// DefaultSyncBackoffBase is the first retry delay; each further retry
	// doubles it up to DefaultSyncBackoffMax.
	DefaultSyncBackoffBase = 2 * time.Second
	// DefaultSyncBackoffMax caps the exponential backoff.
	DefaultSyncBackoffMax = time.Minute
	// DefaultSyncJitterFrac is the maximum random extension of a backoff
	// delay, as a fraction of the delay, to de-synchronize client retries.
	DefaultSyncJitterFrac = 0.2
	// DefaultSyncBreakerAfter is how many consecutive failed rounds open
	// the circuit breaker.
	DefaultSyncBreakerAfter = 3
	// DefaultSyncBreakerReset is how long the breaker stays open before a
	// half-open probe round is allowed through.
	DefaultSyncBreakerReset = 10 * time.Minute
)

// Bounds on one sync round's report phase.
const (
	// SyncMaxBatch is the largest report batch posted per Report call.
	SyncMaxBatch = 64
	// SyncMaxPending bounds the report queue a single round takes on.
	// Overflow stays in the local_DB: the newest records are deferred to
	// later rounds.
	SyncMaxPending = 1024
)

// SyncPolicy tunes the fault tolerance of the client↔global_DB sync
// pipeline (§5: the paper's deployment assumed flaky censored links and a
// DB the censor may block outright). The zero value selects the defaults
// above; negative Retries/BreakerAfter disable retries or the breaker.
type SyncPolicy struct {
	// Retries is the extra attempts per failed background round; 0 selects
	// DefaultSyncRetries, negative disables retrying.
	Retries int
	// BackoffBase/BackoffMax shape the exponential retry schedule.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BreakerAfter consecutive failed rounds open the circuit breaker and
	// drop the client into local-only mode; 0 selects the default, negative
	// disables the breaker. BreakerReset is the open-state cooldown before
	// a half-open probe.
	BreakerAfter int
	BreakerReset time.Duration
}

func (p SyncPolicy) retries() int {
	if p.Retries == 0 {
		return DefaultSyncRetries
	}
	if p.Retries < 0 {
		return 0
	}
	return p.Retries
}

func (p SyncPolicy) backoffBase() time.Duration {
	if p.BackoffBase <= 0 {
		return DefaultSyncBackoffBase
	}
	return p.BackoffBase
}

func (p SyncPolicy) backoffMax() time.Duration {
	if p.BackoffMax <= 0 {
		return DefaultSyncBackoffMax
	}
	return p.BackoffMax
}

func (p SyncPolicy) breakerAfter() int {
	if p.BreakerAfter == 0 {
		return DefaultSyncBreakerAfter
	}
	if p.BreakerAfter < 0 {
		return 0 // disabled
	}
	return p.BreakerAfter
}

func (p SyncPolicy) breakerReset() time.Duration {
	if p.BreakerReset <= 0 {
		return DefaultSyncBreakerReset
	}
	return p.BreakerReset
}

// Backoff returns the virtual-time delay before retry number attempt
// (0-based): BackoffBase doubled per attempt, capped at BackoffMax, extended
// by jitter·DefaultSyncJitterFrac of itself (jitter in [0,1)).
func (p SyncPolicy) Backoff(attempt int, jitter float64) time.Duration {
	d := p.backoffBase()
	max := p.backoffMax()
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if jitter > 0 {
		d += time.Duration(jitter * DefaultSyncJitterFrac * float64(d))
	}
	return d
}
