package vtime

import (
	"context"
	"sync"
	"time"
)

// Scheduler is the discrete-event engine behind an event-driven Clock (see
// NewEventDriven). Virtual time is an explicit offset from the epoch that
// only moves when somebody sleeps or advances; timers are events in a
// min-heap keyed by (fire offset, registration order) and fire while the
// offset crosses them. Nothing ever waits on the wall clock, so a fleet run
// executes as fast as its non-sleep work and a parked 1000h ticker costs one
// heap slot instead of a real timer.
//
// The queue is a binary min-heap rather than a timer wheel: fleet timelines
// schedule events at arbitrary offsets spanning hours (joins, sessions,
// deadline slack in the hundreds of thousands of hours), so there is no
// natural wheel granularity, and the heap's O(log n) is dwarfed by the work
// each event triggers. Cancelled timers are removed eagerly (not lazily
// tombstoned) because the dominant churn is context timeouts that are armed
// far in the future and almost always cancelled: tombstones would
// accumulate for the whole run.
//
// Timer semantics are conditional: an event fires when virtual time is
// advanced across its offset, never spontaneously. Code that arms a timer
// and then blocks without anything else advancing the clock would wait
// forever — event-driven mode is for workloads (like internal/fleet) whose
// forward progress comes from sleeps, with timers acting as bounds that a
// waiter reaches only through Clock.Park, which advances to its context's
// armed deadline. Tests advance time explicitly.
type Scheduler struct {
	mu   sync.Mutex
	now  time.Duration // virtual offset since the clock epoch
	seq  uint64
	heap []*schedEvent
}

// schedEvent is one pending timer. fn runs with the scheduler unlocked and
// must not block: the primitives built on top only close channels, perform
// buffered non-blocking sends, or hand off to a fresh goroutine.
type schedEvent struct {
	at  time.Duration
	seq uint64
	fn  func(at time.Duration)
	idx int // heap index; -1 once popped or removed
}

// Offset returns the current virtual offset since the epoch.
func (s *Scheduler) Offset() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Pending returns the number of armed timer events.
func (s *Scheduler) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.heap)
}

// schedule arms fn to fire when virtual time crosses now+delay (delay
// floors at zero) and returns the event for stop.
func (s *Scheduler) schedule(delay time.Duration, fn func(at time.Duration)) *schedEvent {
	if delay < 0 {
		delay = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.scheduleAtLocked(s.now+delay, fn)
}

// scheduleAt arms fn at an absolute virtual offset (which may be in the
// past: it then fires on the next advance).
func (s *Scheduler) scheduleAt(at time.Duration, fn func(at time.Duration)) *schedEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.scheduleAtLocked(at, fn)
}

func (s *Scheduler) scheduleAtLocked(at time.Duration, fn func(at time.Duration)) *schedEvent {
	ev := &schedEvent{at: at, seq: s.seq, fn: fn}
	s.seq++
	ev.idx = len(s.heap)
	s.heap = append(s.heap, ev)
	s.up(ev.idx)
	return ev
}

// stop disarms ev, reporting whether it prevented the event from firing.
func (s *Scheduler) stop(ev *schedEvent) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ev.idx < 0 {
		return false
	}
	s.removeLocked(ev.idx)
	return true
}

// advanceBy moves virtual time forward by d, firing every event whose
// offset is crossed, in (offset, arm order) order. Handlers run with the
// scheduler unlocked; a handler may re-arm events (tickers do). Concurrent
// advances compose: time only ratchets forward and each event fires once.
func (s *Scheduler) advanceBy(d time.Duration) {
	if d <= 0 {
		return
	}
	s.mu.Lock()
	s.advanceToLocked(s.now + d)
	s.mu.Unlock()
}

// advanceTo moves virtual time forward to the absolute offset target.
func (s *Scheduler) advanceTo(target time.Duration) {
	s.mu.Lock()
	s.advanceToLocked(target)
	s.mu.Unlock()
}

func (s *Scheduler) advanceToLocked(target time.Duration) {
	for len(s.heap) > 0 && s.heap[0].at <= target {
		ev := s.heap[0]
		s.removeLocked(0)
		if ev.at > s.now {
			s.now = ev.at
		}
		s.mu.Unlock()
		ev.fn(ev.at)
		s.mu.Lock()
	}
	if target > s.now {
		s.now = target
	}
}

// jumpNext advances to the earliest pending event (firing it and anything
// re-armed at the same offset), reporting whether there was one.
func (s *Scheduler) jumpNext() bool {
	s.mu.Lock()
	if len(s.heap) == 0 {
		s.mu.Unlock()
		return false
	}
	s.advanceToLocked(s.heap[0].at)
	s.mu.Unlock()
	return true
}

// --- min-heap by (at, seq), with index tracking for eager removal ---

func (s *Scheduler) less(i, j int) bool {
	a, b := s.heap[i], s.heap[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (s *Scheduler) swap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.heap[i].idx = i
	s.heap[j].idx = j
}

func (s *Scheduler) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s.swap(i, parent)
		i = parent
	}
}

func (s *Scheduler) down(i int) {
	n := len(s.heap)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		child := left
		if right := left + 1; right < n && s.less(right, left) {
			child = right
		}
		if !s.less(child, i) {
			return
		}
		s.swap(i, child)
		i = child
	}
}

func (s *Scheduler) removeLocked(i int) {
	ev := s.heap[i]
	last := len(s.heap) - 1
	if i != last {
		s.swap(i, last)
	}
	s.heap[last] = nil
	s.heap = s.heap[:last]
	ev.idx = -1
	if i < last {
		s.down(i)
		s.up(i)
	}
}

// --- event-driven context with a virtual deadline ---

// eventCtx implements context.Context for Clock.WithTimeout in event-driven
// mode. Its deadline is a *virtual* instant: Err returns
// context.DeadlineExceeded once virtual time crosses it, so timeout
// classification (errors.Is(err, context.DeadlineExceeded)) behaves exactly
// as with a real context. Parent cancellation propagates via
// context.AfterFunc, and Err also reads the parent's, so a parent deadline
// crossed by an advance is visible as soon as the advance returns.
type eventCtx struct {
	context.Context // parent, for Value

	clock *Clock
	at    time.Duration // offset of this context's own deadline event
	dl    time.Time     // reported deadline: at, or the parent's if earlier
	done  chan struct{}

	mu      sync.Mutex
	err     error
	ev      *schedEvent
	unwatch func() bool // stops the parent-cancellation watch
}

// armedKey looks up, through Value, the innermost eventCtx a clock armed.
type armedKey struct{ clock *Clock }

func (c *eventCtx) Deadline() (time.Time, bool) { return c.dl, true }

func (c *eventCtx) Done() <-chan struct{} { return c.done }

func (c *eventCtx) Err() error {
	if perr := c.Context.Err(); perr != nil {
		c.cancel(perr) // a no-op if this context already ended
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

func (c *eventCtx) Value(key any) any {
	if key == (armedKey{c.clock}) {
		return c
	}
	return c.Context.Value(key)
}

// armedDeadline returns the offset of the nearest deadline this clock's
// WithTimeout armed on ctx or any of its ancestors.
func (c *Clock) armedDeadline(ctx context.Context) (at time.Duration, ok bool) {
	for {
		ec, found := ctx.Value(armedKey{c}).(*eventCtx)
		if !found {
			return at, ok
		}
		if !ok || ec.at < at {
			at = ec.at
		}
		ok = true
		ctx = ec.Context
	}
}

// cancel settles the context with err (first cause wins): the error is
// published before done closes, then the deadline event and parent watch
// are released so neither outlives the op that armed them.
func (c *eventCtx) cancel(err error) {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	c.err = err
	ev, unwatch := c.ev, c.unwatch
	c.mu.Unlock()
	close(c.done)
	if ev != nil {
		c.clock.sched.stop(ev)
	}
	if unwatch != nil {
		unwatch()
	}
}
