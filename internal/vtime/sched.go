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

// schedEvent is one pending timer. Firing it runs fn, or for a deadline
// event (ctx set, fn nil) cancels ctx with context.DeadlineExceeded. Either
// runs with the scheduler unlocked and must not block: the primitives built
// on top only close channels, perform buffered non-blocking sends, or hand
// off to a fresh goroutine.
type schedEvent struct {
	at  time.Duration
	seq uint64
	fn  func(at time.Duration)
	ctx *eventCtx // the context whose deadline this is, embedding the event
	idx int       // heap index; -1 before arming and once popped or removed
}

func (ev *schedEvent) fire() {
	if ev.ctx != nil {
		ev.ctx.cancel(context.DeadlineExceeded)
		return
	}
	ev.fn(ev.at)
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
	ev := &schedEvent{at: at, fn: fn}
	s.pushLocked(ev)
	return ev
}

// arm schedules an event the caller built (its at and action already set),
// so a deadline can live inside the context it ends.
func (s *Scheduler) arm(ev *schedEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pushLocked(ev)
}

func (s *Scheduler) pushLocked(ev *schedEvent) {
	ev.seq = s.seq
	s.seq++
	ev.idx = len(s.heap)
	s.heap = append(s.heap, ev)
	s.up(ev.idx)
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
		ev.fire()
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

// --- event-driven contexts ---

// eventCtx implements context.Context for Clock.WithTimeout, WithCancel and
// WithStop in event-driven mode. A timed one (ev.ctx set) has a *virtual*
// deadline: Err returns context.DeadlineExceeded once virtual time crosses
// it, so timeout classification (errors.Is(err, context.DeadlineExceeded))
// behaves exactly as with a real context. The deadline event is embedded,
// so arming one costs no allocation beyond the context itself. An untimed
// one (WithCancel, WithStop) arms nothing and reports its parent's
// deadline, or none with a zero dl.
//
// How the parent's end reaches it depends on the parent (see watchParent):
// none is watched for a parent that can never end; an event-clock parent
// keeps it on its intrusive list (beside any Bindings) and cancels it
// directly; any other parent is watched with context.AfterFunc. Err also
// reads the parent's, so a parent deadline crossed by an advance is
// visible as soon as the advance returns.
//
// The struct is exactly one 176-byte size class, and every WithTimeout
// pays for it: WithStop's second list node lives in withStopCtx, not here.
type eventCtx struct {
	context.Context // parent, for Value

	clock *Clock
	dl    time.Time // reported deadline: ev.at or the parent's, whichever is earlier; zero for none
	done  chan struct{}
	ev    schedEvent // this context's own deadline, if timed; ev.ctx then points back here
	node  Binding    // this context's place on its parent's list; node.end is the context itself

	mu      sync.Mutex
	err     error
	unwatch func() bool // stops a context.AfterFunc parent watch
	bound   *Binding    // what ends with this context, newest first
}

// withStopCtx is WithStop's context: an untimed eventCtx that is also on
// its stop context's list.
type withStopCtx struct {
	eventCtx
	stop Binding // this context's place on its stop's list
}

// eventKey looks up, through Value, the innermost eventCtx of any clock.
type eventKey struct{}

// initUntimed readies c as an untimed context under parent.
func (c *eventCtx) initUntimed(clock *Clock, parent context.Context) {
	c.Context, c.clock, c.done = parent, clock, make(chan struct{})
	c.ev.idx = -1
	if pdl, ok := parent.Deadline(); ok {
		c.dl = pdl
	}
}

func (c *eventCtx) Deadline() (time.Time, bool) { return c.dl, !c.dl.IsZero() }

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
	switch key {
	case eventKey{}:
		return c
	case cancelCtxKey:
		return nil // see cancelCtxKey
	}
	return c.Context.Value(key)
}

// cancelCtxKey is the key the context package looks up its own cancel
// contexts by, as context.Cause does: it reports the cause such an ancestor
// holds, and only with none found falls back to the context's Err. A
// context that ends on its own terms (an eventCtx) or never (Detach) must
// answer nil, as context.WithoutCancel does, or Cause reports an ancestor's
// cause — nil while that ancestor lives — for a context that has ended.
// The key is unexported, so it is learnt once by asking context.Cause for
// the cause of a context that records what it is asked.
var cancelCtxKey = func() any {
	p := &keyProbe{Context: context.Background()}
	context.Cause(p)
	return p.key
}()

// keyProbe is a context that records the key of the last lookup.
type keyProbe struct {
	context.Context
	key any
}

func (p *keyProbe) Value(key any) any {
	p.key = key
	return nil
}

// End makes a child context an Ender on its parent's list.
func (c *eventCtx) End(err error) { c.cancel(err) }

// armedDeadline returns the offset of the nearest deadline this clock's
// WithTimeout armed on ctx or any of its ancestors.
func (c *Clock) armedDeadline(ctx context.Context) (at time.Duration, ok bool) {
	for {
		ec, found := ctx.Value(eventKey{}).(*eventCtx)
		if !found {
			return at, ok
		}
		if ec.clock == c && ec.ev.ctx != nil && (!ok || ec.ev.at < at) {
			at, ok = ec.ev.at, true
		}
		ctx = ec.Context
	}
}

// endsWith returns the eventCtx that ctx ends exactly when — that eventCtx
// itself, or a value context over it — or nil if there is none. done is
// ctx.Done().
func endsWith(ctx context.Context, done <-chan struct{}) *eventCtx {
	if ec, ok := ctx.Value(eventKey{}).(*eventCtx); ok && ec.done == done {
		return ec
	}
	return nil
}

// attach ties c to its parent's end and, with stop set, through b to
// stop's end, and arms c's deadline if it is timed; if the parent or stop
// has already ended, c ends at once with its error. The registrations are
// made under c.mu: any cancel path (deadline event, parent, stop, the
// returned cancel func) must take the lock first, so it always sees — and
// releases — every one of them.
func (c *eventCtx) attach(b *Binding, stop *eventCtx) {
	if err := c.Context.Err(); err != nil {
		c.cancel(err)
		return
	}
	c.mu.Lock()
	if c.ev.ctx != nil {
		c.clock.sched.arm(&c.ev)
	}
	err := c.watchParent()
	if err == nil && stop != nil {
		err = stop.link(b)
	}
	c.mu.Unlock()
	if err != nil {
		c.cancel(err) // the parent or stop ended after the check above
	}
}

// watchParent ties c to its parent's end and returns the parent's error if
// the parent has already ended. A parent whose Done is nil can never end
// and needs no watch. A parent that ends exactly when an eventCtx does
// takes c onto that eventCtx's list: no goroutine, no allocation. Any other
// parent is watched with context.AfterFunc, whose goroutine the context
// package starts for a parent type it does not know. Caller holds c.mu.
func (c *eventCtx) watchParent() error {
	done := c.Context.Done()
	if done == nil {
		return nil
	}
	if p := endsWith(c.Context, done); p != nil {
		return p.link(&c.node)
	}
	parent := c.Context
	c.unwatch = context.AfterFunc(parent, func() { c.cancel(parent.Err()) })
	return nil
}

// cancel settles the context with err (first cause wins): the error is
// published before done closes, then the deadline event and the parent
// watch or list places are released so none outlives the op that made
// them, and everything bound to the context ends with the same error. No
// two locks are held at once, and the bound Enders run with none held.
func (c *eventCtx) cancel(err error) {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	c.err = err
	unwatch, bound := c.unwatch, c.bound
	c.bound = nil
	c.mu.Unlock()
	close(c.done)
	if c.ev.ctx != nil {
		c.clock.sched.stop(&c.ev)
	}
	if unwatch != nil {
		unwatch()
	}
	c.node.Release()
	if ws, ok := c.node.end.(*withStopCtx); ok {
		ws.stop.Release()
	}
	for b := bound; b != nil; {
		next := b.next
		b.end.End(err)
		b = next
	}
}

// An Ender is ended by the context it is bound to (see Binding). End runs
// once, with the context's error, on the goroutine that ended the context
// and with no lock held; it must not block.
type Ender interface{ End(err error) }

// A Binding ties an Ender to the end of an event-clock context with neither
// a goroutine nor an allocation of its own: it is one node of the
// context's intrusive list, meant to be embedded in the value it ends. A
// Binding is bound once.
type Binding struct {
	owner      *eventCtx // whose list holds it, from Bind until Release
	prev, next *Binding  // list links, guarded by owner.mu
	end        Ender
}

// Bind ties e to ctx when ctx ends exactly when an event-clock context
// does — that context itself (WithTimeout's in discrete-event mode), or a
// value context over it: e.End runs when it ends, or at once if it has
// already ended. Bind reports false, and binds nothing, for any other ctx;
// the caller then watches ctx itself, with context.AfterFunc.
func (b *Binding) Bind(ctx context.Context, e Ender) bool {
	p := endsWith(ctx, ctx.Done())
	if p == nil {
		return false
	}
	b.end = e
	if err := p.link(b); err != nil {
		e.End(err)
	}
	return true
}

// Release unbinds b in O(1) and reports whether it did so before the
// context ended (false, too, for a Binding not bound or already released).
func (b *Binding) Release() bool {
	p := b.owner
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	b.owner = nil
	if p.err != nil {
		// The list belongs to p's cancel, which detached it and walks it
		// unlocked: it is left alone.
		return false
	}
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		p.bound = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	}
	b.prev, b.next = nil, nil
	return true
}

// link puts b, whose end is set, at the head of p's list, or returns p's
// error if p has ended. Either way b's Release then knows p.
func (p *eventCtx) link(b *Binding) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	b.owner = p
	if p.err != nil {
		return p.err
	}
	b.next = p.bound
	if p.bound != nil {
		p.bound.prev = b
	}
	p.bound = b
	return nil
}
