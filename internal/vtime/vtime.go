// Package vtime provides a scaled virtual clock.
//
// The simulated internet in this repository models wide-area latencies and
// protocol timeouts that span tens of seconds (a TCP connect timeout behind a
// blackholing censor is 21s in the paper). Running those against the wall
// clock would make the test suite and benchmark harness unusably slow, so
// every substrate takes a *Clock and expresses durations in virtual time.
//
// A Clock runs in one of two modes, chosen at construction:
//
//   - Real-scaled (New, NewAt, Wall): a Clock with scale S executes a
//     virtual duration d as a real sleep of d/S and reports elapsed time
//     re-inflated by S. With scale 1 the clock is the wall clock. Real
//     concurrency and real timers underneath; virtual latencies stay
//     proportional to wall time, which is what race/soak tests and live
//     deployments need.
//
//   - Discrete-event (NewEventDriven): virtual time is an explicit offset
//     that jumps instead of elapsing. Sleep advances the offset directly;
//     After/AfterFunc/NewTicker/WithTimeout register events with a
//     Scheduler and fire only when some sleeper advances time across them.
//     Nothing waits on the wall clock, so a population-scale run executes
//     at pure compute speed. See Scheduler for the timer semantics and
//     their liveness caveat.
//
// Every substrate takes a *Clock and works unchanged in both modes.
//
// Virtual timestamps use an arbitrary fixed epoch so that experiment output
// (e.g. the §7.5 blocking timeline) is reproducible across runs.
package vtime

import (
	"context"
	"runtime"
	"sync"
	"time"
)

// CoarseSleep is the OS timer granularity headroom: time.Sleep and timer
// wakeups overshoot by up to ~1ms on typical hosts, which at high clock
// scales would flatten hundreds of milliseconds of virtual latency. Precise
// waits sleep until CoarseSleep before the target and spin the remainder.
const CoarseSleep = 1500 * time.Microsecond

// SleepRealPrecise sleeps for the real duration d with sub-millisecond
// precision (hybrid timer + spin).
func SleepRealPrecise(d time.Duration) {
	if d <= 0 {
		return
	}
	target := time.Now().Add(d)
	if d > CoarseSleep {
		time.Sleep(d - CoarseSleep)
	}
	SpinUntil(target)
}

// SpinUntil busy-waits (yielding) until the real instant t.
func SpinUntil(t time.Time) {
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// DefaultEpoch is the virtual time at which every Clock starts unless
// NewAt is used. It is chosen to match the paper's deployment window so the
// "C-Saw in the wild" timeline renders with the paper's dates.
var DefaultEpoch = time.Date(2017, time.November, 25, 0, 0, 0, 0, time.UTC)

// Clock converts between virtual and real durations and provides the usual
// timing primitives in virtual time. A Clock is safe for concurrent use.
type Clock struct {
	scale float64
	epoch time.Time
	sched *Scheduler // non-nil = discrete-event mode

	mu   sync.Mutex
	base time.Time // real instant corresponding to epoch (real-scaled mode)
}

// New returns a real-scaled Clock running at the given scale (virtual
// seconds per real second) starting at DefaultEpoch. Scale values below
// 1e-9 panic: a zero or negative scale would stop or reverse time.
func New(scale float64) *Clock { return NewAt(DefaultEpoch, scale) }

// NewAt returns a real-scaled Clock with the given virtual epoch and scale.
func NewAt(epoch time.Time, scale float64) *Clock {
	if scale < 1e-9 {
		panic("vtime: non-positive clock scale")
	}
	return &Clock{scale: scale, epoch: epoch, base: time.Now()}
}

// NewEventDriven returns a discrete-event Clock starting at DefaultEpoch:
// virtual time stands still until a Sleep or Advance moves it, and timers
// fire as the motion crosses them (see Scheduler).
func NewEventDriven() *Clock { return NewEventDrivenAt(DefaultEpoch) }

// NewEventDrivenAt is NewEventDriven with a chosen epoch.
func NewEventDrivenAt(epoch time.Time) *Clock {
	return &Clock{epoch: epoch, sched: &Scheduler{}}
}

// Advance jumps the virtual clock forward by d without sleeping.
//
// In discrete-event mode it is the canonical way to move time from outside
// a sleeper: armed timers whose offsets are crossed fire during the jump
// (it is equivalent to Sleep, which never blocks in this mode anyway).
//
// In real-scaled mode it is meant for quiescent moments between experiment
// phases (no in-flight transfers or armed timers that should fire "during"
// the jump): sleepers armed before the jump still wake after their full
// real delay, i.e. later in virtual time.
func (c *Clock) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	if c.sched != nil {
		c.sched.advanceBy(d)
		return
	}
	c.mu.Lock()
	c.base = c.base.Add(-c.Real(d))
	c.mu.Unlock()
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Time {
	if c.sched != nil {
		return c.epoch.Add(c.sched.Offset())
	}
	c.mu.Lock()
	base := c.base
	c.mu.Unlock()
	return c.epoch.Add(c.Virtual(time.Since(base)))
}

// Since returns the virtual duration elapsed since the virtual instant t.
func (c *Clock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// Real converts a virtual duration to the real duration to execute it.
// A positive virtual duration never converts below 1ns in real-scaled
// mode: rounding to zero would make armed timers (time.NewTicker panics on
// 0) and real sleeps treat "a little time" as "no time". In discrete-event
// mode nothing takes real time, so Real is always 0.
func (c *Clock) Real(d time.Duration) time.Duration {
	if d <= 0 || c.sched != nil {
		return 0
	}
	r := time.Duration(float64(d) / c.scale)
	if r < 1 {
		r = 1
	}
	return r
}

// Virtual converts a real elapsed duration to virtual time. In
// discrete-event mode real elapsed time has no virtual meaning and the
// result is 0.
func (c *Clock) Virtual(d time.Duration) time.Duration {
	if d <= 0 || c.sched != nil {
		return 0
	}
	return time.Duration(float64(d) * c.scale)
}

// Sleep blocks for the virtual duration d, precisely. In discrete-event
// mode it advances virtual time instead of blocking.
func (c *Clock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if c.sched != nil {
		c.sched.advanceBy(d)
		return
	}
	SleepRealPrecise(c.Real(d))
}

// SleepCtx blocks for the virtual duration d or until ctx is done, returning
// ctx.Err() in the latter case. The tail of the wait spins for precision.
//
// In discrete-event mode the sleep advances virtual time; if ctx carries a
// deadline that lands inside the sleep (a virtual deadline from
// WithTimeout), time advances only up to it so the caller observes the
// interruption at the right virtual instant.
func (c *Clock) SleepCtx(ctx context.Context, d time.Duration) error {
	if c.sched != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
		if d <= 0 {
			return nil
		}
		wait := d
		if dl, ok := ctx.Deadline(); ok {
			if remain := dl.Sub(c.Now()); remain < wait {
				wait = max(remain, 0)
			}
		}
		c.sched.advanceBy(wait)
		if err := ctx.Err(); err != nil {
			return err
		}
		if wait < d {
			// The deadline was foreign (not this clock's): finish the sleep.
			c.sched.advanceBy(d - wait)
			return ctx.Err()
		}
		return nil
	}
	if d <= 0 {
		return ctx.Err()
	}
	real := c.Real(d)
	target := time.Now().Add(real)
	if real > CoarseSleep {
		t := time.NewTimer(real - CoarseSleep)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
		t.Stop()
	}
	for time.Now().Before(target) {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		runtime.Gosched()
	}
	return nil
}

// Park blocks until ctx ends and returns ctx.Err(): the wait for an answer
// that never comes, such as a blackholed SYN.
//
// In discrete-event mode nothing else may be left to move time, so if a
// deadline this clock's WithTimeout armed bounds ctx, Park first advances
// virtual time to the nearest such deadline — the summing rule Sleep and
// SleepCtx follow. A ctx with no deadline, or only deadlines the clock did
// not arm, ends on its own: Park waits on Done and moves no time.
func (c *Clock) Park(ctx context.Context) error {
	if c.sched != nil && ctx.Err() == nil {
		if at, ok := c.armedDeadline(ctx); ok {
			c.sched.advanceTo(at)
		}
	}
	<-ctx.Done()
	return ctx.Err()
}

// After returns a channel that delivers the virtual time after virtual
// duration d.
func (c *Clock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	if c.sched != nil {
		c.sched.schedule(d, func(at time.Duration) { ch <- c.epoch.Add(at) })
		return ch
	}
	time.AfterFunc(c.Real(d), func() { ch <- c.Now() })
	return ch
}

// AfterFunc runs f on its own goroutine after virtual duration d and returns
// a stop function. Stop reports whether it prevented f from running.
func (c *Clock) AfterFunc(d time.Duration, f func()) (stop func() bool) {
	if c.sched != nil {
		ev := c.sched.schedule(d, func(time.Duration) { go f() })
		return func() bool { return c.sched.stop(ev) }
	}
	t := time.AfterFunc(c.Real(d), f)
	return t.Stop
}

// WithTimeout returns a context that is cancelled after the virtual duration
// d. In discrete-event mode the context's Deadline is the *virtual* expiry
// instant (or the parent's, if earlier) and Err turns
// context.DeadlineExceeded when virtual time crosses it, so timeout
// classification works identically in both modes.
func (c *Clock) WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if c.sched == nil {
		return context.WithTimeout(ctx, c.Real(d))
	}
	at := c.sched.Offset() + max(d, 0)
	ec := &eventCtx{Context: ctx, clock: c, dl: c.epoch.Add(at), done: make(chan struct{})}
	ec.ev = schedEvent{at: at, ctx: ec, idx: -1}
	if pdl, ok := ctx.Deadline(); ok && pdl.Before(ec.dl) {
		ec.dl = pdl // like context.WithDeadline: the earlier deadline is the one reported
	}
	ec.node.end = ec
	cancel := func() { ec.cancel(context.Canceled) }
	if d <= 0 && ctx.Err() == nil {
		ec.cancel(context.DeadlineExceeded)
		return ec, cancel
	}
	ec.attach(nil, nil)
	return ec, cancel
}

// WithCancel returns a child of parent that ends when parent does, or with
// context.Canceled when the returned cancel is called. In discrete-event
// mode it is an event-clock context with no deadline of its own: Deadline
// reports the parent's, Park does not advance to it, and under an
// event-clock parent it sits on that parent's list, so neither it nor the
// WithTimeouts and Binds beneath it cost a watcher. In real-scaled mode it
// is context.WithCancel.
func (c *Clock) WithCancel(parent context.Context) (context.Context, context.CancelFunc) {
	if c.sched == nil {
		return context.WithCancel(parent)
	}
	ec := new(eventCtx)
	ec.initUntimed(c, parent)
	ec.node.end = ec
	ec.attach(nil, nil)
	return ec, func() { ec.cancel(context.Canceled) }
}

// WithStop returns a child of parent that also ends, with stop's error,
// when stop ends: the context of work that must end with its caller and
// with the owner's shutdown. Deadline reports parent's.
//
// In discrete-event mode, with stop an event-clock context (or a value
// context over one), the child sits on both contexts' lists: one
// allocation beside its Done channel and cancel func, no goroutine, and
// whichever end comes first unlinks it from both in O(1). Otherwise it is
// WithCancel(parent) plus context.AfterFunc(stop, cancel), which ends it
// with context.Canceled.
func (c *Clock) WithStop(parent, stop context.Context) (context.Context, context.CancelFunc) {
	if c.sched != nil {
		if s := endsWith(stop, stop.Done()); s != nil {
			ws := new(withStopCtx)
			ws.initUntimed(c, parent)
			ws.node.end = ws
			ws.stop.end = ws
			ws.attach(&ws.stop, s)
			return ws, func() { ws.cancel(context.Canceled) }
		}
	}
	ctx, cancel := c.WithCancel(parent)
	unwatch := context.AfterFunc(stop, cancel)
	return ctx, func() {
		unwatch()
		cancel()
	}
}

// Detach returns a context that carries ctx's values but never ends and
// has no deadline: context.WithoutCancel with a pointer receiver. The
// context package's withoutCancelCtx has a value receiver, so every Value
// lookup that reaches it from a context type the package does not know —
// an event-clock context's, say — boxes it again: one allocation per
// lookup. Detach's Value allocates nothing. Like WithoutCancel it answers
// the context package's cancel-context lookup with nil (see cancelCtxKey),
// so context.Cause through it is its Err, nil.
func Detach(ctx context.Context) context.Context { return &detached{ctx} }

type detached struct{ parent context.Context }

func (*detached) Deadline() (time.Time, bool) { return time.Time{}, false }

func (*detached) Done() <-chan struct{} { return nil }

func (*detached) Err() error { return nil }

func (d *detached) Value(key any) any {
	if key == cancelCtxKey {
		return nil
	}
	return d.parent.Value(key)
}

// Ticker delivers ticks every virtual duration d.
type Ticker struct {
	C    <-chan time.Time
	t    *time.Ticker // real-scaled mode
	done chan struct{}
	once sync.Once

	sched *Scheduler // discrete-event mode
	evMu  sync.Mutex
	ev    *schedEvent
}

// NewTicker returns a Ticker firing every virtual duration d. d must be
// positive. Like time.Ticker, a slow receiver drops ticks; in
// discrete-event mode a jump across several periods coalesces to the ticks
// the receiver can take.
func (c *Clock) NewTicker(d time.Duration) *Ticker {
	d = max(d, 1)
	ch := make(chan time.Time, 1)
	if c.sched != nil {
		tk := &Ticker{C: ch, done: make(chan struct{}), sched: c.sched}
		var fire func(at time.Duration)
		fire = func(at time.Duration) {
			select {
			case <-tk.done:
				return
			default:
			}
			select {
			case ch <- c.epoch.Add(at):
			default:
			}
			// Re-arm on the period grid, skipping periods a long jump
			// already crossed (a real ticker drops those ticks too).
			next := at + d
			if now := c.sched.Offset(); next <= now {
				next = at + ((now-at)/d+1)*d
			}
			tk.evMu.Lock()
			tk.ev = c.sched.scheduleAt(next, fire)
			stopped := false
			select {
			case <-tk.done:
				stopped = true
			default:
			}
			tk.evMu.Unlock()
			if stopped {
				tk.sched.stop(tk.ev)
			}
		}
		tk.evMu.Lock()
		tk.ev = c.sched.schedule(d, fire)
		tk.evMu.Unlock()
		return tk
	}
	rt := time.NewTicker(c.Real(d))
	tk := &Ticker{C: ch, t: rt, done: make(chan struct{})}
	go func() {
		for {
			select {
			case <-rt.C:
				select {
				case ch <- c.Now():
				default:
				}
			case <-tk.done:
				return
			}
		}
	}()
	return tk
}

// Stop turns off the ticker.
func (t *Ticker) Stop() {
	t.once.Do(func() {
		if t.t != nil {
			t.t.Stop()
		}
		close(t.done)
		if t.sched != nil {
			t.evMu.Lock()
			ev := t.ev
			t.evMu.Unlock()
			if ev != nil {
				t.sched.stop(ev)
			}
		}
	})
}
