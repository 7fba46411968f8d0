package vtime

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// Event-mode tests. Nothing here may depend on wall time: the discrete-event
// clock only moves when someone advances it, so every assertion is exact.

func TestEventSleepAdvancesExactly(t *testing.T) {
	c := NewEventDriven()
	if !c.EventDriven() {
		t.Fatal("NewEventDriven().EventDriven() = false")
	}
	start := c.Now()
	c.Sleep(90 * time.Minute)
	if got := c.Since(start); got != 90*time.Minute {
		t.Fatalf("Since after Sleep(90m) = %v, want exactly 90m", got)
	}
	c.Sleep(-time.Second) // must not move time
	c.Sleep(0)
	if got := c.Since(start); got != 90*time.Minute {
		t.Fatalf("Since after no-op sleeps = %v, want 90m", got)
	}
}

func TestEventScaleAndRealAreZero(t *testing.T) {
	c := NewEventDriven()
	if s := c.Scale(); s != 0 {
		t.Fatalf("Scale() = %v, want 0 in event mode", s)
	}
	if r := c.Real(time.Hour); r != 0 {
		t.Fatalf("Real(1h) = %v, want 0 in event mode", r)
	}
	if v := c.Virtual(time.Hour); v != 0 {
		t.Fatalf("Virtual(1h) = %v, want 0 in event mode", v)
	}
}

func TestEventAfterFiresOnAdvance(t *testing.T) {
	c := NewEventDriven()
	ch := c.After(10 * time.Minute)
	select {
	case at := <-ch:
		t.Fatalf("After fired at %v before any advance", at)
	default:
	}
	c.Advance(9 * time.Minute)
	select {
	case at := <-ch:
		t.Fatalf("After fired early at %v", at)
	default:
	}
	deadline := c.Now().Add(time.Minute)
	c.Advance(time.Hour)
	select {
	case at := <-ch:
		if !at.Equal(deadline) {
			t.Fatalf("After delivered %v, want the exact deadline %v", at, deadline)
		}
	default:
		t.Fatal("After did not fire after advancing past its deadline")
	}
}

func TestEventAfterFuncStop(t *testing.T) {
	c := NewEventDriven()
	var mu sync.Mutex
	fired := 0
	stop := c.AfterFunc(5*time.Second, func() {
		mu.Lock()
		fired++
		mu.Unlock()
	})
	if !stop() {
		t.Fatal("first stop() = false, want true")
	}
	if stop() {
		t.Fatal("second stop() = true, want false")
	}
	c.Advance(time.Minute)
	mu.Lock()
	defer mu.Unlock()
	if fired != 0 {
		t.Fatalf("stopped AfterFunc fired %d times", fired)
	}
	if n := c.PendingTimers(); n != 0 {
		t.Fatalf("PendingTimers after stop = %d, want 0 (eager removal)", n)
	}
}

func TestEventAfterFuncRuns(t *testing.T) {
	c := NewEventDriven()
	done := make(chan struct{})
	c.AfterFunc(5*time.Second, func() { close(done) })
	c.Advance(5 * time.Second)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("AfterFunc body never ran after advancing to its deadline")
	}
}

func TestEventTickerCoalescesMissedPeriods(t *testing.T) {
	c := NewEventDriven()
	tk := c.NewTicker(time.Minute)
	defer tk.Stop()
	// Jump 10 periods at once: one tick must be pending (cap-1 channel) and
	// the ticker must re-arm in the future, not replay the missed 9.
	c.Advance(10 * time.Minute)
	select {
	case <-tk.C:
	default:
		t.Fatal("no tick after advancing 10 periods")
	}
	select {
	case at := <-tk.C:
		t.Fatalf("second tick %v pending without further advance", at)
	default:
	}
	// The next tick lands on the next minute boundary after now.
	c.Advance(time.Minute)
	select {
	case <-tk.C:
	default:
		t.Fatal("ticker did not re-arm after coalescing")
	}
}

func TestEventTickerStopRemovesEvent(t *testing.T) {
	c := NewEventDriven()
	tk := c.NewTicker(time.Minute)
	tk.Stop()
	if n := c.PendingTimers(); n != 0 {
		t.Fatalf("PendingTimers after Ticker.Stop = %d, want 0", n)
	}
	c.Advance(time.Hour)
	select {
	case at := <-tk.C:
		t.Fatalf("stopped ticker delivered %v", at)
	default:
	}
}

func TestEventWithTimeoutDeadlineExceeded(t *testing.T) {
	c := NewEventDriven()
	ctx, cancel := c.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if dl, ok := ctx.Deadline(); !ok || !dl.Equal(c.Now().Add(30*time.Second)) {
		t.Fatalf("Deadline() = %v, %v; want the virtual deadline", dl, ok)
	}
	if err := ctx.Err(); err != nil {
		t.Fatalf("Err() before expiry = %v", err)
	}
	c.Advance(30 * time.Second)
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("ctx not done after advancing past its virtual deadline")
	}
	// The detector classifies timeouts with errors.Is(err, DeadlineExceeded);
	// the event-mode ctx must satisfy that exactly.
	if err := ctx.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err() = %v, want DeadlineExceeded", err)
	}
}

func TestEventWithTimeoutParentCancel(t *testing.T) {
	c := NewEventDriven()
	parent, cancelParent := context.WithCancel(context.Background())
	ctx, cancel := c.WithTimeout(parent, time.Hour)
	defer cancel()
	cancelParent()
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("ctx not done after parent cancellation")
	}
	if err := ctx.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err() = %v, want Canceled", err)
	}
}

func TestEventWithTimeoutCancelReleasesTimer(t *testing.T) {
	c := NewEventDriven()
	_, cancel := c.WithTimeout(context.Background(), time.Hour)
	cancel()
	if n := c.PendingTimers(); n != 0 {
		t.Fatalf("PendingTimers after cancel = %d, want 0 (heap leak)", n)
	}
}

func TestEventSleepCtxStopsAtVirtualDeadline(t *testing.T) {
	c := NewEventDriven()
	ctx, cancel := c.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := c.Now()
	err := c.SleepCtx(ctx, time.Hour)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SleepCtx past ctx deadline = %v, want DeadlineExceeded", err)
	}
	// The sleep must observe the interruption at the deadline's virtual
	// instant, not after the full hour.
	if got := c.Since(start); got != 10*time.Second {
		t.Fatalf("virtual time advanced %v during interrupted sleep, want 10s", got)
	}
}

func TestEventSleepCtxCompletesUnderDeadline(t *testing.T) {
	c := NewEventDriven()
	ctx, cancel := c.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	start := c.Now()
	if err := c.SleepCtx(ctx, time.Minute); err != nil {
		t.Fatalf("SleepCtx under deadline = %v", err)
	}
	if got := c.Since(start); got != time.Minute {
		t.Fatalf("advanced %v, want 1m", got)
	}
}

func TestEventJumpNext(t *testing.T) {
	c := NewEventDriven()
	fired := make(chan struct{})
	c.AfterFunc(45*time.Minute, func() { close(fired) })
	start := c.Now()
	if !c.JumpNext() {
		t.Fatal("JumpNext() = false with a pending timer")
	}
	if got := c.Since(start); got != 45*time.Minute {
		t.Fatalf("JumpNext advanced %v, want exactly 45m", got)
	}
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("JumpNext did not fire the timer it jumped to")
	}
	if c.JumpNext() {
		t.Fatal("JumpNext() = true with an empty timer heap")
	}
}

func TestEventConcurrentSleepersShareTime(t *testing.T) {
	// Two goroutines sleeping concurrently: each sleep advances the shared
	// clock, so both return once time has covered their interval — the
	// property the fleet's shared-virtual-time slack analysis relies on.
	c := NewEventDriven()
	start := c.Now()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Sleep(10 * time.Minute)
		}()
	}
	wg.Wait()
	got := c.Since(start)
	if got < 10*time.Minute || got > 40*time.Minute {
		t.Fatalf("shared clock advanced %v across 4 sleepers of 10m, want within [10m, 40m]", got)
	}
}

// TestNewTickerSubScalePeriod is the regression test for the scaled-mode
// NewTicker panic: a virtual period below the scale quantum used to convert
// to a real period of 0ns, which time.NewTicker rejects with a panic. The
// fleet hit this at scale 40, where sub-40ns virtual periods round to zero.
func TestNewTickerSubScalePeriod(t *testing.T) {
	c := New(40)
	tk := c.NewTicker(30 * time.Nanosecond) // 30ns/40 < 1ns real
	tk.Stop()
	// The same rounding feeds After/AfterFunc/WithTimeout: none may treat a
	// tiny-but-positive virtual duration as already expired.
	select {
	case <-c.After(30 * time.Nanosecond):
	case <-time.After(5 * time.Second):
		t.Fatal("After(30ns) at scale 40 never fired")
	}
	done := make(chan struct{})
	c.AfterFunc(30*time.Nanosecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("AfterFunc(30ns) at scale 40 never fired")
	}
}

// TestEventNestedDeadline: a context's deadline is the earlier of its own
// and its parent's, as with context.WithTimeout, and a sleep under it stops
// at the parent's.
func TestEventNestedDeadline(t *testing.T) {
	c := NewEventDriven()
	outer, cancelOuter := c.WithTimeout(context.Background(), time.Second)
	defer cancelOuter()
	ctx, cancel := c.WithTimeout(outer, 5*time.Second)
	defer cancel()
	start := c.Now()
	if dl, ok := ctx.Deadline(); !ok || !dl.Equal(start.Add(time.Second)) {
		t.Fatalf("Deadline() = %v, %v; want the parent's %v", dl, ok, start.Add(time.Second))
	}
	if err := c.SleepCtx(ctx, 10*time.Second); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SleepCtx = %v, want DeadlineExceeded", err)
	}
	if got := c.Since(start); got != time.Second {
		t.Fatalf("SleepCtx under nested deadlines advanced %v, want 1s", got)
	}
}

// TestPark: Park returns how ctx ended on both engines; on the event clock
// only a deadline the clock armed moves time, to exactly that deadline.
func TestPark(t *testing.T) {
	engines := []struct {
		name string
		new  func() *Clock
	}{
		{"scaled", func() *Clock { return New(1000) }},
		{"event", NewEventDriven},
	}
	cases := []struct {
		name string
		// ctx bounds the park; it must end on its own.
		ctx     func(c *Clock) (context.Context, context.CancelFunc)
		want    error
		advance time.Duration // event-clock time the park moves
	}{
		{"clock-armed deadline", func(c *Clock) (context.Context, context.CancelFunc) {
			return c.WithTimeout(context.Background(), 3*time.Second)
		}, context.DeadlineExceeded, 3 * time.Second},
		{"no deadline", func(*Clock) (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(10*time.Millisecond, cancel)
			return ctx, cancel
		}, context.Canceled, 0},
		{"foreign deadline", func(*Clock) (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 10*time.Millisecond)
		}, context.DeadlineExceeded, 0},
	}
	for _, e := range engines {
		for _, tc := range cases {
			t.Run(e.name+"/"+tc.name, func(t *testing.T) {
				c := e.new()
				ctx, cancel := tc.ctx(c)
				defer cancel()
				start := c.Now()
				if err := c.Park(ctx); err != tc.want {
					t.Fatalf("Park = %v, want %v", err, tc.want)
				}
				got := c.Since(start)
				switch {
				case c.EventDriven() && got != tc.advance:
					t.Fatalf("Park moved event time %v, want %v", got, tc.advance)
				case !c.EventDriven() && got < tc.advance:
					t.Fatalf("Park returned after %v of scaled time, before the %v deadline", got, tc.advance)
				}
			})
		}
	}
}

// TestEventParkNearestArmedDeadline: Park advances to the nearest armed
// deadline even when a foreign context sits between it and ctx, and a
// nested later deadline does not carry time past it.
func TestEventParkNearestArmedDeadline(t *testing.T) {
	c := NewEventDriven()
	outer, cancelOuter := c.WithTimeout(context.Background(), 2*time.Second)
	defer cancelOuter()
	mid, cancelMid := context.WithCancel(outer)
	defer cancelMid()
	ctx, cancel := c.WithTimeout(mid, time.Minute)
	defer cancel()
	start := c.Now()
	if err := c.Park(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Park = %v, want DeadlineExceeded", err)
	}
	if got := c.Since(start); got != 2*time.Second {
		t.Fatalf("Park advanced %v, want the nearest armed deadline, 2s", got)
	}
}
