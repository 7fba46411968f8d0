package vtime

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// TestEventWithTimeoutAllocs bounds what one bounded exchange pays for its
// deadline: the context (with its deadline event inside), its Done
// channel, and the cancel func — for a Background parent and for a parent
// the clock armed alike.
func TestEventWithTimeoutAllocs(t *testing.T) {
	c := NewEventDriven()
	parent, cancelParent := c.WithTimeout(context.Background(), time.Hour)
	defer cancelParent()
	for _, tc := range []struct {
		name   string
		parent context.Context
	}{
		{"background", context.Background()},
		{"event-clock parent", parent},
	} {
		n := testing.AllocsPerRun(100, func() {
			_, cancel := c.WithTimeout(tc.parent, time.Minute)
			cancel()
		})
		if n > 3 {
			t.Errorf("%s: WithTimeout+cancel allocates %v times, want <= 3", tc.name, n)
		}
	}
}

// TestEventWithTimeoutStartsNoGoroutine: neither a Background parent nor
// a parent the clock armed (directly, or under a value context) costs a
// watcher goroutine; the child ends through the parent's list instead, and
// so does a Binding.
func TestEventWithTimeoutStartsNoGoroutine(t *testing.T) {
	c := NewEventDriven()
	const n = 64
	before := runtime.NumGoroutine()
	var cancels []context.CancelFunc
	var e recordEnds
	for range n {
		root, cancel := c.WithTimeout(context.Background(), time.Hour)
		cancels = append(cancels, cancel)
		child, cancel := c.WithTimeout(root, time.Minute)
		cancels = append(cancels, cancel)
		valued := context.WithValue(child, struct{}{}, 1)
		_, cancel = c.WithTimeout(valued, time.Second)
		cancels = append(cancels, cancel)
		if !new(Binding).Bind(valued, &e) {
			t.Fatal("Bind under a value context over an eventCtx reported false")
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d WithTimeouts and %d Binds under Background and event-clock parents started %d goroutines", 3*n, n, after-before)
	}
	for _, cancel := range cancels {
		cancel()
	}
	if len(e.errs) != n {
		t.Fatalf("cancelling everything ended %d of %d bindings", len(e.errs), n)
	}
	if p := c.PendingTimers(); p != 0 {
		t.Fatalf("PendingTimers after cancelling everything = %d, want 0", p)
	}
}

// TestEventParentEndReachesDescendants: a parent's deadline and a parent's
// cancel each end its linked children and grandchildren — through a value
// context too — with the parent's error, and release their deadlines.
func TestEventParentEndReachesDescendants(t *testing.T) {
	for _, tc := range []struct {
		name string
		end  func(c *Clock, cancel context.CancelFunc)
		want error
	}{
		{"deadline", func(c *Clock, _ context.CancelFunc) { c.Advance(time.Second) }, context.DeadlineExceeded},
		{"cancel", func(_ *Clock, cancel context.CancelFunc) { cancel() }, context.Canceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewEventDriven()
			parent, cancel := c.WithTimeout(context.Background(), time.Second)
			defer cancel()
			var descendants []context.Context
			for range 3 {
				child, cancelChild := c.WithTimeout(parent, time.Hour)
				defer cancelChild()
				grandchild, cancelGrand := c.WithTimeout(child, time.Hour)
				defer cancelGrand()
				valued, cancelValued := c.WithTimeout(context.WithValue(child, struct{}{}, 1), time.Hour)
				defer cancelValued()
				descendants = append(descendants, child, grandchild, valued)
			}
			tc.end(c, cancel)
			for i, ctx := range descendants {
				select {
				case <-ctx.Done():
				default:
					t.Fatalf("descendant %d not done after the parent ended", i)
				}
				// Read the settled error itself, not Err's look at the parent.
				if err := ctx.(*eventCtx).err; err != tc.want {
					t.Fatalf("descendant %d ended with %v, want the parent's %v", i, err, tc.want)
				}
			}
			if p := c.PendingTimers(); p != 0 {
				t.Fatalf("PendingTimers = %d after the parent ended, want 0", p)
			}
		})
	}
}

// TestEventCancelledChildUnlinks: a child that ends on its own — cancelled
// or timed out, from the head, middle or tail of the list — leaves its
// parent's list, so a long-lived parent does not collect them.
func TestEventCancelledChildUnlinks(t *testing.T) {
	c := NewEventDriven()
	parentCtx, cancelParent := c.WithTimeout(context.Background(), time.Hour)
	defer cancelParent()
	parent := parentCtx.(*eventCtx)
	listLen := func() int {
		parent.mu.Lock()
		defer parent.mu.Unlock()
		n := 0
		for b := parent.bound; b != nil; b = b.next {
			n++
		}
		return n
	}
	cancels := make([]context.CancelFunc, 5)
	for i := range cancels {
		_, cancels[i] = c.WithTimeout(parent, time.Hour)
	}
	_, cancelTimed := c.WithTimeout(parent, time.Second)
	defer cancelTimed()
	if n := listLen(); n != 6 {
		t.Fatalf("parent lists %d children, want 6", n)
	}
	c.Advance(time.Second) // the timed child ends by its deadline
	for _, i := range []int{2, 4, 0, 3, 1} {
		cancels[i]()
		cancels[i]() // a second cancel is a no-op
	}
	if n := listLen(); n != 0 || parent.bound != nil {
		t.Fatalf("parent still lists %d children after all ended", n)
	}
	if parentCtx.Err() != nil {
		t.Fatalf("children ending ended the parent: %v", parentCtx.Err())
	}
}

// TestEventChildOfEndedParent: a child made under a parent that has
// already ended ends at once with the parent's error and arms nothing.
func TestEventChildOfEndedParent(t *testing.T) {
	c := NewEventDriven()
	timedOut, cancelTimedOut := c.WithTimeout(context.Background(), time.Second)
	defer cancelTimedOut()
	c.Advance(time.Second)
	cancelled, cancelCancelled := c.WithTimeout(context.Background(), time.Hour)
	cancelCancelled()
	for _, tc := range []struct {
		name   string
		parent context.Context
		want   error
	}{
		{"timed out", timedOut, context.DeadlineExceeded},
		{"cancelled", cancelled, context.Canceled},
	} {
		ctx, cancel := c.WithTimeout(tc.parent, time.Hour)
		select {
		case <-ctx.Done():
		default:
			t.Fatalf("%s parent: child not done at once", tc.name)
		}
		if err := ctx.(*eventCtx).err; err != tc.want {
			t.Fatalf("%s parent: child ended with %v, want %v", tc.name, err, tc.want)
		}
		cancel()
		// A parent that ends between WithTimeout's look at it and the
		// link is caught by the link itself.
		if err := tc.parent.(*eventCtx).link(&Binding{end: &eventCtx{}}); err != tc.want {
			t.Fatalf("%s parent: link = %v, want %v", tc.name, err, tc.want)
		}
	}
	if p := c.PendingTimers(); p != 0 {
		t.Fatalf("PendingTimers = %d, want 0", p)
	}
}

// TestEventParentChildCancelStress races parents ending (by cancel and by
// deadline) against children being made, cancelled and timing out under
// them; run it with -race. Every child must end with its own cancel or its
// parent's error, and nothing may stay armed.
func TestEventParentChildCancelStress(t *testing.T) {
	c := NewEventDriven()
	const parents, children = 32, 16
	var wg sync.WaitGroup
	for p := range parents {
		parent, cancelParent := c.WithTimeout(context.Background(), time.Duration(p+1)*time.Millisecond)
		for k := range children {
			wg.Add(1)
			go func() {
				defer wg.Done()
				child, cancel := c.WithTimeout(parent, time.Duration(k+1)*time.Millisecond)
				grandchild, cancelGrand := c.WithTimeout(child, time.Hour)
				if k%2 == 0 {
					cancel()
				} else {
					c.Sleep(time.Millisecond)
				}
				<-grandchild.Done()
				err := grandchild.(*eventCtx).err
				if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("grandchild ended with %v", err)
				}
				cancelGrand()
				cancel()
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if p%2 == 0 {
				cancelParent()
			}
			c.Sleep(time.Millisecond)
			<-parent.Done()
			cancelParent()
		}()
	}
	// Whatever is still armed ends by its deadline.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			if n := c.PendingTimers(); n != 0 {
				t.Fatalf("PendingTimers = %d after every context ended, want 0", n)
			}
			return
		default:
			c.Advance(time.Millisecond)
			runtime.Gosched()
		}
	}
}

// recordEnds is an Ender that records the errors it was ended with.
type recordEnds struct{ errs []error }

func (r *recordEnds) End(err error) { r.errs = append(r.errs, err) }

// TestEventBinding: a Binding ends with the eventCtx that bounds its
// context, on the instant it ends and with its error; Release reports
// whether it came first; a context that has already ended acts at once;
// and a context that ends on its own terms is not bound at all.
func TestEventBinding(t *testing.T) {
	c := NewEventDriven()
	t.Run("deadline", func(t *testing.T) {
		ctx, cancel := c.WithTimeout(context.Background(), time.Second)
		defer cancel()
		var e recordEnds
		var b Binding
		if !b.Bind(context.WithValue(ctx, struct{}{}, 1), &e) {
			t.Fatal("Bind reported false")
		}
		c.Advance(time.Second - time.Nanosecond)
		if len(e.errs) != 0 {
			t.Fatalf("ended %v before the deadline", e.errs)
		}
		c.Advance(time.Nanosecond)
		if len(e.errs) != 1 || e.errs[0] != context.DeadlineExceeded {
			t.Fatalf("at the deadline: ended %v, want once with DeadlineExceeded", e.errs)
		}
		if b.Release() {
			t.Fatal("Release after the deadline reported true")
		}
	})
	t.Run("cancel", func(t *testing.T) {
		ctx, cancel := c.WithTimeout(context.Background(), time.Hour)
		var e recordEnds
		var b Binding
		b.Bind(ctx, &e)
		cancel()
		if len(e.errs) != 1 || e.errs[0] != context.Canceled {
			t.Fatalf("ended %v, want once with Canceled", e.errs)
		}
		if b.Release() {
			t.Fatal("Release after the cancel reported true")
		}
	})
	t.Run("released", func(t *testing.T) {
		ctx, cancel := c.WithTimeout(context.Background(), time.Hour)
		var e recordEnds
		var b Binding
		b.Bind(ctx, &e)
		if !b.Release() {
			t.Fatal("Release before the end reported false")
		}
		if b.Release() {
			t.Fatal("a second Release reported true")
		}
		cancel()
		if len(e.errs) != 0 {
			t.Fatalf("a released binding ended with %v", e.errs)
		}
	})
	t.Run("ended context", func(t *testing.T) {
		ctx, cancel := c.WithTimeout(context.Background(), time.Hour)
		cancel()
		var e recordEnds
		var b Binding
		if !b.Bind(ctx, &e) {
			t.Fatal("Bind on an ended eventCtx reported false")
		}
		if len(e.errs) != 1 || e.errs[0] != context.Canceled {
			t.Fatalf("Bind on an ended context ended %v, want once with Canceled at once", e.errs)
		}
		if b.Release() {
			t.Fatal("Release on an ended context reported true")
		}
	})
	t.Run("other contexts", func(t *testing.T) {
		ctx, cancel := c.WithTimeout(context.Background(), time.Hour)
		defer cancel()
		own, cancelOwn := context.WithCancel(ctx)
		defer cancelOwn()
		for _, other := range []context.Context{context.Background(), own} {
			var b Binding
			if b.Bind(other, &recordEnds{}) {
				t.Fatalf("Bind on %v reported true", other)
			}
		}
	})
	t.Run("no allocation", func(t *testing.T) {
		ctx, cancel := c.WithTimeout(context.Background(), time.Hour)
		defer cancel()
		var e recordEnds
		bs := make([]Binding, 101)
		i := 0
		if n := testing.AllocsPerRun(100, func() {
			bs[i].Bind(ctx, &e)
			bs[i].Release()
			i++
		}); n != 0 {
			t.Fatalf("Bind+Release allocates %v times, want 0", n)
		}
	})
	t.Run("released bindings leave the list", func(t *testing.T) {
		ctxv, cancel := c.WithTimeout(context.Background(), time.Hour)
		defer cancel()
		ctx := ctxv.(*eventCtx)
		var e recordEnds
		for range 10000 {
			var b Binding
			b.Bind(ctx, &e)
			if !b.Release() {
				t.Fatal("Release before the end reported false")
			}
		}
		ctx.mu.Lock()
		left := ctx.bound
		ctx.mu.Unlock()
		if left != nil {
			t.Fatal("10,000 released bindings left the context's list non-empty")
		}
	})
}

// listLen counts what is on p's list.
func listLen(p *eventCtx) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for b := p.bound; b != nil; b = b.next {
		n++
	}
	return n
}

// parentShapes are the parents a fetch's contexts are made under: none
// that can end, an event-clock context, a value context over one, and a
// detached one.
func parentShapes(c *Clock) ([]struct {
	name string
	ctx  context.Context
}, context.CancelFunc) {
	root, cancel := c.WithTimeout(context.Background(), time.Hour)
	return []struct {
		name string
		ctx  context.Context
	}{
		{"background", context.Background()},
		{"event-clock parent", root},
		{"value context over one", context.WithValue(root, struct{}{}, 1)},
		{"detached", Detach(root)},
	}, cancel
}

// TestEventWithCancel: a cancel-only context costs no goroutine and at most
// three allocations under every parent shape, reports its parent's
// deadline, and is no deadline Park would advance to.
func TestEventWithCancel(t *testing.T) {
	c := NewEventDriven()
	shapes, cancelRoot := parentShapes(c)
	defer cancelRoot()
	for _, tc := range shapes {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			var cancels []context.CancelFunc
			for range 64 {
				ctx, cancel := c.WithCancel(tc.ctx)
				_, cancelChild := c.WithTimeout(ctx, time.Minute)
				cancels = append(cancels, cancel, cancelChild)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Fatalf("64 WithCancels with a WithTimeout each started %d goroutines", after-before)
			}
			for _, cancel := range cancels {
				cancel()
			}
			if n := testing.AllocsPerRun(100, func() {
				_, cancel := c.WithCancel(tc.ctx)
				cancel()
			}); n > 3 {
				t.Errorf("WithCancel+cancel allocates %v times, want <= 3", n)
			}

			ctx, cancel := c.WithCancel(tc.ctx)
			defer cancel()
			pdl, pok := tc.ctx.Deadline()
			if dl, ok := ctx.Deadline(); dl != pdl || ok != pok {
				t.Errorf("Deadline = %v, %v; want the parent's %v, %v", dl, ok, pdl, pok)
			}
			pat, pok := c.armedDeadline(tc.ctx)
			if at, ok := c.armedDeadline(ctx); at != pat || ok != pok {
				t.Errorf("armedDeadline = %v, %v; want the parent's %v, %v", at, ok, pat, pok)
			}
		})
	}
	if p := c.PendingTimers(); p != 1 {
		t.Fatalf("PendingTimers = %d, want only the root's deadline", p)
	}
}

// TestEventWithStop: a child of parent that also ends with stop costs no
// goroutine and at most three allocations under every parent shape; the
// parent's end, stop's end and the cancel each end it with their own error
// and leave it on neither list; and a child of a parent or stop that has
// already ended ends at once.
func TestEventWithStop(t *testing.T) {
	t.Run("costs", func(t *testing.T) {
		c := NewEventDriven()
		shapes, cancelRoot := parentShapes(c)
		defer cancelRoot()
		stop, cancelStop := c.WithCancel(context.Background())
		defer cancelStop()
		for _, tc := range shapes {
			before := runtime.NumGoroutine()
			var cancels []context.CancelFunc
			for range 64 {
				ctx, cancel := c.WithStop(tc.ctx, stop)
				_, cancelChild := c.WithTimeout(ctx, time.Minute)
				cancels = append(cancels, cancel, cancelChild)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Fatalf("%s: 64 WithStops with a WithTimeout each started %d goroutines", tc.name, after-before)
			}
			for _, cancel := range cancels {
				cancel()
			}
			if n := testing.AllocsPerRun(100, func() {
				_, cancel := c.WithStop(tc.ctx, stop)
				cancel()
			}); n > 3 {
				t.Errorf("%s: WithStop+cancel allocates %v times, want <= 3", tc.name, n)
			}
		}
		if n := listLen(stop.(*eventCtx)); n != 0 {
			t.Fatalf("stop lists %d children after every one was cancelled", n)
		}
	})

	advance := func(c *Clock, _, _, _ context.CancelFunc) { c.Advance(time.Second) }
	for _, tc := range []struct {
		name                 string
		parentLife, stopLife time.Duration
		end                  func(c *Clock, parent, stop, child context.CancelFunc)
		want                 error
	}{
		{"parent deadline", time.Second, time.Hour, advance, context.DeadlineExceeded},
		{"parent cancel", time.Hour, time.Hour, func(_ *Clock, parent, _, _ context.CancelFunc) { parent() }, context.Canceled},
		{"stop deadline", time.Hour, time.Second, advance, context.DeadlineExceeded},
		{"stop cancel", time.Hour, time.Hour, func(_ *Clock, _, stop, _ context.CancelFunc) { stop() }, context.Canceled},
		{"cancel", time.Hour, time.Hour, func(_ *Clock, _, _, child context.CancelFunc) { child() }, context.Canceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewEventDriven()
			parent, cancelParent := c.WithTimeout(context.Background(), tc.parentLife)
			defer cancelParent()
			stop, cancelStop := c.WithTimeout(context.Background(), tc.stopLife)
			defer cancelStop()
			child, cancel := c.WithStop(context.WithValue(parent, struct{}{}, 1), stop)
			defer cancel()
			grandchild, cancelGrand := c.WithTimeout(child, time.Hour)
			defer cancelGrand()
			var e recordEnds
			new(Binding).Bind(child, &e)
			tc.end(c, cancelParent, cancelStop, cancel)
			for name, ctx := range map[string]context.Context{"child": child, "grandchild": grandchild} {
				select {
				case <-ctx.Done():
				default:
					t.Fatalf("%s not done", name)
				}
				if err := ctx.Err(); err != tc.want {
					t.Fatalf("%s ended with %v, want %v", name, err, tc.want)
				}
			}
			if len(e.errs) != 1 || e.errs[0] != tc.want {
				t.Fatalf("a binding on the child ended %v, want once with %v", e.errs, tc.want)
			}
			live := 0
			for name, p := range map[string]context.Context{"parent": parent, "stop": stop} {
				if n := listLen(p.(*eventCtx)); n != 0 {
					t.Fatalf("%s still lists %d contexts after the child ended", name, n)
				}
				if p.Err() == nil {
					live++
				}
			}
			if p := c.PendingTimers(); p != live {
				t.Fatalf("PendingTimers = %d, want %d: the grandchild's deadline outlived the child", p, live)
			}
		})
	}

	t.Run("already ended", func(t *testing.T) {
		c := NewEventDriven()
		live, cancelLive := c.WithCancel(context.Background())
		defer cancelLive()
		timedOut, cancelTimedOut := c.WithTimeout(context.Background(), time.Second)
		defer cancelTimedOut()
		c.Advance(time.Second)
		cancelled, cancelCancelled := c.WithCancel(context.Background())
		cancelCancelled()
		for _, tc := range []struct {
			name         string
			parent, stop context.Context
			want         error
		}{
			{"timed-out parent", timedOut, live, context.DeadlineExceeded},
			{"cancelled parent", cancelled, live, context.Canceled},
			{"timed-out stop", live, timedOut, context.DeadlineExceeded},
			{"cancelled stop", live, cancelled, context.Canceled},
		} {
			ctx, cancel := c.WithStop(tc.parent, tc.stop)
			select {
			case <-ctx.Done():
			default:
				t.Fatalf("%s: child not done at once", tc.name)
			}
			if err := ctx.(*withStopCtx).err; err != tc.want {
				t.Fatalf("%s: child ended with %v, want %v", tc.name, err, tc.want)
			}
			cancel()
		}
		if n := listLen(live.(*eventCtx)); n != 0 {
			t.Fatalf("the live context lists %d children that ended at once", n)
		}
	})

	t.Run("cancelled children leave both lists", func(t *testing.T) {
		c := NewEventDriven()
		parent, cancelParent := c.WithTimeout(context.Background(), time.Hour)
		defer cancelParent()
		stop, cancelStop := c.WithCancel(context.Background())
		defer cancelStop()
		for range 10000 {
			_, cancel := c.WithStop(parent, stop)
			cancel()
		}
		for name, p := range map[string]context.Context{"parent": parent, "stop": stop} {
			if n := listLen(p.(*eventCtx)); n != 0 {
				t.Fatalf("10,000 cancelled children left %d on the %s's list", n, name)
			}
		}
	})

	t.Run("stdlib stop", func(t *testing.T) {
		c := NewEventDriven()
		stop, cancelStop := context.WithCancel(context.Background())
		ctx, cancel := c.WithStop(context.Background(), stop)
		defer cancel()
		cancelStop()
		<-ctx.Done() // through context.AfterFunc
		if err := ctx.Err(); err != context.Canceled {
			t.Fatalf("ended with %v, want Canceled", err)
		}
	})
}

// TestRealScaledWithCancelAndStop: on a real-scaled clock WithCancel and
// WithStop are the context package's, and behave as it does.
func TestRealScaledWithCancelAndStop(t *testing.T) {
	c := New(1000)
	parent, cancelParent := c.WithTimeout(context.Background(), time.Hour)
	defer cancelParent()
	ctx, cancel := c.WithCancel(parent)
	pdl, _ := parent.Deadline()
	if dl, ok := ctx.Deadline(); !ok || !dl.Equal(pdl) {
		t.Fatalf("WithCancel's Deadline = %v, %v; want the parent's %v", dl, ok, pdl)
	}
	if _, isEvent := ctx.(*eventCtx); isEvent {
		t.Fatal("a real-scaled WithCancel made an event-clock context")
	}
	cancelParent()
	<-ctx.Done()
	if err := ctx.Err(); err != context.Canceled {
		t.Fatalf("after the parent's cancel: %v, want Canceled", err)
	}
	cancel()

	stop, cancelStop := c.WithCancel(context.Background())
	for _, end := range []string{"cancel", "stop"} {
		ctx, cancel := c.WithStop(context.Background(), stop)
		if end == "stop" {
			cancelStop()
		} else {
			cancel()
		}
		<-ctx.Done()
		if err := ctx.Err(); err != context.Canceled {
			t.Fatalf("ended by %s with %v, want Canceled", end, err)
		}
		cancel()
	}
}

// TestEventWithStopStress races parents, stops and children ending at once
// — by cancel and by deadline — against children being made under them;
// run it with -race. Every child must end with one of their errors, and
// no list or deadline may keep anything.
func TestEventWithStopStress(t *testing.T) {
	c := NewEventDriven()
	const pairs, children = 16, 16
	var wg sync.WaitGroup
	var ends []context.Context
	for p := range pairs {
		parent, cancelParent := c.WithTimeout(context.Background(), time.Duration(p+1)*time.Millisecond)
		stop, cancelStop := c.WithCancel(context.Background())
		ends = append(ends, parent, stop)
		for k := range children {
			wg.Add(1)
			go func() {
				defer wg.Done()
				child, cancel := c.WithStop(parent, stop)
				grandchild, cancelGrand := c.WithTimeout(child, time.Hour)
				if k%3 == 0 {
					cancel()
				}
				<-grandchild.Done()
				if err := grandchild.Err(); !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("grandchild ended with %v", err)
				}
				cancelGrand()
				cancel()
			}()
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			if p%2 == 0 {
				cancelParent()
			}
			<-parent.Done()
			cancelParent()
		}()
		go func() {
			defer wg.Done()
			cancelStop()
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			for i, p := range ends {
				if n := listLen(p.(*eventCtx)); n != 0 {
					t.Fatalf("context %d still lists %d children", i, n)
				}
			}
			if n := c.PendingTimers(); n != 0 {
				t.Fatalf("PendingTimers = %d after every context ended, want 0", n)
			}
			return
		default:
			c.Advance(time.Millisecond)
			runtime.Gosched()
		}
	}
}

// TestEventCtxSize: every WithTimeout pays for an eventCtx, which fills one
// 176-byte size class exactly; a field more would cost the next class.
func TestEventCtxSize(t *testing.T) {
	if n := unsafe.Sizeof(eventCtx{}); n > 176 {
		t.Fatalf("eventCtx is %d bytes, want <= 176", n)
	}
}

// TestDetach: a detached context keeps its parent's values and none of its
// end — as context.WithoutCancel — and a lookup through it, from an
// event-clock context under it too, allocates nothing.
func TestDetach(t *testing.T) {
	c := NewEventDriven()
	type key struct{}
	parent, cancelParent := context.WithCancel(context.WithValue(context.Background(), key{}, "v"))
	timed, cancelTimed := c.WithTimeout(parent, time.Second)
	defer cancelTimed()
	d := Detach(timed)
	cancelParent()
	c.Advance(time.Second)
	if d.Err() != nil || d.Done() != nil {
		t.Fatalf("detached context ended with its parent: %v", d.Err())
	}
	if _, ok := d.Deadline(); ok {
		t.Fatal("detached context reports a deadline")
	}
	if d.Value(key{}) != "v" {
		t.Fatal("detached context lost its parent's value")
	}
	child, cancel := context.WithCancel(d)
	defer cancel()
	if child.Err() != nil {
		t.Fatal("a context package child of a detached context ended with its parent")
	}

	under, cancelUnder := c.WithTimeout(Detach(context.WithValue(context.Background(), key{}, "v")), time.Hour)
	defer cancelUnder()
	for name, ctx := range map[string]context.Context{"detached": d, "event-clock child": under} {
		if n := testing.AllocsPerRun(100, func() {
			_ = ctx.Value(key{})
			_ = ctx.Value(eventKey{})
		}); n != 0 {
			t.Errorf("Value through %s allocates %v times, want 0", name, n)
		}
	}
}

// TestCauseIsErr: a context of this package reports its own end through
// context.Cause — nil while it lives, its Err once it has ended, and nil
// always for a detached one — even under a context.WithCancelCause
// ancestor, whose cause the context package would otherwise find first.
func TestCauseIsErr(t *testing.T) {
	c := NewEventDriven()
	parent, cancelParent := context.WithCancelCause(context.Background())
	defer cancelParent(errors.New("parent gone"))
	stop, cancelStop := c.WithCancel(context.Background())
	nop := func() {}
	for _, tc := range []struct {
		name   string
		make   func() (context.Context, context.CancelFunc)
		end    func(cancel context.CancelFunc)
		ending bool
	}{
		{"WithTimeout past its deadline", func() (context.Context, context.CancelFunc) {
			return c.WithTimeout(parent, time.Second)
		}, func(context.CancelFunc) { c.Advance(time.Second) }, true},
		{"WithTimeout cancelled", func() (context.Context, context.CancelFunc) {
			return c.WithTimeout(parent, time.Hour)
		}, func(cancel context.CancelFunc) { cancel() }, true},
		{"WithCancel", func() (context.Context, context.CancelFunc) {
			return c.WithCancel(parent)
		}, func(cancel context.CancelFunc) { cancel() }, true},
		{"WithStop stopped", func() (context.Context, context.CancelFunc) {
			return c.WithStop(parent, stop)
		}, func(context.CancelFunc) { cancelStop() }, true},
		{"Detach", func() (context.Context, context.CancelFunc) {
			return Detach(parent), nop
		}, func(context.CancelFunc) { cancelParent(errors.New("parent gone")) }, false},
	} {
		ctx, cancel := tc.make()
		if cause := context.Cause(ctx); cause != nil || ctx.Err() != nil {
			t.Errorf("%s, live: Cause %v, Err %v; want nil", tc.name, cause, ctx.Err())
		}
		tc.end(cancel)
		if err, cause := ctx.Err(), context.Cause(ctx); cause != err || (err != nil) != tc.ending {
			t.Errorf("%s, ended: Cause %v, Err %v", tc.name, cause, err)
		}
		cancel()
	}
}
