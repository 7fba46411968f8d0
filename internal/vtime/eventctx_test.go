package vtime

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
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
// watcher goroutine; the child ends through the parent's list instead.
func TestEventWithTimeoutStartsNoGoroutine(t *testing.T) {
	c := NewEventDriven()
	const n = 64
	before := runtime.NumGoroutine()
	var cancels []context.CancelFunc
	for range n {
		root, cancel := c.WithTimeout(context.Background(), time.Hour)
		cancels = append(cancels, cancel)
		child, cancel := c.WithTimeout(root, time.Minute)
		cancels = append(cancels, cancel)
		valued := context.WithValue(child, struct{}{}, 1)
		_, cancel = c.WithTimeout(valued, time.Second)
		cancels = append(cancels, cancel)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d WithTimeouts under Background and event-clock parents started %d goroutines", 3*n, after-before)
	}
	for _, cancel := range cancels {
		cancel()
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
// parent's child list, so a long-lived parent does not collect them.
func TestEventCancelledChildUnlinks(t *testing.T) {
	c := NewEventDriven()
	parentCtx, cancelParent := c.WithTimeout(context.Background(), time.Hour)
	defer cancelParent()
	parent := parentCtx.(*eventCtx)
	listLen := func() int {
		parent.mu.Lock()
		defer parent.mu.Unlock()
		n := 0
		for ch := parent.children; ch != nil; ch = ch.next {
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
	if n := listLen(); n != 0 || parent.children != nil {
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
		if err := tc.parent.(*eventCtx).link(&eventCtx{}); err != tc.want {
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
