package vtime

import (
	"context"
	"testing"
	"time"
)

func TestRealVirtualRoundTrip(t *testing.T) {
	c := New(100)
	if got := c.Real(1 * time.Second); got != 10*time.Millisecond {
		t.Fatalf("Real(1s) at scale 100 = %v, want 10ms", got)
	}
	if got := c.Virtual(10 * time.Millisecond); got != 1*time.Second {
		t.Fatalf("Virtual(10ms) at scale 100 = %v, want 1s", got)
	}
}

func TestNegativeDurations(t *testing.T) {
	c := New(50)
	if c.Real(-time.Second) != 0 {
		t.Error("Real of negative duration should be 0")
	}
	if c.Virtual(-time.Second) != 0 {
		t.Error("Virtual of negative duration should be 0")
	}
	c.Sleep(-time.Second) // must not block
}

func TestNonPositiveScalePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestNowAdvancesAtScale(t *testing.T) {
	c := New(1000)
	start := c.Now()
	time.Sleep(5 * time.Millisecond)
	elapsed := c.Since(start)
	if elapsed < 4*time.Second {
		t.Fatalf("virtual elapsed %v, want >= 4s (scale 1000 over 5ms real)", elapsed)
	}
	if elapsed > 10*time.Minute {
		t.Fatalf("virtual elapsed %v is implausibly large", elapsed)
	}
}

func TestEpoch(t *testing.T) {
	epoch := time.Date(2017, 11, 25, 13, 0, 0, 0, time.UTC)
	c := NewAt(epoch, 1000)
	if now := c.Now(); now.Before(epoch) {
		t.Fatalf("Now() %v before epoch %v", now, epoch)
	}
}

func TestSleepScales(t *testing.T) {
	c := New(1000)
	real0 := time.Now()
	c.Sleep(2 * time.Second) // 2ms real
	if realElapsed := time.Since(real0); realElapsed > 500*time.Millisecond {
		t.Fatalf("Sleep(2s virtual) took %v real, want ~2ms", realElapsed)
	}
}

func TestSleepCtxCancel(t *testing.T) {
	c := New(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.SleepCtx(ctx, time.Hour); err != context.Canceled {
		t.Fatalf("SleepCtx on cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestSleepCtxCompletes(t *testing.T) {
	c := New(1000)
	if err := c.SleepCtx(context.Background(), time.Second); err != nil {
		t.Fatalf("SleepCtx = %v, want nil", err)
	}
}

func TestAfter(t *testing.T) {
	c := New(1000)
	select {
	case <-c.After(time.Second):
	case <-time.After(2 * time.Second):
		t.Fatal("After(1s virtual) did not fire within 2s real")
	}
}

func TestAfterFuncStop(t *testing.T) {
	c := New(1)
	fired := make(chan struct{})
	stop := c.AfterFunc(time.Hour, func() { close(fired) })
	if !stop() {
		t.Fatal("stop() = false for a timer that had not fired")
	}
	select {
	case <-fired:
		t.Fatal("AfterFunc fired despite stop")
	case <-time.After(10 * time.Millisecond):
	}
}

func TestWithTimeout(t *testing.T) {
	c := New(1000)
	ctx, cancel := c.WithTimeout(context.Background(), time.Second)
	defer cancel()
	select {
	case <-ctx.Done():
	case <-time.After(time.Second):
		t.Fatal("virtual 1s timeout did not expire within 1s real at scale 1000")
	}
}

func TestTicker(t *testing.T) {
	c := New(1000)
	tk := c.NewTicker(time.Second)
	defer tk.Stop()
	for i := 0; i < 3; i++ {
		select {
		case <-tk.C:
		case <-time.After(time.Second):
			t.Fatalf("tick %d not delivered", i)
		}
	}
	tk.Stop()
	tk.Stop() // double stop must be safe
}

func TestWallClock(t *testing.T) {
	c := Wall()
	if c.Scale() != 1 {
		t.Fatalf("Wall scale = %v, want 1", c.Scale())
	}
	if d := c.Real(time.Second); d != time.Second {
		t.Fatalf("Wall Real(1s) = %v", d)
	}
}

func TestAdvanceJumpsVirtualTime(t *testing.T) {
	c := New(100)
	before := c.Now()
	c.Advance(13 * time.Hour)
	if got := c.Now().Sub(before); got < 13*time.Hour {
		t.Fatalf("advanced %v, want >= 13h", got)
	}
	c.Advance(-time.Hour) // negative is a no-op
	if c.Now().Sub(before) < 13*time.Hour {
		t.Fatal("negative Advance moved time backwards")
	}
}

func TestSleepRealPrecise(t *testing.T) {
	const d = 3 * time.Millisecond
	var worst time.Duration
	for i := 0; i < 5; i++ {
		start := time.Now()
		SleepRealPrecise(d)
		if el := time.Since(start); el-d > worst {
			worst = el - d
		}
	}
	if worst > 1500*time.Microsecond {
		t.Errorf("worst overshoot %v, want sub-CoarseSleep precision", worst)
	}
}
