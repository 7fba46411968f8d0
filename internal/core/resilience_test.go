package core_test

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"csaw/internal/censor"
	"csaw/internal/core"
	"csaw/internal/httpx"
	"csaw/internal/leakcheck"
	"csaw/internal/localdb"
	"csaw/internal/worldgen"
)

// A nanosecond failover budget expires inside the first circumvention
// attempt: the ladder must stop, count the exhaustion, and still serve the
// least-bad thing it has (the block page) rather than walking all four
// candidates.
func TestFailoverBudgetExhaustion(t *testing.T) {
	_, c := newCaseStudyClient(t, func(cfg *core.Config) {
		cfg.FailoverBudget = time.Nanosecond
	}, "ISP-A")
	res := fetchURL(t, c, worldgen.YouTubeHost+"/")
	if res.Err == nil && res.Source != "direct" {
		t.Fatalf("circumvention succeeded under a 1ns budget: source=%s", res.Source)
	}
	if c.Counter("failover-budget-exhausted") == 0 {
		t.Fatal("failover-budget-exhausted not counted")
	}
	// The budget expiry must not have benched the approach it interrupted.
	if c.Counter("quarantine-bench") != 0 {
		t.Fatal("budget expiry struck the quarantine record")
	}
}

// A negative budget disables the ladder deadline entirely.
func TestFailoverBudgetDisabled(t *testing.T) {
	_, c := newCaseStudyClient(t, func(cfg *core.Config) {
		cfg.FailoverBudget = -1
	}, "ISP-A")
	res := fetchURL(t, c, worldgen.YouTubeHost+"/")
	if !res.OK() || res.Source == "direct" {
		t.Fatalf("blocked fetch = %+v (err=%v), want circumvented", res, res.Err)
	}
	if c.Counter("failover-budget-exhausted") != 0 {
		t.Fatal("budget counted while disabled")
	}
}

// A local-DB verdict recorded before the censor's current epoch must be
// re-detected, once; the fresh verdict is then trusted again.
func TestStaleVerdictRedetection(t *testing.T) {
	var mu sync.Mutex
	var epoch time.Time
	w, c := newCaseStudyClient(t, func(cfg *core.Config) {
		cfg.CensorEpoch = func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			return epoch
		}
	}, "ISP-A")

	url := worldgen.NewsHost + "/"
	if res := fetchURL(t, c, url); !res.OK() || res.Source != "direct" {
		t.Fatalf("baseline fetch = %+v (err=%v)", res, res.Err)
	}
	c.WaitIdle()
	if c.Counter("stale-verdict") != 0 {
		t.Fatal("stale-verdict before any epoch")
	}

	// The censor flips an hour later; the NotBlocked record now predates
	// the epoch and must not be trusted.
	w.Clock.Advance(time.Hour)
	mu.Lock()
	epoch = w.Clock.Now()
	mu.Unlock()

	if res := fetchURL(t, c, url); !res.OK() {
		t.Fatalf("re-detect fetch failed: %v", res.Err)
	}
	c.WaitIdle()
	if got := c.Counter("stale-verdict"); got != 1 {
		t.Fatalf("stale-verdict = %d, want 1", got)
	}
	if _, st := c.DB().Lookup(url); st != localdb.NotBlocked {
		t.Fatalf("re-detected status = %v", st)
	}

	// The re-measured record is fresh: no second re-detection.
	if res := fetchURL(t, c, url); !res.OK() {
		t.Fatalf("post-re-detect fetch failed: %v", res.Err)
	}
	if got := c.Counter("stale-verdict"); got != 1 {
		t.Fatalf("stale-verdict = %d after fresh record, want 1", got)
	}
}

// A POST asks the verdict question a GET asks: a blocked record that
// predates the censor's current epoch is not circumvented on — the POST goes
// out once, on the direct path, and the next GET re-detects.
func TestDoPostIgnoresStaleVerdict(t *testing.T) {
	var mu sync.Mutex
	var epoch time.Time
	w, c := newCaseStudyClient(t, func(cfg *core.Config) {
		cfg.CensorEpoch = func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			return epoch
		}
	}, "ISP-A")
	if res := fetchURL(t, c, worldgen.YouTubeHost+"/"); !res.OK() || res.Status != localdb.Blocked {
		t.Fatalf("warm fetch = %+v (err=%v), want a blocked verdict", res, res.Err)
	}
	c.WaitIdle()
	w.Clock.Advance(time.Hour)
	mu.Lock()
	epoch = w.Clock.Now()
	mu.Unlock()

	circum := c.Counter("served-circum")
	req := httpx.NewRequest("POST", worldgen.YouTubeHost, "/")
	req.Body = []byte(`text=hi`)
	if res, err := c.Do(context.Background(), req); err == nil && res.Source != "direct" {
		t.Fatalf("POST on a stale blocked verdict went via %q", res.Source)
	}
	if got := c.Counter("stale-verdict"); got != 1 {
		t.Fatalf("stale-verdict = %d, want 1", got)
	}
	if got := c.Counter("served-direct") + c.Counter("post-direct-failed"); got != 1 {
		t.Fatalf("direct POSTs = %d, want exactly 1", got)
	}
	if got := c.Counter("served-circum"); got != circum {
		t.Fatalf("served-circum moved %d → %d: the POST circumvented on a stale verdict", circum, got)
	}
}

// Close alone — no WaitIdle — must reap every background goroutine the
// fetch pipeline spawned: settle/refresh workers and redundant-copy
// watchers.
func TestCloseReapsBackgroundWork(t *testing.T) {
	_, c := newCaseStudyClient(t, nil, "ISP-A")
	// Warm the world (transports, proxies, classifier) before the baseline
	// so only fetch-pipeline goroutines are measured below.
	_ = fetchURL(t, c, worldgen.NewsHost+"/")
	_ = fetchURL(t, c, worldgen.YouTubeHost+"/")
	c.WaitIdle()

	leakcheck.Check(t)
	// Blocked and clean fetches in flight leave background settlement and
	// redundant-copy goroutines behind; Close must not strand them.
	_ = fetchURL(t, c, worldgen.YouTubeHost+"/")
	_ = fetchURL(t, c, worldgen.SmallHost+"/")
	c.Close()
}

// On the event clock nothing but a sleeper moves time, so a direct
// measurement whose request the censor swallowed can never reach its HTTP
// timeout: Close must end it, as it ends one stalled on a blackholed
// connect. With no approach to fall back on, the fetch itself is what waits.
// The fetch runs under Background, and under a cancel-only context of the
// clock as the fleet driver's run context is, which ends it too.
func TestCloseUnhangsStalledExchange(t *testing.T) {
	for _, tc := range []struct {
		name          string
		withCancel    bool // fetch under clock.WithCancel(Background)
		cancelNotStop bool // end the fetch by cancelling that, not by Close
	}{
		{"background", false, false},
		{"clock cancel context", true, false},
		{"clock cancel context cancelled", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := worldgen.New(worldgen.Options{EventDriven: true, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if err := w.StandardSites(); err != nil {
				t.Fatal(err)
			}
			isp, err := w.AddISP(64500, "ISP-drop", &censor.Policy{
				HTTP: []censor.HTTPRule{{Host: worldgen.NewsHost, Action: censor.HTTPDrop}},
			})
			if err != nil {
				t.Fatal(err)
			}
			cfg := w.ClientConfig(w.NewClientHost("client-1", isp), 5)
			cfg.Approaches = nil
			c, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}

			leakcheck.Check(t)
			ctx, cancel := context.Background(), context.CancelFunc(func() {})
			if tc.withCancel {
				ctx, cancel = w.Clock.WithCancel(ctx)
			}
			defer cancel()
			done := make(chan *core.Result, 1)
			go func() { done <- c.FetchURL(ctx, worldgen.NewsHost+"/") }()
			for isp.Censor.Counters.Get(censor.HTTPDrop.String()) == 0 {
				runtime.Gosched() // until the censor has swallowed the request
			}
			if tc.cancelNotStop {
				cancel()
				defer c.Close()
			} else {
				c.Close()
			}
			select {
			case res := <-done:
				if res.Status != localdb.NotMeasured || res.Err == nil {
					t.Fatalf("fetch cut short = %s, err %v; want not-measured with an error", res.Status, res.Err)
				}
			case <-time.After(5 * time.Second): //lint:allow-realtime test watchdog
				t.Fatal("FetchURL still stalled in the direct measurement")
			}
		})
	}
}
