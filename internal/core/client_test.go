package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"csaw/internal/dnsx"
	"csaw/internal/netem"
	"csaw/internal/vtime"
)

// lifeClocks are the clocks a client's life context is made on, by name.
var lifeClocks = map[string]func() *vtime.Clock{
	"event":       vtime.NewEventDriven,
	"real-scaled": func() *vtime.Clock { return vtime.New(1) },
}

// ended reports whether ctx has ended with context.Canceled. A real-scaled
// stop context ends on a goroutine of the context package's own, so it is
// given a little host time to.
func ended(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return errors.Is(ctx.Err(), context.Canceled)
	case <-time.After(10 * time.Second): //lint:allow-realtime test watchdog
		return false
	}
}

// TestLifeContextMadeAtFirstUse: a client that never starts background
// work never makes its life context, Close included; the first stopCtx
// makes it, and Close ends it and every context stopCtx made, before and
// after Close.
func TestLifeContextMadeAtFirstUse(t *testing.T) {
	for name, clock := range lifeClocks {
		t.Run(name, func(t *testing.T) {
			idle := &Client{cfg: &Config{Clock: clock()}}
			idle.Close()
			if idle.life != nil {
				t.Fatal("Close made a life context for a client with no background work")
			}

			c := &Client{cfg: &Config{Clock: clock()}}
			first, cancelFirst := c.stopCtx(context.Background())
			defer cancelFirst()
			if c.life == nil {
				t.Fatal("stopCtx made no life context")
			}
			if first.Err() != nil {
				t.Fatalf("a stop context of a live client has ended: %v", first.Err())
			}
			life := c.life
			second, cancelSecond := c.stopCtx(context.Background())
			defer cancelSecond()
			if c.life != life {
				t.Fatal("a second stopCtx made a second life context")
			}
			c.Close()
			if !ended(first) || !ended(second) {
				t.Fatalf("Close left stop contexts running: %v, %v", first.Err(), second.Err())
			}
			late, cancelLate := c.stopCtx(context.Background())
			defer cancelLate()
			if !ended(late) {
				t.Fatalf("a stop context made after Close has not ended: %v", late.Err())
			}
		})
	}
}

// TestLifeContextBornEndedAfterClose: a client closed before any
// background work makes its life context on the first stopCtx, already
// ended, so the work that asked for it stops at once.
func TestLifeContextBornEndedAfterClose(t *testing.T) {
	for name, clock := range lifeClocks {
		t.Run(name, func(t *testing.T) {
			c := &Client{cfg: &Config{Clock: clock()}}
			c.Close()
			ctx, cancel := c.stopCtx(context.Background())
			defer cancel()
			if !ended(ctx) {
				t.Fatalf("a stop context made after Close has not ended: %v", ctx.Err())
			}
			if !ended(c.lifeCtx()) {
				t.Fatal("a life context made after Close was not born ended")
			}
		})
	}
}

// TestLifeContextCloseRacesFirstUse is meant for -race: Close and the
// first stopCtx run at once, and whichever wins, the stop context ends.
func TestLifeContextCloseRacesFirstUse(t *testing.T) {
	for range 50 {
		c := &Client{cfg: &Config{Clock: vtime.NewEventDriven()}}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Close()
		}()
		ctx, cancel := c.stopCtx(context.Background())
		wg.Wait()
		if !ended(ctx) {
			t.Fatalf("a stop context outlived Close: %v", ctx.Err())
		}
		cancel()
	}
}

// resolverWorld is a host with one resolver that records the id of every
// query it answers.
func resolverWorld(t *testing.T) (*netem.Host, *vtime.Clock, func() []uint16) {
	t.Helper()
	clock := vtime.New(500)
	n := netem.New(clock, netem.WithSeed(1))
	as := n.AddAS(100, "ISP", "PK")
	host := n.MustAddHost("client", "10.0.0.1", "pk", as)
	server := n.MustAddHost("resolver", "10.0.0.53", "pk", as)
	reg := dnsx.NewRegistry()
	reg.Set("example.com", "203.0.113.1")
	auth := dnsx.AuthHandler(reg, 300)
	var mu sync.Mutex
	var ids []uint16
	if _, err := dnsx.NewServer(server, dnsx.HandlerFunc(func(q *dnsx.Message, f netem.Flow) *dnsx.Message {
		mu.Lock()
		ids = append(ids, q.ID)
		mu.Unlock()
		return auth.HandleDNS(q, f)
	})); err != nil {
		t.Fatal(err)
	}
	return host, clock, func() []uint16 {
		mu.Lock()
		defer mu.Unlock()
		return append([]uint16(nil), ids...)
	}
}

// TestResolversKeepOneIDSequence: the client builds its resolvers where it
// uses them — the detector's, and an approach's lookup — and each resolver
// continues one query-id sequence across them, as one resolver held for
// the client's life did.
func TestResolversKeepOneIDSequence(t *testing.T) {
	host, clock, seen := resolverWorld(t)
	c, err := New(Config{Host: host, Clock: clock,
		LDNS: []string{"10.0.0.53:53"}, GDNS: []string{"10.0.0.53:53"}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := clock.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	det := c.detector(new(resolvers))
	if res := det.LDNS.Lookup(ctx, "example.com"); !res.OK() {
		t.Fatalf("detector's local lookup: %v", res.Err)
	}
	if _, err := c.lookupLocalThenGlobal(ctx, "example.com"); err != nil {
		t.Fatalf("local-then-global lookup: %v", err)
	}
	if res := det.GDNS.Lookup(ctx, "example.com"); !res.OK() {
		t.Fatalf("detector's global lookup: %v", res.Err)
	}
	if _, err := c.lookupGlobal(ctx, "example.com"); err != nil {
		t.Fatalf("global lookup: %v", err)
	}
	// Local: 1, 2; global: 1, 2 — each sequence its own, each unbroken.
	if got, want := seen(), []uint16{1, 2, 1, 2}; !equalIDs(got, want) {
		t.Fatalf("query ids %v, want %v", got, want)
	}
}

func equalIDs(a, b []uint16) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestConfigShared: clients whose configs differ only in their own fields
// hold one copy of the rest; a config that differs in any other field, or
// holds a func, gets its own; and each client keeps its own fields.
func TestConfigShared(t *testing.T) {
	clock := vtime.NewEventDriven()
	n := netem.New(clock)
	as := n.AddAS(100, "ISP", "PK")
	base := Config{Clock: clock, LDNS: []string{"10.0.0.53:53"}, GDNS: []string{"8.8.8.8:53"},
		SyncInterval: -1, Approaches: []*Approach{{Name: "relay", Kind: KindRelay}}}
	build := func(name, ip string, mutate func(*Config)) *Client {
		cfg := base
		cfg.Host = n.MustAddHost(name, ip, "pk", as)
		cfg.CaptchaToken = "human-" + name
		cfg.Seed = int64(len(name))
		// Equal slices in fresh arrays share as well as the same array does.
		cfg.GDNS = append([]string(nil), base.GDNS...)
		if mutate != nil {
			mutate(&cfg)
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a := build("a", "10.0.0.1", nil)
	b := build("bb", "10.0.0.2", func(cfg *Config) { cfg.LDNS = []string{"10.0.0.54:53"} })
	if a.cfg != b.cfg {
		t.Fatal("configs that differ only in the clients' own fields are not shared")
	}
	if a.host == b.host || a.captcha == b.captcha || a.seed == b.seed || a.ldns[0] == b.ldns[0] {
		t.Fatal("a client's own fields were shared")
	}
	if a.cfg.Host != nil || a.cfg.LDNS != nil || a.cfg.CaptchaToken != "" || a.cfg.Seed != 0 {
		t.Fatal("the shared config holds a client's own fields")
	}
	for i, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"knob", func(cfg *Config) { cfg.ExploreEvery = 3 }},
		{"policy", func(cfg *Config) { cfg.Sync.Retries = 1 }},
		{"slice", func(cfg *Config) { cfg.GDNS = []string{"9.9.9.9:53"} }},
		{"approach", func(cfg *Config) { cfg.Approaches = []*Approach{{Name: "relay", Kind: KindRelay}} }},
		{"func", func(cfg *Config) { cfg.CensorEpoch = func() time.Time { return time.Time{} } }},
		{"no approaches", func(cfg *Config) { cfg.Approaches = nil }},
	} {
		c := build("c-"+tc.name, fmt.Sprintf("10.0.1.%d", i+1), tc.mutate)
		if c.cfg == a.cfg {
			t.Errorf("%s: a config that differs is shared", tc.name)
		}
	}
}
