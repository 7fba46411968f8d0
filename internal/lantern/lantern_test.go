package lantern

import (
	"context"
	"testing"
	"time"

	"csaw/internal/httpx"
	"csaw/internal/netem"
	"csaw/internal/proxynet"
	"csaw/internal/vtime"
)

func lanternWorld(t *testing.T) (*netem.Network, *netem.Host, *Network) {
	t.Helper()
	clock := vtime.New(500)
	n := netem.New(clock, netem.WithSeed(13))
	pk := n.AddAS(1, "PK-ISP", "PK")
	free := n.AddAS(2, "Free", "EU")
	client := n.MustAddHost("client", "10.0.0.1", "pk", pk)
	origin := n.MustAddHost("origin", "93.184.216.34", "us", free)
	l, err := origin.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	httpx.Serve(l, httpx.HandlerFunc(func(req *httpx.Request, _ netem.Flow) *httpx.Response {
		return httpx.NewResponse(200, []byte("hello "+req.Host))
	}))
	n.SetRTT("pk", "us", 180*time.Millisecond)
	n.SetRTT("pk", "de", 250*time.Millisecond)
	n.SetRTT("de", "us", 100*time.Millisecond)

	ln := New(proxynet.IPLookup)
	return n, client, ln
}

func TestDiscoverTrustOrder(t *testing.T) {
	n, _, ln := lanternWorld(t)
	free := n.AS(2)
	pa, err := ln.RunProxy("alice", n.MustAddHost("alice-proxy", "20.1.0.1", "de", free))
	if err != nil {
		t.Fatal(err)
	}
	pb, err := ln.RunProxy("bob", n.MustAddHost("bob-proxy", "20.1.0.2", "de", free))
	if err != nil {
		t.Fatal(err)
	}
	// user ↔ alice; alice ↔ bob. bob is a friend-of-friend.
	ln.Befriend("user", "alice")
	ln.Befriend("alice", "bob")

	got := ln.Discover("user")
	if len(got) != 2 || got[0] != pa || got[1] != pb {
		t.Fatalf("Discover = %v, want [alice bob]", got)
	}
	// A stranger with no path is invisible.
	if _, err := ln.RunProxy("mallory", n.MustAddHost("mallory-proxy", "20.1.0.3", "de", free)); err != nil {
		t.Fatal(err)
	}
	if got := ln.Discover("user"); len(got) != 2 {
		t.Fatalf("stranger's proxy discovered: %v", got)
	}
}

func TestDialThroughTrustedProxy(t *testing.T) {
	n, client, ln := lanternWorld(t)
	free := n.AS(2)
	if _, err := ln.RunProxy("alice", n.MustAddHost("alice-proxy", "20.1.0.1", "de", free)); err != nil {
		t.Fatal(err)
	}
	ln.Befriend("user", "alice")
	lc := NewClient(client, ln, "user")

	c := &httpx.Client{Dial: lc.Dial, Clock: n.Clock(), Timeout: 15 * time.Second}
	resp, err := c.Get(context.Background(), "93.184.216.34:80", "blocked.example", "/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || string(resp.Body) != "hello blocked.example" {
		t.Fatalf("resp = %d %q", resp.StatusCode, resp.Body)
	}
}

func TestNoFriendsNoService(t *testing.T) {
	_, client, ln := lanternWorld(t)
	lc := NewClient(client, ln, "loner")
	if _, err := lc.Dial(context.Background(), "93.184.216.34:80"); err == nil {
		t.Fatal("dial with no trusted proxies succeeded")
	}
}

func TestFailoverDownTrustOrder(t *testing.T) {
	n, client, ln := lanternWorld(t)
	free := n.AS(2)
	// alice's proxy is registered in the graph but its host is unreachable
	// (no listener — simulate it by registering then closing).
	ph := n.MustAddHost("alice-proxy", "20.1.0.1", "de", free)
	pa, err := ln.RunProxy("alice", ph)
	if err != nil {
		t.Fatal(err)
	}
	pa.srv.Close()
	if _, err := ln.RunProxy("bob", n.MustAddHost("bob-proxy", "20.1.0.2", "de", free)); err != nil {
		t.Fatal(err)
	}
	ln.Befriend("user", "alice")
	ln.Befriend("alice", "bob")

	lc := NewClient(client, ln, "user")
	c := &httpx.Client{Dial: lc.Dial, Clock: n.Clock(), Timeout: 15 * time.Second}
	resp, err := c.Get(context.Background(), "93.184.216.34:80", "x.example", "/")
	if err != nil {
		t.Fatalf("failover failed: %v", err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestLanternPathLongerThanDirect(t *testing.T) {
	// Trust-based proxy choice ignores latency: traffic detours through the
	// friend's proxy (Figure 1c's shape).
	n, client, ln := lanternWorld(t)
	free := n.AS(2)
	if _, err := ln.RunProxy("alice", n.MustAddHost("alice-proxy", "20.1.0.1", "de", free)); err != nil {
		t.Fatal(err)
	}
	ln.Befriend("user", "alice")
	lc := NewClient(client, ln, "user")

	fetch := func(dial netem.DialFunc) time.Duration {
		start := n.Clock().Now()
		c := &httpx.Client{Dial: dial, Clock: n.Clock(), Timeout: 15 * time.Second}
		if _, err := c.Get(context.Background(), "93.184.216.34:80", "x.example", "/"); err != nil {
			t.Fatal(err)
		}
		return n.Clock().Since(start)
	}
	viaLantern := fetch(lc.Dial)
	direct := fetch(client.Dial)
	if viaLantern <= direct {
		t.Errorf("lantern %v <= direct %v, want detour cost", viaLantern, direct)
	}
}
