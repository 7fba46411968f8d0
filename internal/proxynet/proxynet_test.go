package proxynet

import (
	"context"
	"testing"
	"time"

	"csaw/internal/httpx"
	"csaw/internal/netem"
	"csaw/internal/vtime"
)

func proxyWorld(t *testing.T) (*netem.Network, *netem.Host, *Server) {
	t.Helper()
	return proxyWorldOn(t, vtime.New(500))
}

// proxyWorldOn is proxyWorld on the given clock.
func proxyWorldOn(t *testing.T, clock *vtime.Clock) (*netem.Network, *netem.Host, *Server) {
	t.Helper()
	n := netem.New(clock, netem.WithSeed(17))
	pk := n.AddAS(1, "PK", "PK")
	eu := n.AddAS(2, "EU", "EU")
	client := n.MustAddHost("client", "10.0.0.1", "pk", pk)
	proxyHost := n.MustAddHost("proxy-uk", "20.2.0.1", "uk", eu)
	origin := n.MustAddHost("origin", "93.184.216.34", "us", eu)
	n.SetRTT("pk", "uk", 228*time.Millisecond) // Table 2: UK proxy
	n.SetRTT("pk", "us", 186*time.Millisecond)
	n.SetRTT("uk", "us", 80*time.Millisecond)

	httpx.Serve(origin.MustListen(80), httpx.HandlerFunc(func(req *httpx.Request, _ netem.Flow) *httpx.Response {
		return httpx.NewResponse(200, []byte("origin says hi"))
	}))
	srv, err := Serve(proxyHost, Port, IPLookup)
	if err != nil {
		t.Fatal(err)
	}
	return n, client, srv
}

func TestTunnelRoundTrip(t *testing.T) {
	n, client, srv := proxyWorld(t)
	dial := Via(client.Dial, srv.Addr())
	c := &httpx.Client{Dial: dial, Clock: n.Clock(), Timeout: 15 * time.Second}
	resp, err := c.Get(context.Background(), "93.184.216.34:80", "x.example", "/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || string(resp.Body) != "origin says hi" {
		t.Fatalf("resp = %d %q", resp.StatusCode, resp.Body)
	}
}

func TestTunnelToDeadTargetFails(t *testing.T) {
	n, client, srv := proxyWorld(t)
	dial := Via(client.Dial, srv.Addr())
	ctx, cancel := n.Clock().WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := dial(ctx, "93.184.216.34:81"); err == nil {
		t.Fatal("tunnel to closed port succeeded")
	}
}

func TestTunnelByHostnameNeedsLookup(t *testing.T) {
	n, client, srv := proxyWorld(t)
	dial := Via(client.Dial, srv.Addr())
	ctx, cancel := n.Clock().WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// IPLookup refuses hostnames.
	if _, err := dial(ctx, "blocked.example:80"); err == nil {
		t.Fatal("hostname tunnel succeeded without a resolver")
	}
}

func TestTunnelByHostnameWithLookup(t *testing.T) {
	clock := vtime.NewEventDriven()
	n := netem.New(clock, netem.WithSeed(18))
	as := n.AddAS(1, "X", "EU")
	client := n.MustAddHost("client", "10.0.0.1", "pk", as)
	proxyHost := n.MustAddHost("proxy", "20.2.0.1", "de", as)
	origin := n.MustAddHost("origin", "93.184.216.34", "us", as)
	httpx.Serve(origin.MustListen(80), httpx.HandlerFunc(func(*httpx.Request, netem.Flow) *httpx.Response {
		return httpx.NewResponse(200, []byte("by name"))
	}))
	lookup := func(_ context.Context, host string) (string, error) {
		return "93.184.216.34", nil
	}
	srv, err := Serve(proxyHost, Port, lookup)
	if err != nil {
		t.Fatal(err)
	}
	dial := Via(client.Dial, srv.Addr())
	c := &httpx.Client{Dial: dial, Clock: clock, Timeout: 15 * time.Second}
	resp, err := c.Get(context.Background(), "blocked.example:80", "blocked.example", "/")
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "by name" {
		t.Fatalf("body = %q", resp.Body)
	}
}

func TestProxyAddsLatency(t *testing.T) {
	// Table 2 / Figure 1a shape: a far proxy costs more than the direct path.
	// On the event clock each fetch reads its path's virtual time exactly;
	// on the scaled clock a scheduler stall under a loaded full run once
	// made the direct fetch read 969 ms against the proxy's 938 ms.
	n, client, srv := proxyWorldOn(t, vtime.NewEventDriven())
	fetch := func(dial netem.DialFunc) time.Duration {
		start := n.Clock().Now()
		c := &httpx.Client{Dial: dial, Clock: n.Clock(), Timeout: 15 * time.Second}
		if _, err := c.Get(context.Background(), "93.184.216.34:80", "x", "/"); err != nil {
			t.Fatal(err)
		}
		return n.Clock().Since(start)
	}
	viaProxy := fetch(Via(client.Dial, srv.Addr()))
	direct := fetch(client.Dial)
	if viaProxy <= direct {
		t.Errorf("proxy %v <= direct %v", viaProxy, direct)
	}
}

func TestBadConnectLineRejected(t *testing.T) {
	n, client, srv := proxyWorld(t)
	ctx, cancel := n.Clock().WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	conn, err := client.Dial(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	netem.Bind(ctx, conn)
	if _, err := conn.Write([]byte("GARBAGE LINE\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	nr, err := conn.Read(buf)
	if err != nil || string(buf[:3]) != "ERR" {
		t.Fatalf("read = %q err=%v, want ERR", buf[:nr], err)
	}
}

func TestIPLookup(t *testing.T) {
	if ip, err := IPLookup(context.Background(), "1.2.3.4"); err != nil || ip != "1.2.3.4" {
		t.Fatal("IP literal refused")
	}
	if _, err := IPLookup(context.Background(), "example.com"); err == nil {
		t.Fatal("hostname accepted")
	}
}
