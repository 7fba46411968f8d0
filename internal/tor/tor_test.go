package tor

import (
	"context"
	"testing"
	"time"

	"csaw/internal/httpx"
	"csaw/internal/netem"
	"csaw/internal/proxynet"
	"csaw/internal/vtime"
)

// torWorld: a client in pk, relays in several countries, an origin in us,
// on the event clock, so a fetch's virtual latency is exact and does not
// stretch with host load.
func torWorld(t *testing.T) (*netem.Network, *netem.Host, *Directory) {
	t.Helper()
	clock := vtime.NewEventDriven()
	n := netem.New(clock, netem.WithSeed(21))
	pk := n.AddAS(1, "PK-ISP", "PK")
	world := n.AddAS(2, "Transit", "EU")

	client := n.MustAddHost("client", "10.0.0.1", "pk", pk)
	origin := n.MustAddHost("origin", "93.184.216.34", "us", world)
	l, err := origin.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	httpx.Serve(l, httpx.HandlerFunc(func(req *httpx.Request, _ netem.Flow) *httpx.Response {
		return httpx.NewResponse(200, []byte("via exit: "+req.Target))
	}))

	for _, loc := range []string{"de", "fr", "nl", "us"} {
		n.SetRTT("pk", loc, 200*time.Millisecond)
		n.SetRTT("us", loc, 80*time.Millisecond)
		for _, loc2 := range []string{"de", "fr", "nl", "us"} {
			if loc != loc2 {
				n.SetRTT(loc, loc2, 60*time.Millisecond)
			}
		}
	}

	dir := NewDirectory(clock, proxynet.IPLookup)
	ips := []string{"20.0.0.1", "20.0.0.2", "20.0.0.3", "20.0.0.4", "20.0.0.5", "20.0.0.6"}
	locs := []string{"de", "fr", "nl", "us", "de", "fr"}
	for i, ip := range ips {
		h := n.MustAddHost("relay-"+ip, ip, locs[i], world)
		if _, err := dir.AddRelay(h, 10, true, true, false); err != nil {
			t.Fatal(err)
		}
	}
	return n, client, dir
}

func fetchVia(t *testing.T, n *netem.Network, dial netem.DialFunc, addr string) *httpx.Response {
	t.Helper()
	c := &httpx.Client{Dial: dial, Clock: n.Clock(), Timeout: 20 * time.Second}
	resp, err := c.Get(context.Background(), addr, "example.com", "/page")
	if err != nil {
		t.Fatalf("fetch via tor: %v", err)
	}
	return resp
}

func TestDialThroughCircuit(t *testing.T) {
	n, client, dir := torWorld(t)
	tc := NewClient(client, dir, 1)
	resp := fetchVia(t, n, tc.Dial, "93.184.216.34:80")
	if resp.StatusCode != 200 || string(resp.Body) != "via exit: /page" {
		t.Fatalf("resp = %d %q", resp.StatusCode, resp.Body)
	}
}

func TestCircuitHasThreeDistinctRelays(t *testing.T) {
	_, client, dir := torWorld(t)
	tc := NewClient(client, dir, 2)
	for i := 0; i < 10; i++ {
		circ, err := tc.NewCircuit()
		if err != nil {
			t.Fatal(err)
		}
		if circ.Guard == circ.Middle || circ.Middle == circ.Exit || circ.Guard == circ.Exit {
			t.Fatalf("circuit reuses a relay: %s", circ)
		}
	}
}

func TestTorSlowerThanDirect(t *testing.T) {
	// The core performance claim behind Figure 1b and 7: three hops inflate
	// PLT versus the direct path.
	n, client, dir := torWorld(t)
	tc := NewClient(client, dir, 3)

	start := n.Clock().Now()
	fetchVia(t, n, tc.Dial, "93.184.216.34:80")
	torTime := n.Clock().Since(start)

	start = n.Clock().Now()
	fetchVia(t, n, client.Dial, "93.184.216.34:80")
	directTime := n.Clock().Since(start)

	t.Logf("tor %v, direct %v", torTime, directTime)
	if torTime <= directTime {
		t.Errorf("tor %v <= direct %v; circuits should cost more", torTime, directTime)
	}
}

func TestCircuitRotation(t *testing.T) {
	n, client, dir := torWorld(t)
	tc := NewClient(client, dir, 4)
	c1, err := tc.Circuit()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := tc.Circuit()
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("circuit rotated before its lifetime")
	}
	n.Clock().Sleep(CircuitLifetime + time.Minute)
	c3, err := tc.Circuit()
	if err != nil {
		t.Fatal(err)
	}
	if c3 == c1 {
		t.Fatal("circuit not rotated after lifetime")
	}
}

func TestDialViaPinnedCircuit(t *testing.T) {
	n, client, dir := torWorld(t)
	tc := NewClient(client, dir, 5)
	circ, err := tc.NewCircuit()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := n.Clock().WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	conn, err := tc.DialVia(ctx, circ, "93.184.216.34:80")
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
}

func TestGuardFailureRebuildsCircuit(t *testing.T) {
	n, client, dir := torWorld(t)
	tc := NewClient(client, dir, 6)
	circ, err := tc.Circuit()
	if err != nil {
		t.Fatal(err)
	}
	// Blacklist the guard's IP (censor blocks known entries).
	n.AS(1).SetInterceptor(blacklist(circ.Guard.Host.IP()))

	ctx, cancel := n.Clock().WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := tc.Dial(ctx, "93.184.216.34:80"); err == nil {
		t.Fatal("dial through blocked guard succeeded")
	}
	// Next dial must use a fresh circuit; with only one guard blocked it
	// should eventually succeed.
	ok := false
	for i := 0; i < 6 && !ok; i++ {
		ctx2, cancel2 := n.Clock().WithTimeout(context.Background(), 10*time.Second)
		conn, err := tc.Dial(ctx2, "93.184.216.34:80")
		if err == nil {
			conn.Close()
			ok = true
		}
		cancel2()
	}
	if !ok {
		t.Fatal("client never recovered with a fresh circuit")
	}
}

// blacklist resets every connect to the listed IPs.
func blacklist(ips ...string) *netem.FaultInjector {
	fi := netem.NewFaultInjector(nil)
	fi.SetVerdict(netem.VerdictReset)
	fi.Target(ips...)
	fi.SetDown(true)
	return fi
}

func TestBridgesWhenGuardsBlocked(t *testing.T) {
	n, client, dir := torWorld(t)
	// Censor blacklists every public relay IP.
	var ips []string
	for _, r := range dir.PublicRelays() {
		ips = append(ips, r.Host.IP())
	}
	n.AS(1).SetInterceptor(blacklist(ips...))

	// A bridge outside the public list still works as entry.
	bh := n.MustAddHost("bridge", "20.0.0.99", "nl", n.AS(2))
	if _, err := dir.AddRelay(bh, 10, true, false, true); err != nil {
		t.Fatal(err)
	}
	tc := NewClient(client, dir, 7)
	tc.UseBridge = true
	resp := fetchVia(t, n, tc.Dial, "93.184.216.34:80")
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(dir.Bridges()) != 1 {
		t.Fatal("bridge not listed as bridge")
	}
}

func TestBandwidthWeightedSelection(t *testing.T) {
	clock := vtime.New(500)
	n := netem.New(clock, netem.WithSeed(8))
	as := n.AddAS(1, "X", "EU")
	client := n.MustAddHost("client", "10.0.0.1", "pk", as)
	dir := NewDirectory(clock, proxynet.IPLookup)
	// One heavy guard, one light guard.
	heavy := n.MustAddHost("heavy", "20.0.1.1", "de", as)
	light := n.MustAddHost("light", "20.0.1.2", "fr", as)
	for _, h := range []*netem.Host{
		n.MustAddHost("m1", "20.0.1.3", "nl", as),
		n.MustAddHost("m2", "20.0.1.4", "us", as),
	} {
		if _, err := dir.AddRelay(h, 10, false, true, false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dir.AddRelay(heavy, 90, true, false, false); err != nil {
		t.Fatal(err)
	}
	if _, err := dir.AddRelay(light, 10, true, false, false); err != nil {
		t.Fatal(err)
	}
	tc := NewClient(client, dir, 9)
	heavyCount := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		circ, err := tc.NewCircuit()
		if err != nil {
			t.Fatal(err)
		}
		if circ.Guard.Host == heavy {
			heavyCount++
		}
	}
	if heavyCount < trials/2 {
		t.Errorf("heavy guard picked %d/%d times; want ≫ 50%% with 9x weight", heavyCount, trials)
	}
}

func TestNoExitFails(t *testing.T) {
	clock := vtime.New(500)
	n := netem.New(clock, netem.WithSeed(8))
	as := n.AddAS(1, "X", "EU")
	client := n.MustAddHost("client", "10.0.0.1", "pk", as)
	dir := NewDirectory(clock, nil)
	for i, ip := range []string{"20.0.2.1", "20.0.2.2", "20.0.2.3"} {
		h := n.MustAddHost("r", ip, "de", as)
		if _, err := dir.AddRelay(h, 10, i == 0, false, false); err != nil {
			t.Fatal(err)
		}
	}
	tc := NewClient(client, dir, 10)
	if _, err := tc.NewCircuit(); err == nil {
		t.Fatal("circuit built without any exit relay")
	}
}
