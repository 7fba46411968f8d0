package dnsx

import (
	"context"
	"errors"
	"testing"
	"time"

	"csaw/internal/netem"
	"csaw/internal/vtime"
)

// dnsWorld builds a client in "pk" with an ISP resolver 25ms away and a
// public resolver 180ms away, both resolving against the same registry.
func dnsWorld(t *testing.T) (n *netem.Network, client *netem.Host, reg *Registry, ispHandler *swappableHandler) {
	t.Helper()
	clock := vtime.New(500)
	n = netem.New(clock, netem.WithSeed(11))
	isp := n.AddAS(100, "ISP-A", "PK")
	usAS := n.AddAS(200, "US", "US")
	client = n.MustAddHost("client", "10.0.0.1", "pk", isp)
	resolver := n.MustAddHost("resolver.isp", "10.0.0.53", "pk-isp", isp)
	public := n.MustAddHost("public-dns", "8.8.8.8", "us", usAS)
	n.SetRTT("pk", "pk-isp", 25*time.Millisecond)
	n.SetRTT("pk", "us", 180*time.Millisecond)

	reg = NewRegistry()
	reg.Set("www.youtube.com", "216.58.1.1")
	reg.Set("news.example.pk", "203.0.113.50")

	ispHandler = &swappableHandler{h: AuthHandler(reg, 300)}
	if _, err := NewServer(resolver, ispHandler); err != nil {
		t.Fatal(err)
	}
	if _, err := NewServer(public, AuthHandler(reg, 300)); err != nil {
		t.Fatal(err)
	}
	return n, client, reg, ispHandler
}

type swappableHandler struct{ h Handler }

func (s *swappableHandler) HandleDNS(q *Message, f netem.Flow) *Message { return s.h.HandleDNS(q, f) }

func TestLookupSuccess(t *testing.T) {
	n, client, _, _ := dnsWorld(t)
	c := NewClient(client, "10.0.0.53:53")
	res := c.Lookup(context.Background(), "www.youtube.com")
	if !res.OK() {
		t.Fatalf("lookup failed: %+v", res)
	}
	if res.IPs[0] != "216.58.1.1" {
		t.Fatalf("IPs = %v", res.IPs)
	}
	if res.Took > 3*time.Second {
		t.Errorf("clean lookup took %v, want ~2 RTT", res.Took)
	}
	_ = n
}

func TestLookupNXDomainFast(t *testing.T) {
	_, client, _, _ := dnsWorld(t)
	c := NewClient(client, "10.0.0.53:53")
	res := c.Lookup(context.Background(), "no-such-host.example")
	if res.Err == nil || !errors.Is(res.Err, ErrRCode) || res.RCode != RCodeNXDomain {
		t.Fatalf("want NXDOMAIN error, got %+v", res)
	}
	if res.Took > 3*time.Second {
		t.Errorf("NXDOMAIN took %v, want fast", res.Took)
	}
}

func TestLookupRefusedFast(t *testing.T) {
	// Table 5: DNS "Server Refused" is detected in ~0.025s — one RTT.
	_, client, _, isp := dnsWorld(t)
	isp.h = HandlerFunc(func(q *Message, _ netem.Flow) *Message {
		r := q.Reply()
		r.RCode = RCodeRefused
		return r
	})
	c := NewClient(client, "10.0.0.53:53")
	res := c.Lookup(context.Background(), "www.youtube.com")
	if !errors.Is(res.Err, ErrRCode) || res.RCode != RCodeRefused {
		t.Fatalf("want REFUSED, got %+v", res)
	}
	if res.Took > 3*time.Second {
		t.Errorf("REFUSED took %v, want ~one RTT", res.Took)
	}
}

func TestLookupServfailSlow(t *testing.T) {
	// Table 5: SERVFAIL blocking detected after ~10.6s — the stub holds the
	// attempt budget hoping the failure is transient.
	_, client, _, isp := dnsWorld(t)
	isp.h = HandlerFunc(func(q *Message, _ netem.Flow) *Message {
		r := q.Reply()
		r.RCode = RCodeServFail
		return r
	})
	c := NewClient(client, "10.0.0.53:53")
	res := c.Lookup(context.Background(), "www.youtube.com")
	if !errors.Is(res.Err, ErrRCode) || res.RCode != RCodeServFail {
		t.Fatalf("want SERVFAIL, got %+v", res)
	}
	if res.Took < 9*time.Second || res.Took > 14*time.Second {
		t.Errorf("SERVFAIL detection took %v, want ~10s", res.Took)
	}
}

func TestLookupDropTimesOut(t *testing.T) {
	// Dropped queries burn the full attempt budget (~10s with defaults).
	_, client, _, isp := dnsWorld(t)
	isp.h = HandlerFunc(func(*Message, netem.Flow) *Message { return nil })
	c := NewClient(client, "10.0.0.53:53")
	res := c.Lookup(context.Background(), "www.youtube.com")
	if !errors.Is(res.Err, ErrNoResponse) {
		t.Fatalf("want ErrNoResponse, got %+v", res)
	}
	if res.Took < 9*time.Second || res.Took > 14*time.Second {
		t.Errorf("drop detection took %v, want ~10s", res.Took)
	}
}

func TestLookupRedirectReturnsCensorIP(t *testing.T) {
	// DNS redirect blocking: the resolver answers with a block-page host.
	_, client, _, isp := dnsWorld(t)
	isp.h = HandlerFunc(func(q *Message, _ netem.Flow) *Message {
		return q.Reply().AnswerA(q.Questions[0].Name, "10.10.10.10", 60)
	})
	c := NewClient(client, "10.0.0.53:53")
	res := c.Lookup(context.Background(), "www.youtube.com")
	if !res.OK() || res.IPs[0] != "10.10.10.10" {
		t.Fatalf("redirect result = %+v", res)
	}
}

func TestFallbackToSecondServer(t *testing.T) {
	// If the ISP resolver drops queries, a second configured resolver (the
	// public DNS local-fix) answers on the same attempt round.
	_, client, _, isp := dnsWorld(t)
	isp.h = HandlerFunc(func(*Message, netem.Flow) *Message { return nil })
	c := NewClient(client, "10.0.0.53:53", "8.8.8.8:53")
	res := c.Lookup(context.Background(), "www.youtube.com")
	if !res.OK() {
		t.Fatalf("fallback lookup failed: %+v", res)
	}
	if res.Server != "8.8.8.8:53" {
		t.Fatalf("answered by %s, want public DNS", res.Server)
	}
}

func TestLookupNoServers(t *testing.T) {
	_, client, _, _ := dnsWorld(t)
	c := &Client{Dial: client.Dial, Clock: client.Network().Clock()}
	if res := c.Lookup(context.Background(), "x.example"); res.Err == nil {
		t.Fatal("lookup with no servers succeeded")
	}
}

func TestLookupContextCancel(t *testing.T) {
	_, client, _, isp := dnsWorld(t)
	isp.h = HandlerFunc(func(*Message, netem.Flow) *Message { return nil })
	c := NewClient(client, "10.0.0.53:53")
	ctx, cancel := client.Network().Clock().WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	res := c.Lookup(ctx, "www.youtube.com")
	if res.Err == nil {
		t.Fatal("lookup under cancelled ctx succeeded")
	}
	if res.Took > 4500*time.Millisecond {
		t.Errorf("cancelled lookup took %v", res.Took)
	}
}

func TestRegistryUpdate(t *testing.T) {
	_, client, reg, _ := dnsWorld(t)
	c := NewClient(client, "10.0.0.53:53")
	reg.Set("new.example.pk", "203.0.113.99")
	res := c.Lookup(context.Background(), "new.example.pk")
	if !res.OK() || res.IPs[0] != "203.0.113.99" {
		t.Fatalf("lookup of updated name = %+v", res)
	}
	if names := reg.Names(); len(names) != 3 {
		t.Fatalf("registry names = %v", names)
	}
}

func TestServerMultipleQueriesPerConn(t *testing.T) {
	_, client, _, _ := dnsWorld(t)
	ctx, cancel := client.Network().Clock().WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	conn, err := client.Dial(ctx, "10.0.0.53:53")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 3; i++ {
		q := NewQuery(uint16(i+1), "www.youtube.com")
		if err := WriteMessage(conn, q); err != nil {
			t.Fatal(err)
		}
		resp, err := ReadMessage(conn)
		if err != nil {
			t.Fatal(err)
		}
		if resp.ID != uint16(i+1) || len(resp.AnswerIPs()) != 1 {
			t.Fatalf("query %d: %+v", i, resp)
		}
	}
}
