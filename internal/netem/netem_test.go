package netem

import (
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"csaw/internal/vtime"
)

const testScale = 500

// testWorld builds a two-host network: a client in "pk" behind AS 100 and a
// server in "us".
func testWorld(t *testing.T, opts ...Option) (*Network, *Host, *Host) {
	t.Helper()
	clock := vtime.New(testScale)
	opts = append([]Option{WithSeed(42)}, opts...)
	n := New(clock, opts...)
	as := n.AddAS(100, "ISP-A", "PK")
	client := n.MustAddHost("client", "10.0.0.1", "pk", as)
	asUS := n.AddAS(200, "Transit-US", "US")
	server := n.MustAddHost("server", "93.184.216.34", "us", asUS)
	n.SetRTT("pk", "us", 200*time.Millisecond)
	return n, client, server
}

// closeListener closes l and fails the test if Close ever grows an error
// path (today it is contractually nil); tests must not drop sync errors
// silently any more than the simulation may.
func closeListener(t testing.TB, l *Listener) {
	t.Helper()
	if err := l.Close(); err != nil {
		t.Errorf("listener close: %v", err)
	}
}

// echoOnce accepts one connection and echoes everything back.
func echoOnce(t *testing.T, l *Listener) {
	t.Helper()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = io.Copy(c, c)
	}()
}

func TestDialAndEcho(t *testing.T) {
	_, client, server := testWorld(t)
	l := server.MustListen(80)
	defer closeListener(t, l)
	echoOnce(t, l)

	conn, err := client.DialTimeout("93.184.216.34:80", 5*time.Second)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	msg := []byte("hello, censored world")
	if _, err := conn.Write(msg); err != nil {
		t.Fatalf("Write: %v", err)
	}
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if string(buf) != string(msg) {
		t.Fatalf("echo = %q, want %q", buf, msg)
	}
}

func TestDialLatency(t *testing.T) {
	n, client, server := testWorld(t)
	l := server.MustListen(80)
	defer closeListener(t, l)
	echoOnce(t, l)

	start := n.Clock().Now()
	conn, err := client.DialTimeout("93.184.216.34:80", 5*time.Second)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	handshake := n.Clock().Since(start)
	if handshake < 200*time.Millisecond {
		t.Errorf("handshake took %v, want >= 1 RTT (200ms)", handshake)
	}

	// One echo round trip: >= 1 more RTT.
	start = n.Clock().Now()
	if _, err := conn.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	rtt := n.Clock().Since(start)
	if rtt < 200*time.Millisecond || rtt > 2*time.Second {
		t.Errorf("echo RTT %v, want ~200ms", rtt)
	}
}

func TestBandwidthDelay(t *testing.T) {
	// 100 KiB at 100 KiB/s should take ~1s virtual on top of latency.
	n, client, server := testWorld(t, WithBandwidth(100*1024))
	l := server.MustListen(80)
	defer closeListener(t, l)
	const size = 100 * 1024
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 32*1024)
		for written := 0; written < size; {
			k := min(len(buf), size-written)
			if _, err := c.Write(buf[:k]); err != nil {
				return
			}
			written += k
		}
	}()
	conn, err := client.DialTimeout("93.184.216.34:80", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := n.Clock().Now()
	got, err := io.Copy(io.Discard, conn)
	if err != nil {
		t.Fatal(err)
	}
	if got != size {
		t.Fatalf("read %d bytes, want %d", got, size)
	}
	el := n.Clock().Since(start)
	if el < 900*time.Millisecond {
		t.Errorf("transfer took %v, want >= ~1s for 100KiB at 100KiB/s", el)
	}
	if el > 10*time.Second {
		t.Errorf("transfer took %v, implausibly slow", el)
	}
}

func TestDialRefused(t *testing.T) {
	_, client, _ := testWorld(t)
	_, err := client.DialTimeout("93.184.216.34:81", 2*time.Second)
	if !IsRefused(err) {
		t.Fatalf("Dial to closed port = %v, want refused", err)
	}
}

func TestDialNoRoute(t *testing.T) {
	_, client, _ := testWorld(t)
	_, err := client.DialTimeout("198.51.100.99:80", 500*time.Millisecond)
	if !IsTimeout(err) {
		t.Fatalf("Dial to unrouted IP = %v, want timeout", err)
	}
}

func TestDialContextCancel(t *testing.T) {
	_, client, _ := testWorld(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := client.Dial(ctx, "198.51.100.99:80")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Dial = %v, want context.Canceled", err)
	}
}

type dropAll struct{ PassVerdicts }

func (dropAll) FilterConnect(Flow) Verdict { return VerdictDrop }

type resetAll struct{ PassVerdicts }

func (resetAll) FilterConnect(Flow) Verdict { return VerdictReset }

func TestInterceptorDrop(t *testing.T) {
	n, client, server := testWorld(t)
	l := server.MustListen(80)
	defer closeListener(t, l)
	n.AS(100).SetInterceptor(dropAll{})

	start := n.Clock().Now()
	_, err := client.DialTimeout("93.184.216.34:80", 3*time.Second)
	if !IsTimeout(err) {
		t.Fatalf("Dial through dropping censor = %v, want timeout", err)
	}
	if el := n.Clock().Since(start); el < 2*time.Second {
		t.Errorf("drop surfaced after %v, want ~3s (full timeout)", el)
	}
}

func TestInterceptorReset(t *testing.T) {
	n, client, server := testWorld(t)
	l := server.MustListen(80)
	defer closeListener(t, l)
	n.AS(100).SetInterceptor(resetAll{})

	start := n.Clock().Now()
	_, err := client.DialTimeout("93.184.216.34:80", 3*time.Second)
	if !IsReset(err) {
		t.Fatalf("Dial through resetting censor = %v, want reset", err)
	}
	if el := n.Clock().Since(start); el > time.Second {
		t.Errorf("reset surfaced after %v, want fast failure", el)
	}
}

// hijacker answers every stream itself with a canned banner.
type hijacker struct{ PassVerdicts }

func (hijacker) WantStream(Flow) bool { return true }

func (hijacker) HandleStream(_ Flow, s *Session) {
	defer s.Client().Close()
	s.Server().Close()
	buf := make([]byte, 1)
	if _, err := s.Client().Read(buf); err != nil {
		return
	}
	_, _ = s.Client().Write([]byte("BLOCKED"))
}

func TestInterceptorHijack(t *testing.T) {
	n, client, server := testWorld(t)
	l := server.MustListen(80)
	defer closeListener(t, l)
	echoOnce(t, l)
	n.AS(100).SetInterceptor(hijacker{})

	conn, err := client.DialTimeout("93.184.216.34:80", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET")); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "BLOCKED" {
		t.Fatalf("hijacked response = %q, want BLOCKED", got)
	}
}

// splicer passes everything through after peeking.
type splicer struct{ PassVerdicts }

func (splicer) WantStream(Flow) bool            { return true }
func (splicer) HandleStream(_ Flow, s *Session) { s.Splice() }

func TestInterceptorSplice(t *testing.T) {
	n, client, server := testWorld(t)
	l := server.MustListen(80)
	defer closeListener(t, l)
	echoOnce(t, l)
	n.AS(100).SetInterceptor(splicer{})

	conn, err := client.DialTimeout("93.184.216.34:80", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("pass me through")
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatalf("read through splice: %v", err)
	}
	if string(buf) != string(msg) {
		t.Fatalf("spliced echo = %q, want %q", buf, msg)
	}
	conn.Close()
}

// midReset resets after the first client byte arrives.
type midReset struct{ PassVerdicts }

func (midReset) WantStream(Flow) bool { return true }
func (midReset) HandleStream(_ Flow, s *Session) {
	buf := make([]byte, 1)
	if _, err := s.Client().Read(buf); err != nil {
		return
	}
	s.Reset()
}

func TestInterceptorMidStreamReset(t *testing.T) {
	n, client, server := testWorld(t)
	l := server.MustListen(80)
	defer closeListener(t, l)
	echoOnce(t, l)
	n.AS(100).SetInterceptor(midReset{})

	conn, err := client.DialTimeout("93.184.216.34:80", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /blocked")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	_, err = conn.Read(buf)
	if !IsReset(err) {
		t.Fatalf("read after censor RST = %v, want reset", err)
	}
}

func TestCloseDeliversEOFAfterDrain(t *testing.T) {
	_, client, server := testWorld(t)
	l := server.MustListen(80)
	defer closeListener(t, l)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		_, _ = c.Write([]byte("tail data"))
		c.Close()
	}()
	conn, err := client.DialTimeout("93.184.216.34:80", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("ReadAll after peer close: %v", err)
	}
	if string(got) != "tail data" {
		t.Fatalf("drained %q, want %q", got, "tail data")
	}
}

func TestMultihomedEgressVariesAS(t *testing.T) {
	clock := vtime.New(testScale)
	n := New(clock, WithSeed(7))
	a := n.AddAS(1, "ISP-A", "PK")
	b := n.AddAS(2, "ISP-B", "PK")
	us := n.AddAS(3, "US", "US")
	client := n.MustAddHost("client", "10.0.0.1", "pk", a, b)
	server := n.MustAddHost("server", "93.184.216.34", "us", us)
	n.SetRTT("pk", "us", 100*time.Millisecond)
	l := server.MustListen(80)
	defer closeListener(t, l)

	if !client.Multihomed() {
		t.Fatal("client should report multihomed")
	}
	seen := map[int]bool{}
	for i := 0; i < 40; i++ {
		go func() {
			c, err := l.Accept()
			if err != nil {
				return
			}
			c.Close()
		}()
		conn, err := client.DialTimeout("93.184.216.34:80", 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		seen[conn.(*Conn).Flow().EgressAS.Number] = true
		conn.Close()
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("egress ASes seen = %v, want both 1 and 2", seen)
	}
}

// TestPing: a ping takes the path's RTT. On the scaled clock host stalls
// can only stretch it; on the event clock it is exactly the RTT.
func TestPing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		world func(*testing.T) (*Network, *Host, *Host)
		max   time.Duration
	}{
		{"scaled", func(t *testing.T) (*Network, *Host, *Host) { return testWorld(t) }, 2 * time.Second},
		{"event", eventWorld, 200 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, client, _ := tc.world(t)
			rtt, err := n.Ping(client, "93.184.216.34")
			if err != nil {
				t.Fatal(err)
			}
			if rtt < 200*time.Millisecond || rtt > tc.max {
				t.Errorf("ping RTT %v, want within [200ms, %v]", rtt, tc.max)
			}
			if _, err := n.Ping(client, "203.0.113.254"); err == nil {
				t.Error("ping to unknown IP should fail")
			}
		})
	}
}

func TestDuplicateIPRejected(t *testing.T) {
	n, _, _ := testWorld(t)
	as := n.AS(100)
	if _, err := n.AddHost("dup", "10.0.0.1", "pk", as); err == nil {
		t.Fatal("duplicate IP accepted")
	}
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	_, _, server := testWorld(t)
	l := server.MustListen(80)
	done := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		done <- err
	}()
	closeListener(t, l)
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Accept returned nil after Close")
		}
	//lint:allow-realtime watchdog for a wall-clock hang; virtual time cannot bound a scheduler bug
	case <-time.After(2 * time.Second):
		t.Fatal("Accept did not unblock on Close")
	}
	closeListener(t, l) // double close must be safe
}

func TestListenPortConflict(t *testing.T) {
	_, _, server := testWorld(t)
	l := server.MustListen(80)
	defer closeListener(t, l)
	if _, err := server.Listen(80); err == nil {
		t.Fatal("second Listen on same port succeeded")
	}
	closeListener(t, l)
	if _, err := server.Listen(80); err != nil {
		t.Fatalf("Listen after Close: %v", err)
	}
}

func TestSplitAddr(t *testing.T) {
	ip, port, err := SplitAddr("1.2.3.4:443")
	if err != nil || ip != "1.2.3.4" || port != 443 {
		t.Fatalf("SplitAddr = %q %d %v", ip, port, err)
	}
	for _, bad := range []string{"1.2.3.4", "1.2.3.4:", "1.2.3.4:0", "1.2.3.4:70000", ":x"} {
		if _, _, err := SplitAddr(bad); err == nil {
			t.Errorf("SplitAddr(%q) accepted", bad)
		}
	}
}

func TestIsIPLiteral(t *testing.T) {
	for s, want := range map[string]bool{
		"10.0.0.1":        true,
		"0.0.0.0":         true,
		"255.255.255.255": true,
		"":                false,
		"example.com":     false,
		"1.2.3":           false,
		"1.2.3.4.5":       false,
		"...":             false,
		"1.2.3.":          false,
		".1.2.3":          false,
		"1..2.3":          false,
		"1.2.3.x":         false,
		"1.2.3.4:80":      false,
		"١.٢.٣.٤":         false, // non-ASCII digits are not an address
	} {
		if got := IsIPLiteral(s); got != want {
			t.Errorf("IsIPLiteral(%q) = %v, want %v", s, got, want)
		}
	}
}

func TestRTTDefaults(t *testing.T) {
	n, _, _ := testWorld(t)
	if rtt := n.RTT("pk", "pk"); rtt > 10*time.Millisecond {
		t.Errorf("same-loc RTT %v, want LAN-scale", rtt)
	}
	if rtt := n.RTT("pk", "nowhere"); rtt != 120*time.Millisecond {
		t.Errorf("unknown pair RTT %v, want base 120ms", rtt)
	}
}

func TestVerdictString(t *testing.T) {
	if VerdictPass.String() != "pass" || VerdictDrop.String() != "drop" || VerdictReset.String() != "reset" {
		t.Error("verdict names wrong")
	}
	if Verdict(99).String() != "verdict(?)" {
		t.Error("unknown verdict name wrong")
	}
}

// TestLimitDial: a budgeted dialer admits one conn per slot, times out
// waiting for one, and gets the slot back exactly once — on the conn's
// first Close, or at once when the dial itself fails.
func TestLimitDial(t *testing.T) {
	n, client, server := testWorld(t)
	l := server.MustListen(80)
	defer closeListener(t, l)
	slots := make(chan struct{}, 1)
	dial := LimitDial(client.Dial, slots)
	// Only the budget-spent dial is meant to time out, so only it runs under
	// a short budget. At the test clock's scale 2 s virtual is a few real
	// milliseconds, which a host stall can eat; the dials that must succeed
	// or be refused get a budget no stall reaches.
	within := func(d time.Duration) (context.Context, context.CancelFunc) {
		return n.Clock().WithTimeout(context.Background(), d)
	}

	ctx, cancel := within(30 * time.Second)
	defer cancel()
	held, err := dial(ctx, "93.184.216.34:80")
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := within(2 * time.Second)
	defer cancel2()
	if _, err := dial(ctx2, "93.184.216.34:80"); !IsTimeout(err) {
		t.Fatalf("dial with the budget spent: %v, want a timeout", err)
	}
	held.Close()
	held.Close()
	if len(slots) != 0 {
		t.Fatalf("%d slots taken after Close, want 0", len(slots))
	}
	ctx3, cancel3 := within(30 * time.Second)
	defer cancel3()
	if _, err := dial(ctx3, "93.184.216.34:81"); !IsRefused(err) {
		t.Fatalf("dial to a dead port: %v, want refused", err)
	}
	if len(slots) != 0 {
		t.Fatalf("%d slots taken after a failed dial, want 0", len(slots))
	}
}
