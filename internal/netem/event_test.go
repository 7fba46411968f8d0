package netem

import (
	"io"
	"testing"
	"time"

	"csaw/internal/vtime"
)

// eventWorld is testWorld on the discrete-event clock.
func eventWorld(t *testing.T) (*Network, *Host, *Host) {
	t.Helper()
	clock := vtime.NewEventDriven()
	n := New(clock, WithSeed(42))
	as := n.AddAS(100, "ISP-A", "PK")
	client := n.MustAddHost("client", "10.0.0.1", "pk", as)
	asUS := n.AddAS(200, "Transit-US", "US")
	server := n.MustAddHost("server", "93.184.216.34", "us", asUS)
	n.SetRTT("pk", "us", 200*time.Millisecond)
	return n, client, server
}

// TestEventModeEcho: the transport works under the discrete-event clock —
// latency sleeps advance virtual time instead of burning wall time, by
// exactly the path's delay.
func TestEventModeEcho(t *testing.T) {
	n, client, server := eventWorld(t)
	l := server.MustListen(80)
	defer closeListener(t, l)
	echoOnce(t, l)

	start := n.Clock().Now()
	conn, err := client.DialTimeout("93.184.216.34:80", 5*time.Second)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	// The handshake costs exactly one RTT: the path model has nothing else.
	if el := n.Clock().Since(start); el != 200*time.Millisecond {
		t.Fatalf("dial advanced virtual time by %v, want exactly one RTT (200ms)", el)
	}
	msg := []byte("hello, event-driven world")
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
	// The exchange covered at least one round trip of virtual latency.
	if el := n.Clock().Since(start); el < 200*time.Millisecond {
		t.Fatalf("virtual elapsed %v, want >= one RTT (200ms)", el)
	}
}
