package netem

import (
	"io"
	"testing"
	"time"

	"csaw/internal/vtime"
)

// TestSessionTiming: on the scaled clock one intercepted pair times every
// segment as the two pipes of a middlebox proxy, relaying each segment the
// moment it arrives, would: a held segment reaches the interceptor after the
// client's hop and the server one server hop after it is passed; a server
// segment pays the server's hop then the client's as it is written; an
// answer of the interceptor's pays the client's hop only; and the gate,
// opened, sends what it holds on as each segment arrives.
func TestSessionTiming(t *testing.T) {
	const bw = 1 << 20
	n := New(vtime.New(1), WithSeed(1), WithBandwidth(bw))
	const oneWay, edge = 40 * time.Millisecond, 5 * time.Millisecond
	s, client, _ := newSession(PassVerdicts{}, n, oneWay, edge,
		Addr{IP: "10.0.0.1", Port: 1}, Addr{IP: "10.0.0.2", Port: 80}, Addr{IP: "censor.1", Port: 80}, Flow{})
	up, down := client.tx, client.rx
	ms := func(d float64) instant { return instant(d * float64(time.Millisecond)) }
	x := func(n int) instant { return instant(float64(n) / bw * float64(time.Second)) }
	// hop is one pipe of the proxy: a segment sent at t arrives lat later,
	// serialized behind the one before.
	hop := func(t, lat instant, last *instant, n int) instant {
		*last = max(t+lat, *last) + x(n)
		return *last
	}
	var clientHop, serverHop, serverHopBack, clientHopBack instant
	check := func(what string, got, want instant) {
		t.Helper()
		if got != want {
			t.Errorf("%s due at %v, want %v", what, time.Duration(got), time.Duration(want))
		}
	}

	up.mu.Lock()
	up.put(make([]byte, 1000), 0)
	up.put(make([]byte, 2000), ms(1))
	check("first held segment", s.held.segs[0].due, hop(0, ms(5), &clientHop, 1000))
	check("second held segment", s.held.segs[1].due, hop(ms(1), ms(5), &clientHop, 2000))
	up.forward(make([]byte, 1000), ms(10))
	up.forward(make([]byte, 2000), ms(11))
	check("first passed segment", up.segs[0].due, hop(ms(10), ms(35), &serverHop, 1000))
	check("second passed segment", up.segs[1].due, hop(ms(11), ms(35), &serverHop, 2000))
	up.mu.Unlock()

	down.mu.Lock()
	down.put(make([]byte, 3000), ms(50))
	down.put(make([]byte, 4000), ms(50))
	down.forward(make([]byte, 500), ms(52))
	check("first server segment", down.segs[0].due, hop(hop(ms(50), ms(35), &serverHopBack, 3000), ms(5), &clientHopBack, 3000))
	check("second server segment", down.segs[1].due, hop(hop(ms(50), ms(35), &serverHopBack, 4000), ms(5), &clientHopBack, 4000))
	check("the interceptor's answer", down.segs[2].due, hop(ms(52), ms(5), &clientHopBack, 500))
	down.mu.Unlock()

	// Held segments still on their way to the interceptor when the gate
	// opens go on as they arrive there; later writes pay both hops.
	far := realNow() + ms(3_600_000)
	up.mu.Lock()
	up.drop()
	up.lastDue, s.up.lastDue, serverHop, clientHop = 0, 0, 0, 0
	s.held.drop()
	up.put(make([]byte, 100), far)
	up.mu.Unlock()
	s.Splice()
	up.mu.Lock()
	arrived := hop(far, ms(5), &clientHop, 100)
	check("a held segment the gate opened on", up.segs[0].due, hop(arrived, ms(35), &serverHop, 100))
	up.put(make([]byte, 100), far)
	check("a segment written through the open gate", up.segs[1].due, hop(hop(far, ms(5), &clientHop, 100), ms(35), &serverHop, 100))
	up.mu.Unlock()
}

// TestSessionGate: what the client writes reaches the server only as the
// interceptor passes it or once the gate is open, and the interceptor's
// answers reach the client beside the server's bytes.
func TestSessionGate(t *testing.T) {
	n := New(vtime.NewEventDriven(), WithSeed(1))
	s, client, server := newSession(PassVerdicts{}, n, 0, 0,
		Addr{IP: "10.0.0.1", Port: 1}, Addr{IP: "10.0.0.2", Port: 80}, Addr{IP: "censor.1", Port: 80}, Flow{})
	for _, w := range []string{"held ", "then passed"} {
		if _, err := client.Write([]byte(w)); err != nil {
			t.Fatal(err)
		}
	}
	client.tx.mu.Lock()
	readable := client.tx.unread
	client.tx.mu.Unlock()
	if readable != 0 {
		t.Fatalf("the server could read %d bytes the interceptor holds", readable)
	}
	b, err := s.Take(4)
	if err != nil || string(b) != "held" {
		t.Fatalf("Take = %q, %v", b, err)
	}
	if err := s.Pass(b); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write([]byte("answer ")); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Write([]byte("origin")); err != nil {
		t.Fatal(err)
	}
	s.Splice() // " " and "then passed" go on
	if _, err := client.Write([]byte("!")); err != nil {
		t.Fatal(err)
	}
	client.shutdown()
	if got, err := io.ReadAll(server); err != nil || string(got) != "held then passed!" {
		t.Fatalf("the server read %q, %v", got, err)
	}
	server.shutdown()
	if got, err := io.ReadAll(client); err != nil || string(got) != "answer origin" {
		t.Fatalf("the client read %q, %v", got, err)
	}
}

// TestSessionBlackhole: a blackholed stream swallows what the client sends
// and never answers; the server sees EOF and its close goes nowhere.
func TestSessionBlackhole(t *testing.T) {
	n := New(vtime.NewEventDriven(), WithSeed(1))
	s, client, server := newSession(PassVerdicts{}, n, 0, 0,
		Addr{IP: "10.0.0.1", Port: 1}, Addr{IP: "10.0.0.2", Port: 80}, Addr{IP: "censor.1", Port: 80}, Flow{})
	if _, err := client.Write([]byte("GET /blocked")); err != nil {
		t.Fatal(err)
	}
	s.Blackhole()
	if _, err := client.Write(make([]byte, 2*defaultPipeCap)); err != nil {
		t.Fatalf("a write into the blackhole: %v", err)
	}
	if got, err := io.ReadAll(server); err != nil || len(got) > 0 {
		t.Fatalf("the server read %q, %v; want EOF", got, err)
	}
	if _, err := server.Write([]byte("late")); err == nil {
		t.Fatal("the server wrote into a blackholed stream")
	}
	server.shutdown()
	client.Expire()
	if got, err := io.ReadAll(client); !IsTimeout(err) || len(got) > 0 {
		t.Fatalf("the client read %q, %v; want nothing until its timeout", got, err)
	}
}
