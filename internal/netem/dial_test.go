package netem

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"csaw/internal/vtime"
)

// TestAddrString: an address prints as fmt's "%s:%d" does, byte for byte,
// for IPs and hostnames alike and at the edges of the port range.
func TestAddrString(t *testing.T) {
	for _, ip := range []string{"10.0.0.1", "255.255.255.255", "", "www.example.com", "censor.17557"} {
		for _, port := range []int{0, 80, 443, 65535} {
			if got, want := (Addr{IP: ip, Port: port}).String(), fmt.Sprintf("%s:%d", ip, port); got != want {
				t.Errorf("Addr{%q, %d}.String() = %q, want %q", ip, port, got, want)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = Addr{IP: "93.184.216.34", Port: 443}.String() }); n != 1 {
		t.Errorf("Addr.String allocates %v times, want 1", n)
	}
}

// streamRecorder takes every stream and reports its flow.
type streamRecorder struct {
	PassVerdicts
	flows chan Flow
}

func (streamRecorder) WantStream(Flow) bool { return true }
func (r streamRecorder) HandleStream(_ Flow, s *Session) {
	select {
	case r.flows <- s.Flow():
	default:
	}
}

// TestInterceptedDial: an intercepted dial is one pair. Each end's
// addresses and flow are a plain dial's, but that the server sees the
// stream from "censor.<ASN>"; and the dial allocates no more than a plain
// one but the interceptor's goroutine — its closure and, while no exited
// goroutine is free to reuse, its g: the session lives in the pair's
// allocation.
func TestInterceptedDial(t *testing.T) {
	n := New(vtime.NewEventDriven(), WithSeed(42))
	isp := n.AddAS(17557, "ISP-A", "PK")
	client := n.MustAddHost("client", "10.0.0.1", "pk", isp)
	server := n.MustAddHost("server", "93.184.216.34", "us", n.AddAS(200, "Transit-US", "US"))
	n.SetRTT("pk", "us", 200*time.Millisecond)
	l := server.MustListen(80)
	defer closeListener(t, l)

	dial := func() (*Conn, *Conn) {
		conn, err := client.Dial(context.Background(), "93.184.216.34:80")
		if err != nil {
			t.Fatal(err)
		}
		peer, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		conn.Close()
		peer.Close()
		return conn.(*Conn), peer.(*Conn)
	}
	plain := testing.AllocsPerRun(200, func() { dial() })
	rec := streamRecorder{flows: make(chan Flow, 1)}
	isp.SetInterceptor(rec)

	conn, peer := dial()
	src := conn.LocalAddr().(Addr)
	for _, c := range []struct {
		what      string
		got, want net.Addr
	}{
		{"client's local address", src, Addr{IP: "10.0.0.1", Port: src.Port}},
		{"client's remote address", conn.RemoteAddr(), Addr{IP: "93.184.216.34", Port: 80}},
		{"server's local address", peer.LocalAddr(), Addr{IP: "93.184.216.34", Port: 80}},
		{"server's remote address", peer.RemoteAddr(), Addr{IP: "censor.17557", Port: 80}},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.what, c.got, c.want)
		}
	}
	want := Flow{Src: src, Dst: Addr{IP: "93.184.216.34", Port: 80}, SrcName: "client", DstName: "server", EgressAS: isp}
	if got := <-rec.flows; got != want {
		t.Errorf("the session's flow = %+v, want %+v", got, want)
	}
	if conn.Flow() != want || peer.Flow() != want {
		t.Errorf("the ends' flows = %+v and %+v, want %+v", conn.Flow(), peer.Flow(), want)
	}
	if got := testing.AllocsPerRun(200, func() { dial() }); got > plain+2 {
		t.Fatalf("an intercepted dial allocates %v times, a plain one %v: want at most two more", got, plain)
	}
}

// TestServe: a served listener hands every conn to its handler, with no
// goroutine waiting while it is idle: those queued before Serve, dials
// racing Serve (run with -race) and later ones, each exactly once. Closing
// it refuses later dials.
func TestServe(t *testing.T) {
	n := New(vtime.NewEventDriven(), WithSeed(42))
	client := n.MustAddHost("client", "10.0.0.1", "pk", n.AddAS(100, "ISP-A", "PK"))
	server := n.MustAddHost("server", "93.184.216.34", "us", n.AddAS(200, "Transit-US", "US"))
	l := server.MustListen(80)
	dial := func() {
		if _, err := client.Dial(context.Background(), "93.184.216.34:80"); err != nil {
			t.Error(err)
		}
	}
	const early, racing, late = 3, 64, 5
	for range early {
		dial()
	}
	served := make(chan net.Conn, early+racing+late)
	before := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for range racing {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dial()
		}()
	}
	l.Serve(func(c net.Conn) { served <- c })
	wg.Wait()
	for range late {
		dial()
	}
	for range early + racing + late {
		c := <-served
		if c.RemoteAddr().String() == "" {
			t.Fatal("a served conn has no peer")
		}
	}
	select {
	case c := <-served:
		t.Fatalf("a conn was served twice: %v", c.RemoteAddr())
	default:
	}
	// The handlers' goroutines return, and nothing else waits on l.
	deadline := time.Now().Add(5 * time.Second) //lint:allow-realtime goroutine exit is real-scheduler time
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) { //lint:allow-realtime see above
			t.Fatalf("%d goroutines still run beside the idle served listener", runtime.NumGoroutine()-before)
		}
		runtime.Gosched()
	}
	closeListener(t, l)
	if _, err := client.Dial(context.Background(), "93.184.216.34:80"); !errors.Is(err, ErrRefused) {
		t.Fatalf("dial to a closed served listener = %v, want refused", err)
	}
}
