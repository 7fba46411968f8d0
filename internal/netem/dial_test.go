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

// streamRecorder takes every stream and reports the address its server
// side dials from.
type streamRecorder struct {
	PassVerdicts
	from chan string
}

func (streamRecorder) WantStream(Flow) bool { return true }
func (r streamRecorder) HandleStream(_ Flow, s *Session) {
	select {
	case r.from <- s.Server().LocalAddr().String():
	default:
	}
}

// TestInterceptedDial: the censor's end of an intercepted stream is
// "censor.<ASN>", as the server sees it too, and naming it costs an
// intercepted dial no allocation.
func TestInterceptedDial(t *testing.T) {
	n := New(vtime.NewEventDriven(), WithSeed(42))
	client := n.MustAddHost("client", "10.0.0.1", "pk", n.AddAS(17557, "ISP-A", "PK"))
	server := n.MustAddHost("server", "93.184.216.34", "us", n.AddAS(200, "Transit-US", "US"))
	n.SetRTT("pk", "us", 200*time.Millisecond)
	l := server.MustListen(80)
	defer closeListener(t, l)
	rec := streamRecorder{from: make(chan string, 1)}
	n.AS(17557).SetInterceptor(rec)

	dial := func() {
		conn, err := client.Dial(context.Background(), "93.184.216.34:80")
		if err != nil {
			t.Fatal(err)
		}
		peer, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		if got := peer.RemoteAddr().String(); got != "censor.17557:80" {
			t.Fatalf("server sees the stream from %q, want censor.17557:80", got)
		}
		conn.Close()
		peer.Close()
	}
	dial()
	if got := <-rec.from; got != "censor.17557:80" {
		t.Fatalf("censor's server-side address = %q, want censor.17557:80", got)
	}
	// Naming the censor's end on every dial cost one allocation more.
	if got := testing.AllocsPerRun(200, dial); got > 7 {
		t.Fatalf("an intercepted dial allocates %v times, want <= 7", got)
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
