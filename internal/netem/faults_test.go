package netem

import (
	"errors"
	"io"
	"testing"
	"time"
)

// flapWorld is testWorld with a FaultInjector installed on the client AS.
func flapWorld(t *testing.T) (*Network, *Host, *Host, *FaultInjector) {
	t.Helper()
	n, client, server := testWorld(t)
	fi := NewFaultInjector(nil)
	client.ASes()[0].SetInterceptor(fi)
	return n, client, server, fi
}

func serveEcho(t *testing.T, server *Host) *Listener {
	t.Helper()
	l := server.MustListen(80)
	t.Cleanup(func() { closeListener(t, l) })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				_, _ = io.Copy(c, c)
			}()
		}
	}()
	return l
}

func TestFaultInjectorLinkFlap(t *testing.T) {
	_, client, server, fi := flapWorld(t)
	serveEcho(t, server)
	fi.SetVerdict(VerdictReset) // fast failure so the test needn't wait out timeouts

	dial := func() error {
		conn, err := client.DialTimeout("93.184.216.34:80", 5*time.Second)
		if err == nil {
			conn.Close()
		}
		return err
	}
	if err := dial(); err != nil {
		t.Fatalf("dial with link up: %v", err)
	}
	fi.SetDown(true)
	if err := dial(); err == nil {
		t.Fatal("dial succeeded across a downed link")
	}
	fi.SetDown(false)
	if err := dial(); err != nil {
		t.Fatalf("dial after the link came back: %v", err)
	}
}

func TestFaultInjectorFailNextAndTarget(t *testing.T) {
	_, client, server, fi := flapWorld(t)
	serveEcho(t, server)
	fi.SetVerdict(VerdictReset)

	fi.FailNext(2)
	for i := 0; i < 2; i++ {
		if conn, err := client.DialTimeout("93.184.216.34:80", 5*time.Second); err == nil {
			conn.Close()
			t.Fatalf("dial %d succeeded inside the FailNext budget", i)
		}
	}
	if conn, err := client.DialTimeout("93.184.216.34:80", 5*time.Second); err != nil {
		t.Fatalf("dial after budget spent: %v", err)
	} else {
		conn.Close()
	}

	// Targeted faults leave other destinations alone.
	fi.Target("203.0.113.9") // not the server
	fi.SetDown(true)
	if conn, err := client.DialTimeout("93.184.216.34:80", 5*time.Second); err != nil {
		t.Fatalf("untargeted destination faulted: %v", err)
	} else {
		conn.Close()
	}
	fi.Target("93.184.216.34")
	if conn, err := client.DialTimeout("93.184.216.34:80", 5*time.Second); err == nil {
		conn.Close()
		t.Fatal("targeted destination reachable across a downed link")
	}
}

func TestFaultInjectorDropBlackholes(t *testing.T) {
	// VerdictDrop must look like a dead link: the dial blocks until its
	// (virtual) timeout rather than failing fast. On the event clock nothing
	// but the dial's own park moves time, so it must end at exactly 3s.
	for _, tc := range []struct {
		name  string
		world func(*testing.T) (*Network, *Host, *Host)
	}{
		{"scaled", func(t *testing.T) (*Network, *Host, *Host) { return testWorld(t) }},
		{"event", eventWorld},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, client, server := tc.world(t)
			fi := NewFaultInjector(nil)
			client.ASes()[0].SetInterceptor(fi)
			serveEcho(t, server)
			fi.SetDown(true) // default verdict is Drop

			start := n.Clock().Now()
			errc := make(chan error, 1)
			go func() {
				_, err := client.DialTimeout("93.184.216.34:80", 3*time.Second)
				errc <- err
			}()
			var err error
			select {
			case err = <-errc:
			case <-time.After(10 * time.Second): //lint:allow-realtime watchdog: a blackholed dial that never parks on the clock hangs
				t.Fatal("blackholed dial never returned")
			}
			if !errors.Is(err, ErrTimeout) {
				t.Fatalf("blackholed dial = %v, want ErrTimeout", err)
			}
			waited := n.Clock().Since(start)
			if tc.name == "event" && waited != 3*time.Second {
				t.Fatalf("blackholed dial failed after %v of event time, want exactly 3s", waited)
			}
			if waited < 2*time.Second {
				t.Fatalf("blackholed dial failed after only %v, want a timeout", waited)
			}
		})
	}
}
