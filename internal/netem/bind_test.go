package netem_test

import (
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"csaw/internal/netem"
	"csaw/internal/proxynet"
	"csaw/internal/vtime"
)

// bindWorld is a client, a proxy and a server whose accepted conns come out
// of peers, one per dial.
func bindWorld(t *testing.T, clock *vtime.Clock) (client *netem.Host, proxyAddr string, peers <-chan net.Conn) {
	t.Helper()
	n := netem.New(clock, netem.WithSeed(7))
	as := n.AddAS(1, "AS", "PK")
	client = n.MustAddHost("client", "10.0.0.1", "pk", as)
	proxyHost := n.MustAddHost("proxy", "20.2.0.1", "uk", as)
	server := n.MustAddHost("server", serverIP, "us", as)
	srv, err := proxynet.Serve(proxyHost, proxynet.Port, proxynet.IPLookup)
	if err != nil {
		t.Fatal(err)
	}
	l := server.MustListen(80)
	t.Cleanup(func() {
		if err := errors.Join(srv.Close(), l.Close()); err != nil {
			t.Error(err)
		}
	})
	ch := make(chan net.Conn)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			ch <- c
		}
	}()
	return client, srv.Addr(), ch
}

const serverIP = "93.184.216.34"

// TestTake: the Take helper hands a segment over by reference through a
// bare conn and through each wrapper that forwards Take, and leaves any
// other reader unread, reporting ErrCannotTake without allocating.
func TestTake(t *testing.T) {
	for _, w := range []struct {
		name string
		dial func(client *netem.Host, proxyAddr string) netem.DialFunc
	}{
		{"Conn", func(c *netem.Host, _ string) netem.DialFunc { return c.Dial }},
		{"slotConn", func(c *netem.Host, _ string) netem.DialFunc {
			return netem.LimitDial(c.Dial, make(chan struct{}, 1))
		}},
		{"tunnelConn", func(c *netem.Host, proxyAddr string) netem.DialFunc {
			return proxynet.Via(c.Dial, proxyAddr)
		}},
	} {
		t.Run(w.name, func(t *testing.T) {
			client, proxyAddr, peers := bindWorld(t, vtime.NewEventDriven())
			conn, err := w.dial(client, proxyAddr)(context.Background(), serverIP+":80")
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			peer := <-peers
			defer peer.Close()

			seg := []byte("one segment")
			if _, err := netem.WriteOwned(peer, seg); err != nil {
				t.Fatal(err)
			}
			got, err := netem.Take(conn, 64)
			if err != nil || string(got) != string(seg) || &got[0] != &seg[0] {
				t.Fatalf("Take = %q, %v; want the written segment itself", got, err)
			}

			if _, err := netem.WriteOwned(peer, seg); err != nil {
				t.Fatal(err)
			}
			var plain io.Reader = struct{ io.Reader }{conn}
			if got, err := netem.Take(plain, 64); got != nil || err != netem.ErrCannotTake {
				t.Fatalf("Take through a reader without Take = %q, %v; want ErrCannotTake", got, err)
			}
			refuse := func() {
				if _, err := netem.Take(plain, 64); err != netem.ErrCannotTake {
					t.Fatal(err)
				}
			}
			if a := testing.AllocsPerRun(100, refuse); a != 0 {
				t.Errorf("ErrCannotTake cost %v allocations", a)
			}
			buf := make([]byte, 64)
			if n, err := conn.Read(buf); err != nil || string(buf[:n]) != string(seg) {
				t.Fatalf("Read after a refused Take = %q, %v; want the segment, unread", buf[:n], err)
			}
		})
	}
}

// TestBind: a bound conn ends with its context — expired when the context
// ran out of time, closed when it was cancelled, untouched once released —
// whether the conn is bare or wrapped, on either clock.
func TestBind(t *testing.T) {
	clocks := []struct {
		name string
		new  func() *vtime.Clock
	}{
		{"scaled", func() *vtime.Clock { return vtime.New(500) }},
		{"event", vtime.NewEventDriven},
	}
	wrappers := []struct {
		name string
		dial func(client *netem.Host, proxyAddr string) netem.DialFunc
	}{
		{"Conn", func(c *netem.Host, _ string) netem.DialFunc { return c.Dial }},
		{"slotConn", func(c *netem.Host, _ string) netem.DialFunc {
			return netem.LimitDial(c.Dial, make(chan struct{}, 4))
		}},
		{"tunnelConn", func(c *netem.Host, proxyAddr string) netem.DialFunc {
			return proxynet.Via(c.Dial, proxyAddr)
		}},
	}
	for _, ck := range clocks {
		for _, w := range wrappers {
			t.Run(ck.name+"/"+w.name, func(t *testing.T) {
				clock := ck.new()
				client, proxyAddr, peers := bindWorld(t, clock)
				dial := w.dial(client, proxyAddr)
				// open dials a fresh conn and returns it with its server end.
				open := func(t *testing.T) (conn, peer net.Conn) {
					t.Helper()
					conn, err := dial(context.Background(), serverIP+":80")
					if err != nil {
						t.Fatal(err)
					}
					peer = <-peers
					t.Cleanup(func() {
						conn.Close()
						peer.Close()
					})
					return conn, peer
				}
				// passDeadline returns once ctx's deadline has passed: nothing
				// moves an event clock but the test.
				passDeadline := func(ctx context.Context) {
					if clock.EventDriven() {
						clock.Advance(time.Minute)
					}
					<-ctx.Done()
				}

				t.Run("deadline expires a blocked read", func(t *testing.T) {
					conn, peer := open(t)
					ctx, cancel := clock.WithTimeout(context.Background(), 5*time.Second)
					defer cancel()
					defer netem.Bind(ctx, conn).Release()
					errc := make(chan error, 1)
					go func() {
						_, err := conn.Read(make([]byte, 1))
						errc <- err
					}()
					passDeadline(ctx)
					if err := <-errc; !netem.IsTimeout(err) {
						t.Fatalf("read on an expired conn = %v, want a timeout", err)
					}
					// Expiry is this end's alone: the peer still writes, and
					// sees the conn end only when it is closed.
					if _, err := peer.Write([]byte("x")); err != nil {
						t.Fatalf("peer write after expiry: %v", err)
					}
					conn.Close()
					if rest, err := io.ReadAll(peer); err != nil || len(rest) != 0 {
						t.Fatalf("peer read after close = %q, %v; want EOF", rest, err)
					}
				})

				t.Run("deadline expires a back-pressured write", func(t *testing.T) {
					conn, _ := open(t) // the peer never reads
					ctx, cancel := clock.WithTimeout(context.Background(), 5*time.Second)
					defer cancel()
					defer netem.Bind(ctx, conn).Release()
					errc := make(chan error, 1)
					go func() {
						chunk := make([]byte, 64<<10)
						for {
							if _, err := conn.Write(chunk); err != nil {
								errc <- err
								return
							}
						}
					}()
					passDeadline(ctx)
					if err := <-errc; !netem.IsTimeout(err) {
						t.Fatalf("write on an expired conn = %v, want a timeout", err)
					}
				})

				t.Run("cancellation closes", func(t *testing.T) {
					conn, peer := open(t)
					ctx, cancel := context.WithCancel(context.Background())
					defer netem.Bind(ctx, conn).Release()
					if _, err := conn.Write([]byte("bye")); err != nil {
						t.Fatal(err)
					}
					cancel()
					got, err := io.ReadAll(peer)
					if err != nil || string(got) != "bye" {
						t.Fatalf("peer read %q, %v; want the queued bytes, then EOF", got, err)
					}
				})

				t.Run("released before the deadline", func(t *testing.T) {
					conn, peer := open(t)
					ctx, cancel := clock.WithTimeout(context.Background(), 5*time.Second)
					defer cancel()
					if !netem.Bind(ctx, conn).Release() {
						t.Fatal("release before the deadline reported false")
					}
					passDeadline(ctx)
					go func() {
						buf := make([]byte, 4)
						if _, err := io.ReadFull(peer, buf); err == nil {
							_, _ = peer.Write(buf)
						}
					}()
					if _, err := conn.Write([]byte("ping")); err != nil {
						t.Fatalf("write on a released conn: %v", err)
					}
					buf := make([]byte, 4)
					if _, err := io.ReadFull(conn, buf); err != nil || string(buf) != "ping" {
						t.Fatalf("echo on a released conn = %q, %v", buf, err)
					}
				})

				t.Run("released after the deadline", func(t *testing.T) {
					conn, _ := open(t)
					ctx, cancel := clock.WithTimeout(context.Background(), 5*time.Second)
					defer cancel()
					b := netem.Bind(ctx, conn)
					passDeadline(ctx)
					// The read fails once the conn has expired, so the
					// binding has acted by the time it is released.
					if _, err := conn.Read(make([]byte, 1)); !netem.IsTimeout(err) {
						t.Fatalf("read on an expired conn = %v, want a timeout", err)
					}
					if b.Release() {
						t.Fatal("release after the deadline reported true")
					}
				})

				if clock.EventDriven() {
					bindEventRows(t, clock, open)
				}
			})
		}
	}
}

// bindEventRows are TestBind's rows for a context the event clock armed,
// which Bind links into rather than watches: no goroutine, at most one
// allocation, the conn ended on the instant the context ends, and nothing
// left on the context's list by a released binding.
func bindEventRows(t *testing.T, clock *vtime.Clock, open func(*testing.T) (net.Conn, net.Conn)) {
	// bound is a fresh exchange context: the clock's own, or a value
	// context over it (a trace lane's shape).
	bound := []struct {
		name string
		ctx  func(ctx context.Context) context.Context
	}{
		{"eventCtx", func(ctx context.Context) context.Context { return ctx }},
		{"value over eventCtx", func(ctx context.Context) context.Context {
			return context.WithValue(ctx, bindTestKey{}, 1)
		}},
	}
	for _, bc := range bound {
		t.Run(bc.name, func(t *testing.T) {
			t.Run("starts no goroutine", func(t *testing.T) {
				conn, _ := open(t)
				ctx, cancel := clock.WithTimeout(context.Background(), time.Hour)
				defer cancel()
				ctx = bc.ctx(ctx)
				const n = 64
				bs := make([]netem.Binding, 0, n)
				before := runtime.NumGoroutine()
				for range n {
					bs = append(bs, netem.Bind(ctx, conn))
				}
				// A watcher per Bind would add n; the margin is for the
				// world's own relay goroutines, which may still be starting.
				if after := runtime.NumGoroutine(); after-before >= n/2 {
					t.Fatalf("%d Binds started %d goroutines", n, after-before)
				}
				for _, b := range bs {
					if !b.Release() {
						t.Fatal("release before the deadline reported false")
					}
				}
			})

			t.Run("allocates at most once", func(t *testing.T) {
				conn, _ := open(t)
				ctx, cancel := clock.WithTimeout(context.Background(), time.Hour)
				defer cancel()
				ctx = bc.ctx(ctx)
				if n := testing.AllocsPerRun(100, func() { netem.Bind(ctx, conn).Release() }); n > 1 {
					t.Fatalf("Bind+Release allocates %v times, want <= 1", n)
				}
			})

			t.Run("expires at the deadline", func(t *testing.T) {
				conn, peer := open(t)
				ctx, cancel := clock.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				defer netem.Bind(bc.ctx(ctx), conn).Release()
				buf := make([]byte, 1)
				clock.Advance(5*time.Second - time.Nanosecond)
				if _, err := peer.Write([]byte("x")); err != nil {
					t.Fatal(err)
				}
				if _, err := conn.Read(buf); err != nil {
					t.Fatalf("read a nanosecond before the deadline: %v", err)
				}
				clock.Advance(time.Nanosecond)
				if _, err := conn.Read(buf); !netem.IsTimeout(err) {
					t.Fatalf("read at the deadline = %v, want a timeout", err)
				}
			})

			t.Run("cancel closes", func(t *testing.T) {
				conn, peer := open(t)
				ctx, cancel := clock.WithTimeout(context.Background(), time.Hour)
				b := netem.Bind(bc.ctx(ctx), conn)
				if _, err := conn.Write([]byte("bye")); err != nil {
					t.Fatal(err)
				}
				cancel()
				got, err := io.ReadAll(peer)
				if err != nil || string(got) != "bye" {
					t.Fatalf("peer read %q, %v; want the queued bytes, then EOF", got, err)
				}
				if b.Release() {
					t.Fatal("release after the cancel reported true")
				}
			})

			t.Run("ended context acts at once", func(t *testing.T) {
				for _, end := range []struct {
					name    string
					end     func(cancel context.CancelFunc)
					timeout bool
				}{
					{"deadline", func(context.CancelFunc) { clock.Advance(time.Second) }, true},
					{"cancel", func(cancel context.CancelFunc) { cancel() }, false},
				} {
					conn, _ := open(t)
					ctx, cancel := clock.WithTimeout(context.Background(), time.Second)
					end.end(cancel)
					b := netem.Bind(bc.ctx(ctx), conn)
					_, err := conn.Write([]byte("x"))
					if end.timeout && !netem.IsTimeout(err) || !end.timeout && err == nil {
						t.Fatalf("%s: write after Bind on an ended context = %v", end.name, err)
					}
					if b.Release() {
						t.Fatalf("%s: release on an ended context reported true", end.name)
					}
					cancel()
				}
			})

			t.Run("released bindings leave the list", func(t *testing.T) {
				conn, peer := open(t)
				ctx, cancel := clock.WithTimeout(context.Background(), time.Hour)
				ctx = bc.ctx(ctx)
				for range 10000 {
					if !netem.Bind(ctx, conn).Release() {
						t.Fatal("release before the deadline reported false")
					}
				}
				// Had any of them stayed listed, the cancel would close conn.
				cancel()
				if _, err := conn.Write([]byte("ok")); err != nil {
					t.Fatalf("write after the context ended: %v", err)
				}
				buf := make([]byte, 2)
				if _, err := io.ReadFull(peer, buf); err != nil || string(buf) != "ok" {
					t.Fatalf("peer read %q, %v", buf, err)
				}
			})
		})
	}
}

type bindTestKey struct{}
