package netem

import (
	"bufio"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"csaw/internal/leakcheck"
	"csaw/internal/vtime"
)

// closeSpy is a net.Conn that is not a *Conn: Splice can only Close it.
type closeSpy struct {
	net.Conn
	closed atomic.Bool
}

func (c *closeSpy) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

// TestSplice drives the one splice every middlebox and relay hop shares:
// left ↔ [a ~ Splice ~ b] ↔ right. Each case acts on the outer ends, then
// the test tears both down and requires Splice to return with nothing left
// running.
func TestSplice(t *testing.T) {
	readAll := func(t *testing.T, c net.Conn) (string, error) {
		t.Helper()
		b, err := io.ReadAll(c)
		return string(b), err
	}
	cases := []struct {
		name string
		// wrapB swaps the splice's b side for a non-netem conn.
		wrapB bool
		run   func(t *testing.T, left, right net.Conn, spy *closeSpy)
	}{
		{name: "peeked bytes are forwarded first, both directions flow", run: func(t *testing.T, left, right net.Conn, _ *closeSpy) {
			// "hello " was written and peeked before Splice started (below).
			if _, err := left.Write([]byte("world")); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len("hello world"))
			if _, err := io.ReadFull(right, got); err != nil || string(got) != "hello world" {
				t.Fatalf("right read %q, %v; want the peeked prefix first", got, err)
			}
			if _, err := right.Write([]byte("pong")); err != nil {
				t.Fatal(err)
			}
			back := make([]byte, 4)
			if _, err := io.ReadFull(left, back); err != nil || string(back) != "pong" {
				t.Fatalf("left read %q, %v", back, err)
			}
		}},
		{name: "reset on a's side arrives as reset on b's", run: func(t *testing.T, left, right net.Conn, _ *closeSpy) {
			left.(*Conn).Reset()
			if _, err := readAll(t, right); !IsReset(err) {
				t.Fatalf("right read err = %v, want reset", err)
			}
		}},
		{name: "reset on b's side arrives as reset on a's", run: func(t *testing.T, left, right net.Conn, _ *closeSpy) {
			right.(*Conn).Reset()
			if _, err := readAll(t, left); !IsReset(err) {
				t.Fatalf("left read err = %v, want reset", err)
			}
		}},
		{name: "EOF arrives as EOF after the queued bytes drain", run: func(t *testing.T, left, right net.Conn, _ *closeSpy) {
			if _, err := left.Write([]byte("last words")); err != nil {
				t.Fatal(err)
			}
			left.Close()
			if got, err := readAll(t, right); err != nil || got != "hello last words" {
				t.Fatalf("right read %q, %v; want everything, then a clean EOF", got, err)
			}
		}},
		{name: "a non-netem conn is closed, not reset", wrapB: true, run: func(t *testing.T, left, right net.Conn, spy *closeSpy) {
			left.(*Conn).Reset()
			if _, err := readAll(t, right); err != nil {
				t.Fatalf("right read err = %v, want a clean EOF (b cannot carry a reset)", err)
			}
			if !spy.closed.Load() {
				t.Fatal("Splice did not close the non-netem side")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			leakcheck.Check(t)
			n := New(vtime.New(testScale), WithSeed(1))
			lat := 5 * time.Millisecond
			left, a := connPair(n, lat, Addr{IP: "10.0.0.1", Port: 1}, Addr{IP: "10.0.0.2", Port: 2}, Flow{})
			b, right := connPair(n, lat, Addr{IP: "10.0.0.2", Port: 3}, Addr{IP: "10.0.0.3", Port: 4}, Flow{})

			// The handshake reader every caller hands over: it has already
			// pulled the first bytes off a.
			if _, err := left.Write([]byte("hello ")); err != nil {
				t.Fatal(err)
			}
			ar := bufio.NewReader(a)
			if _, err := ar.Peek(6); err != nil {
				t.Fatal(err)
			}

			var bSide net.Conn = b
			spy := &closeSpy{Conn: b}
			if tc.wrapB {
				bSide = spy
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				Splice(a, ar, bSide)
			}()
			tc.run(t, left, right, spy)
			left.shutdown()
			right.shutdown()
			select {
			case <-done:
			case <-time.After(5 * time.Second): //lint:allow-realtime hang guard on real scheduler time
				t.Fatal("Splice did not return after both outer ends closed")
			}
		})
	}
}
