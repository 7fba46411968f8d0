package netem

import (
	"context"
	"errors"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"csaw/internal/vtime"
)

// Addr is a net.Addr for emulated endpoints.
type Addr struct {
	IP   string
	Port int
}

// Network implements net.Addr.
func (a Addr) Network() string { return "netem" }

// String implements net.Addr: "ip:port", as fmt.Sprintf("%s:%d") would
// print it, with one allocation.
func (a Addr) String() string {
	var buf [64]byte
	b := append(append(buf[:0], a.IP...), ':')
	return string(strconv.AppendInt(b, int64(a.Port), 10))
}

// segment is a chunk of bytes in flight, deliverable at a real instant.
type segment struct {
	data []byte
	due  time.Time // real time at which the receiver may read it
}

// pipe is one direction of an emulated connection: a FIFO of segments with
// propagation latency, serialization (bandwidth) delay, and a byte cap
// providing backpressure.
//
// A pipe knows no deadline: each end can only be told, once and for good,
// that the exchange it served ran out of time (Conn.Expire, armed by Bind).
type pipe struct {
	net   *Network
	clock *vtime.Clock
	lat   time.Duration // virtual one-way propagation latency

	mu      sync.Mutex
	cond    sync.Cond // L is &mu
	segs    []segment // queued segments, oldest first: a window into back
	back    []segment // segs' backing array from its start (length 0)
	inline  [2]segment
	unread  int
	cap     int
	lastDue time.Time // real due time of last queued segment
	closed  bool      // EOF once drained
	reset   bool      // error immediately
	rexp    bool      // reading end expired: reads fail with ErrTimeout
	wexp    bool      // writing end expired: writes fail with ErrTimeout
}

const defaultPipeCap = 1 << 18 // 256 KiB in flight

func (p *pipe) init(n *Network, lat time.Duration) {
	p.net, p.clock, p.lat, p.cap = n, n.clock, lat, defaultPipeCap
	p.cond.L = &p.mu
	p.back = p.inline[:0]
	p.segs = p.back
}

// waitUntil blocks on the pipe's cond until shortly before the real instant
// t (or a state change); callers re-check and spin the precise tail. Caller
// must hold p.mu. Only a segment still in flight is waited for this way,
// so it never runs under a discrete-event clock.
func (p *pipe) waitUntil(t time.Time) {
	d := time.Until(t) - vtime.CoarseSleep
	if d < 0 {
		d = 0
	}
	// The timer must wake through lockedBroadcast: a bare cond.Broadcast
	// can fire in the gap between this caller's predicate check and its
	// park inside Wait, and a wakeup delivered into that gap is lost —
	// taking p.mu first makes the timer goroutine block until the waiter
	// is parked and guaranteed to hear it.
	stop := time.AfterFunc(d, p.lockedBroadcast)
	p.cond.Wait()
	stop.Stop()
}

// write queues b as one segment. With owned false it copies b first — the
// net.Conn contract, the caller may reuse its buffer; with owned true the
// segment aliases b, which nobody may modify from here on (see
// Conn.WriteOwned). Either way it is one segment: one serialization slot,
// len(b) bytes against the cap.
func (p *pipe) write(b []byte, owned bool) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.reset {
			return 0, ErrReset
		}
		if p.closed {
			return 0, ErrClosed
		}
		if p.wexp {
			return 0, ErrTimeout
		}
		if p.unread < p.cap {
			break
		}
		p.cond.Wait()
	}
	// Compute delivery time: first byte pays propagation once; subsequent
	// segments are serialized behind the previous segment at link bandwidth.
	xfer := time.Duration(float64(len(b)) / p.net.bandwidth * float64(time.Second))
	due := time.Now().Add(p.clock.Real(p.lat))
	if p.lastDue.After(due) {
		due = p.lastDue
	}
	due = due.Add(p.clock.Real(xfer))
	p.lastDue = due

	data := b
	if !owned {
		data = make([]byte, len(b))
		copy(data, b)
	}
	p.push(segment{data: data, due: due})
	p.unread += len(data)
	p.cond.Broadcast()
	return len(b), nil
}

// read copies from the head segment into b: at most one segment per call.
func (p *pipe) read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, err := p.head()
	if err != nil {
		return 0, err
	}
	n := copy(b, s.data)
	p.consume(s, n)
	p.cond.Broadcast() // wake writers blocked on backpressure
	return n, nil
}

// take removes up to max bytes of the head segment and returns them by
// reference: the bytes now belong to the caller, who must not modify them
// (a segment may alias memory its writer still reads, see Conn.WriteOwned).
func (p *pipe) take(max int) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, err := p.head()
	if err != nil {
		return nil, err
	}
	chunk := s.data[:min(len(s.data), max)]
	p.consume(s, len(chunk))
	p.cond.Broadcast()
	return chunk, nil
}

// push queues s. A window that has reached the end of its backing array
// slides back to the array's start first, so the array grows only when it
// is full. Slots left behind are cleared: no array may pin a segment's
// bytes once the queue has moved them. Caller must hold p.mu.
func (p *pipe) push(s segment) {
	if n := len(p.segs); n == cap(p.segs) {
		old := p.segs
		if n < cap(p.back) {
			p.segs = p.back[:n]
			copy(p.segs, old)
			clear(p.back[n:cap(p.back)])
		} else {
			p.segs = append(old, s)
			p.back = p.segs[:0]
			clear(old)
			return
		}
	}
	p.segs = append(p.segs, s)
}

// consume drops the first n bytes of the head segment s, and the segment
// once it is empty; a drained queue rewinds to the start of its array.
// Caller must hold p.mu.
func (p *pipe) consume(s *segment, n int) {
	s.data = s.data[n:]
	p.unread -= n
	if len(s.data) == 0 {
		*s = segment{} // the queue's backing array must not pin the bytes
		p.segs = p.segs[1:]
		if len(p.segs) == 0 {
			p.segs = p.back
		}
	}
}

// head blocks until the first queued segment is deliverable and returns
// it; the error is ErrReset, ErrTimeout (the reading end expired), or
// io.EOF once a closed pipe has drained. Caller must hold p.mu.
func (p *pipe) head() (*segment, error) {
	for {
		if p.reset {
			return nil, ErrReset
		}
		if p.rexp {
			return nil, ErrTimeout
		}
		if len(p.segs) > 0 {
			s := &p.segs[0]
			now := time.Now()
			// Under a discrete-event clock Real() is 0, so due never lands
			// in the future and this in-flight branch is unreachable: data
			// is deliverable the moment it is written.
			if now.Before(s.due) {
				// Data in flight: wait for delivery. Near-due segments are
				// spin-waited for sub-millisecond delivery accuracy (see
				// vtime.CoarseSleep).
				if due := s.due; due.Sub(now) <= vtime.CoarseSleep {
					p.mu.Unlock()
					vtime.SpinUntil(due)
					p.mu.Lock()
					continue
				}
				p.waitUntil(s.due)
				continue
			}
			return s, nil
		}
		if p.closed {
			return nil, io.EOF
		}
		p.cond.Wait()
	}
}

// close marks the pipe for EOF after the queued data drains.
func (p *pipe) close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// doReset tears the pipe down: queued data is lost and both ends error.
func (p *pipe) doReset() {
	p.mu.Lock()
	p.reset = true
	clear(p.segs)
	p.segs = p.back
	p.unread = 0
	p.cond.Broadcast()
	p.mu.Unlock()
}

// lockedBroadcast is waitUntil's timer wake; see there for why it must
// take p.mu.
func (p *pipe) lockedBroadcast() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cond.Broadcast()
}

// expire fails the reading (*flag is p.rexp) or writing (p.wexp) end's
// pending and later calls with ErrTimeout. The other end is untouched.
func (p *pipe) expire(flag *bool) {
	p.mu.Lock()
	*flag = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Conn is an emulated, full-duplex, latency- and bandwidth-modelled
// connection implementing net.Conn. It carries no deadlines: an exchange is
// bounded by its context, which Bind ties the connection to.
type Conn struct {
	rx, tx *pipe
	local  Addr
	remote Addr
	flow   Flow
	once   sync.Once
}

// connPair builds two connected Conns. lat is the virtual one-way latency of
// the segment between them.
func connPair(n *Network, lat time.Duration, a, b Addr, flow Flow) (*Conn, *Conn) {
	// Both directions and both ends live and die together, so they are one
	// allocation.
	l := new(struct {
		ab, ba pipe
		a, b   Conn
	})
	l.ab.init(n, lat)
	l.ba.init(n, lat)
	l.a = Conn{rx: &l.ba, tx: &l.ab, local: a, remote: b, flow: flow}
	l.b = Conn{rx: &l.ab, tx: &l.ba, local: b, remote: a, flow: flow}
	return &l.a, &l.b
}

// Read implements net.Conn.
func (c *Conn) Read(b []byte) (int, error) {
	n, err := c.rx.read(b)
	if err != nil && err != io.EOF {
		err = &OpError{Op: "read", Addr: c.remote.String(), Err: err}
	}
	return n, err
}

// Write implements net.Conn: b is copied, the caller may reuse it.
func (c *Conn) Write(b []byte) (int, error) { return c.write(b, false) }

// WriteOwned is Write without the copy: the connection keeps b itself, and
// WriteTo may pass it on to further connections, so from this call on
// nobody — caller or anyone else holding b — may modify its bytes (reading
// them stays fine: an origin sends the same rendered page to every client).
// It is the only way a connection comes to alias caller memory; the
// ownedwrite analyzer flags writes to b after the call.
func (c *Conn) WriteOwned(b []byte) (int, error) { return c.write(b, true) }

// WriteOwned writes b to w and gives it up: a w with a WriteOwned method
// keeps b under that method's contract, any other w gets a plain Write.
func WriteOwned(w io.Writer, b []byte) (int, error) {
	if ow, ok := w.(interface{ WriteOwned([]byte) (int, error) }); ok {
		return ow.WriteOwned(b)
	}
	return w.Write(b)
}

func (c *Conn) write(b []byte, owned bool) (int, error) {
	n, err := c.tx.write(b, owned)
	if err != nil {
		err = &OpError{Op: "write", Addr: c.remote.String(), Err: err}
	}
	return n, err
}

// Take is Read without the copy: it waits for data as Read does, then
// removes up to max bytes of the head segment and returns them by
// reference. The bytes are the caller's to read and to pass on (WriteOwned),
// never to modify — a segment may alias memory its writer still reads.
func (c *Conn) Take(max int) ([]byte, error) {
	b, err := c.rx.take(max)
	if err != nil && err != io.EOF {
		err = &OpError{Op: "read", Addr: c.remote.String(), Err: err}
	}
	return b, err
}

// Take is Conn.Take for any reader, shaped like WriteOwned: an r with a Take
// method — a *Conn, or a wrapper that forwards Take to one — hands up to max
// bytes over under that method's contract; any other r is left unread and
// reports ErrCannotTake.
func Take(r io.Reader, max int) ([]byte, error) {
	if t, ok := r.(interface{ Take(int) ([]byte, error) }); ok {
		return t.Take(max)
	}
	return nil, ErrCannotTake
}

// copyChunk is io.Copy's buffer size. WriteTo cuts segments at it so a
// splice makes the destination writes — hence serialization slots — that
// io.Copy's read-then-write loop made.
const copyChunk = 32 << 10

// WriteTo implements io.WriterTo, which io.Copy and bufio.Reader.WriteTo
// prefer: it moves received segments to w until EOF (a nil error) with no
// staging buffer, and when w is a *Conn (or forwards WriteOwned to one)
// with no copy either — the segment's bytes change pipes by reference.
func (c *Conn) WriteTo(w io.Writer) (int64, error) {
	var written int64
	for {
		chunk, err := c.Take(copyChunk)
		if err == io.EOF {
			return written, nil
		}
		if err != nil {
			return written, err
		}
		if len(chunk) == 0 {
			continue
		}
		n, err := WriteOwned(w, chunk)
		written += int64(n)
		if err != nil {
			return written, err
		}
		if n != len(chunk) {
			return written, io.ErrShortWrite
		}
	}
}

// Close implements net.Conn: the peer sees EOF after draining queued data.
func (c *Conn) Close() error {
	c.shutdown()
	return nil
}

// shutdown releases both directions. Closing an in-process conn cannot
// fail — Close's error exists only to satisfy net.Conn — so internal
// teardown paths use this error-free form instead of discarding Close's
// result (see the errdrop analyzer).
func (c *Conn) shutdown() {
	c.once.Do(func() {
		c.tx.close()
		c.rx.close()
	})
}

// Reset tears the connection down abruptly: both ends observe ErrReset and
// queued data is discarded. This is the censor's (or server's) RST.
func (c *Conn) Reset() {
	c.tx.doReset()
	c.rx.doReset()
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

// Flow returns the connection's flow metadata (source, destination, and the
// AS the connection egressed through), visible to servers the way a real
// server sees the client address.
func (c *Conn) Flow() Flow { return c.flow }

// Expire ends this end of the connection the way a timeout does: pending
// and later reads and writes fail with ErrTimeout, for good. The peer end
// is untouched. It is what Bind does when the exchange's deadline passes.
func (c *Conn) Expire() {
	c.rx.expire(&c.rx.rexp)
	c.tx.expire(&c.tx.wexp)
}

// Expire expires conn when it (or what it wraps) is a *Conn and closes it
// otherwise: a wrapper forwards Expire the way it forwards WriteOwned.
func Expire(conn net.Conn) {
	if e, ok := conn.(interface{ Expire() }); ok {
		e.Expire()
		return
	}
	conn.Close()
}

// Bind gives conn the one way it ends early: with ctx, the context of the
// exchange it serves. When ctx runs out of time the conn expires, so the
// blocked call reports a timeout (IsTimeout) exactly as the exchange did;
// when ctx is cancelled the conn closes. The returned Binding's Release
// disarms it — a handshake that is over hands the conn on unbound.
//
// Under an event-clock context (vtime.Binding.Bind) the conn goes on that
// context's list: one allocation, no goroutine, and the conn ends on the
// goroutine that ends the context. Under any other context Bind is a
// context.AfterFunc.
func Bind(ctx context.Context, conn net.Conn) Binding {
	b := &boundConn{conn: conn}
	if b.Bind(ctx, b) {
		return Binding{bound: b}
	}
	return Binding{stop: context.AfterFunc(ctx, func() { endConn(conn, ctx.Err()) })}
}

// Binding ties a conn to the context of its exchange (see Bind).
type Binding struct {
	bound *boundConn  // under an event-clock context
	stop  func() bool // under any other
}

// Release disarms the binding and reports whether it did so before the
// context ended.
func (b Binding) Release() bool {
	if b.bound != nil {
		return b.bound.Release()
	}
	return b.stop()
}

// boundConn is a conn on an event-clock context's list.
type boundConn struct {
	vtime.Binding
	conn net.Conn
}

func (b *boundConn) End(err error) { endConn(b.conn, err) }

// endConn ends conn as its context ended, with err: expired on a deadline,
// closed on a cancel.
func endConn(conn net.Conn, err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		Expire(conn)
	} else {
		conn.Close()
	}
}

// errNoDeadline is what the net.Conn deadline setters return.
var errNoDeadline = errors.New("netem: connections take no deadlines; bound the exchange's context and Bind it")

// SetDeadline implements net.Conn and always fails: see Bind.
func (c *Conn) SetDeadline(time.Time) error { return errNoDeadline }

// SetReadDeadline implements net.Conn and always fails: see Bind.
func (c *Conn) SetReadDeadline(time.Time) error { return errNoDeadline }

// SetWriteDeadline implements net.Conn and always fails: see Bind.
func (c *Conn) SetWriteDeadline(time.Time) error { return errNoDeadline }
