package netem

import (
	"context"
	"errors"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
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
	due  instant // when the receiver may read it
}

// instant is a real instant as an offset on the process's monotonic clock:
// a due time in one word instead of a time.Time's three.
type instant int64

// epoch is the origin instants count from.
var epoch = time.Now()

// realNow is the current instant.
func realNow() instant { return instant(time.Since(epoch)) }

// time returns t as a time.Time.
func (t instant) time() time.Time { return epoch.Add(time.Duration(t)) }

// queue is a FIFO of segments.
type queue struct {
	segs   []segment // queued segments, oldest first: a window into back
	back   []segment // segs' backing array from its start (length 0)
	inline [2]segment
	unread int // bytes queued
}

func (q *queue) init() {
	q.back = q.inline[:0]
	q.segs = q.back
}

// push queues s. A window that has reached the end of its backing array
// slides back to the array's start first, so the array grows only when it
// is full. Slots left behind are cleared: no array may pin a segment's
// bytes once the queue has moved them.
func (q *queue) push(s segment) {
	q.unread += len(s.data)
	if n := len(q.segs); n == cap(q.segs) {
		old := q.segs
		if n < cap(q.back) {
			q.segs = q.back[:n]
			copy(q.segs, old)
			clear(q.back[n:cap(q.back)])
		} else {
			q.segs = append(old, s)
			q.back = q.segs[:0]
			clear(old)
			return
		}
	}
	q.segs = append(q.segs, s)
}

// consume drops the first n bytes of the head segment s, and the segment
// once it is empty; a drained queue rewinds to the start of its array.
func (q *queue) consume(s *segment, n int) {
	s.data = s.data[n:]
	q.unread -= n
	if len(s.data) == 0 {
		*s = segment{} // the queue's backing array must not pin the bytes
		q.segs = q.segs[1:]
		if len(q.segs) == 0 {
			q.segs = q.back
		}
	}
}

// drop empties the queue.
func (q *queue) drop() {
	clear(q.segs)
	q.segs = q.back
	q.unread = 0
}

// pipe is one direction of an emulated connection: a FIFO of segments with
// propagation latency, serialization (bandwidth) delay, and a byte cap
// providing backpressure.
//
// A pipe knows no deadline: each end can only be told, once and for good,
// that the exchange it served ran out of time (Conn.Expire, armed by Bind).
type pipe struct {
	net *Network
	lat time.Duration // virtual one-way latency into the reader (past the middle, if any)
	mid *middle       // where an interceptor sits on this direction; nil if none

	mu      sync.Mutex
	cond    sync.Cond // L is &mu
	queue             // what the reader reads
	lastDue instant   // due time of the last segment queued
	closed  bool      // EOF once drained
	reset   bool      // error immediately
	rexp    bool      // reading end expired: reads fail with ErrTimeout
	wexp    bool      // writing end expired: writes fail with ErrTimeout
}

// middle is an interceptor's place on one direction of an intercepted pair
// (see Session): the hop from the writer to the middlebox, and on the
// client's direction the gate the interceptor holds its bytes at. It is
// guarded by the mu of the pipe it belongs to.
type middle struct {
	lat     time.Duration // virtual one-way latency from the writer to the middlebox
	lastDue instant       // when the last segment written reaches the middlebox
	// held queues what the client wrote while the gate is shut; the
	// server reads only what the interceptor passes. nil on the server's
	// direction.
	held    *queue
	holding bool // the gate is shut: writes go to held
	eof     bool // the client's end is closed, by the client or the interceptor
	discard bool // blackholed: the client's writes vanish
	cut     bool // blackholed: the server's writes fail and its close goes nowhere
}

const defaultPipeCap = 1 << 18 // 256 KiB in flight

func (p *pipe) init(n *Network, lat time.Duration) {
	p.net, p.lat = n, lat
	p.cond.L = &p.mu
	p.queue.init()
}

// waitUntil blocks on the pipe's cond until shortly before the instant t
// (or a state change); callers re-check and spin the precise tail. Caller
// must hold p.mu. Only a segment still in flight is waited for this way,
// so it never runs under a discrete-event clock.
func (p *pipe) waitUntil(t instant) {
	d := time.Duration(t-realNow()) - vtime.CoarseSleep
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

// arrive returns when a segment of n bytes, sent at t over a hop of virtual
// latency lat whose previous segment arrives at *last, arrives, and records
// it in *last: the first byte pays propagation once, and each segment is
// serialized behind the previous one at link bandwidth.
func (p *pipe) arrive(t instant, lat time.Duration, last *instant, n int) instant {
	clock := p.net.clock
	due := t + instant(clock.Real(lat))
	if *last > due {
		due = *last
	}
	due += instant(clock.Real(time.Duration(float64(n) / p.net.bandwidth * float64(time.Second))))
	*last = due
	return due
}

// writerClosed reports whether the writing end may no longer write.
// Caller must hold p.mu.
func (p *pipe) writerClosed() bool {
	if m := p.mid; m != nil {
		if m.holding {
			return m.eof
		}
		return p.closed || m.cut
	}
	return p.closed
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
		if p.writerClosed() {
			return 0, ErrClosed
		}
		if p.wexp {
			return 0, ErrTimeout
		}
		if p.mid != nil && p.mid.discard {
			return len(b), nil
		}
		if q := p.inbox(); q.unread < defaultPipeCap {
			break
		}
		p.cond.Wait()
	}
	data := b
	if !owned {
		data = make([]byte, len(b))
		copy(data, b)
	}
	p.put(data, realNow())
	p.cond.Broadcast()
	return len(b), nil
}

// inbox is the queue a write goes to. Caller must hold p.mu.
func (p *pipe) inbox() *queue {
	if p.mid != nil && p.mid.holding {
		return p.mid.held
	}
	return &p.queue
}

// put queues data written at t: past the middlebox, if any, when its gate
// is open — the segment pays both hops — and into held when it is shut,
// having paid the first. Caller must hold p.mu, and wake the pipe's waiters.
func (p *pipe) put(data []byte, t instant) {
	if m := p.mid; m != nil {
		t = p.arrive(t, m.lat, &m.lastDue, len(data))
		if m.holding {
			m.held.push(segment{data: data, due: t})
			return
		}
	}
	p.forward(data, t)
}

// forward queues data for the reader, sent at t from the middlebox (or, on
// a direction with none, the writer). Caller must hold p.mu, and wake the
// pipe's waiters.
func (p *pipe) forward(data []byte, t instant) {
	p.push(segment{data: data, due: p.arrive(t, p.lat, &p.lastDue, len(data))})
}

// send is the middlebox's own write: b, owned, pays only the hop past it.
func (p *pipe) send(b []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.reset {
			return ErrReset
		}
		if p.closed {
			return ErrClosed
		}
		if p.unread < defaultPipeCap {
			break
		}
		p.cond.Wait()
	}
	p.forward(b, realNow())
	p.cond.Broadcast()
	return nil
}

// open opens the gate for good: what is held moves on — each segment
// leaving the middlebox now, or when it arrives there — and later writes
// pay both hops as they are made.
func (p *pipe) open() {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := p.mid
	if !m.holding {
		return
	}
	m.holding = false
	t := realNow()
	for _, s := range m.held.segs {
		p.forward(s.data, max(t, s.due))
	}
	m.held.drop()
	if m.eof {
		p.closed = true
	}
	p.cond.Broadcast()
}

// stop is the middlebox ending the client's direction: what it holds is
// dropped, the client's later writes fail — or with discard, vanish — and
// the server sees EOF after what was passed.
func (p *pipe) stop(discard bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if discard {
		p.mid.discard = true
	} else {
		p.mid.eof = true
	}
	p.mid.held.drop()
	p.closed = true
	p.cond.Broadcast()
}

// cutWriter is the middlebox cutting the server's direction off at the
// server: its writes fail and its close goes nowhere, while the client
// reads what is on its way and then waits.
func (p *pipe) cutWriter() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.mid.cut = true
	p.cond.Broadcast()
}

// read copies from the head segment into b: at most one segment per call.
// held reads what the middlebox holds instead of what the reader may read.
func (p *pipe) read(b []byte, held bool) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	q, s, err := p.head(held)
	if err != nil {
		return 0, err
	}
	n := copy(b, s.data)
	q.consume(s, n)
	p.cond.Broadcast() // wake writers blocked on backpressure
	return n, nil
}

// take removes up to max bytes of the head segment and returns them by
// reference: the bytes now belong to the caller, who must not modify them
// (a segment may alias memory its writer still reads, see Conn.WriteOwned).
func (p *pipe) take(max int, held bool) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	q, s, err := p.head(held)
	if err != nil {
		return nil, err
	}
	chunk := s.data[:min(len(s.data), max)]
	q.consume(s, len(chunk))
	p.cond.Broadcast()
	return chunk, nil
}

// head blocks until the first segment of the reader's queue — or with
// held, of the middlebox's — is deliverable and returns it with its queue;
// the error is ErrReset, ErrTimeout (the reading end expired), or io.EOF
// once the queue has drained and nothing more can come: the pipe is
// closed, or for held, the client's end is, or the gate is open. Caller
// must hold p.mu.
func (p *pipe) head(held bool) (*queue, *segment, error) {
	for {
		if p.reset {
			return nil, nil, ErrReset
		}
		q := &p.queue
		if held {
			q = p.mid.held
		} else if p.rexp {
			return nil, nil, ErrTimeout
		}
		if len(q.segs) > 0 {
			s := &q.segs[0]
			now := realNow()
			// Under a discrete-event clock Real() is 0, so due never lands
			// in the future and this in-flight branch is unreachable: data
			// is deliverable the moment it is written.
			if now < s.due {
				// Data in flight: wait for delivery. Near-due segments are
				// spin-waited for sub-millisecond delivery accuracy (see
				// vtime.CoarseSleep).
				if due := s.due; time.Duration(due-now) <= vtime.CoarseSleep {
					p.mu.Unlock()
					vtime.SpinUntil(due.time())
					p.mu.Lock()
					continue
				}
				p.waitUntil(s.due)
				continue
			}
			return q, s, nil
		}
		if p.closed || held && (p.mid.eof || !p.mid.holding) {
			return nil, nil, io.EOF
		}
		p.cond.Wait()
	}
}

// closeWrite is the writing end's close: the reader sees EOF once what is
// queued drains. A client closing a held direction tells the middlebox,
// which decides what the server sees; a blackholed server's close goes
// nowhere.
func (p *pipe) closeWrite() {
	p.mu.Lock()
	switch m := p.mid; {
	case m == nil:
		p.closed = true
	case m.holding:
		m.eof = true
	case !m.cut:
		p.closed = true
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// closeRead is the reading end's close: later writes fail, and reads see
// EOF once what is queued drains.
func (p *pipe) closeRead() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// doReset tears the pipe down: queued data is lost and both ends error.
func (p *pipe) doReset() {
	p.mu.Lock()
	p.reset = true
	p.drop()
	if p.mid != nil && p.mid.held != nil {
		p.mid.held.drop()
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

func (p *pipe) isReset() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reset
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
	closed atomic.Bool
}

// pair is a connection's two directions and two ends: they live and die
// together, so they are one allocation.
type pair struct {
	ab, ba pipe
	a, b   Conn
}

// init sets l up as a connection between the ends at addresses a and b,
// returned in that order. lat is the virtual one-way latency of the path
// between them.
func (l *pair) init(n *Network, lat time.Duration, a, b Addr, flow Flow) (*Conn, *Conn) {
	l.ab.init(n, lat)
	l.ba.init(n, lat)
	l.a = Conn{rx: &l.ba, tx: &l.ab, local: a, remote: b, flow: flow}
	l.b = Conn{rx: &l.ab, tx: &l.ba, local: b, remote: a, flow: flow}
	return &l.a, &l.b
}

// connPair builds two connected Conns. lat is the virtual one-way latency of
// the path between them.
func connPair(n *Network, lat time.Duration, a, b Addr, flow Flow) (*Conn, *Conn) {
	return new(pair).init(n, lat, a, b, flow)
}

// Read implements net.Conn.
func (c *Conn) Read(b []byte) (int, error) {
	n, err := c.rx.read(b, false)
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
	b, err := c.rx.take(max, false)
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
//
// A conn already reset in one direction is reset in the other instead: a
// reset lands on one direction first, and an end closing because it saw it
// there must not leave its peer an EOF on the other.
func (c *Conn) shutdown() {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	if c.tx.isReset() || c.rx.isReset() {
		c.Reset()
		return
	}
	c.tx.closeWrite()
	c.rx.closeRead()
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
