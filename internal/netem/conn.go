package netem

import (
	"io"
	"net"
	"time"

	"sync"

	"csaw/internal/vtime"
)

// Addr is a net.Addr for emulated endpoints.
type Addr struct {
	IP   string
	Port int
}

// Network implements net.Addr.
func (a Addr) Network() string { return "netem" }

// String implements net.Addr.
func (a Addr) String() string { return a.IP + ":" + itoa(a.Port) }

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}

// segment is a chunk of bytes in flight, deliverable at a real instant.
type segment struct {
	data []byte
	due  time.Time // real time at which the receiver may read it
}

// pipe is one direction of an emulated connection: a FIFO of segments with
// propagation latency, serialization (bandwidth) delay, optional loss-induced
// retransmission delay, and a byte cap providing backpressure.
//
// Deadlines live in the clock's execution domain: real instants under a
// real-scaled clock (converted by Conn from the virtual timestamps callers
// set), virtual instants under a discrete-event clock (where Real() is 0,
// so segments deliver the moment they are written and only the deadlines
// still need a time domain). Event-mode deadline expiry is driven by an
// armed clock event that broadcasts the cond when virtual time crosses it.
type pipe struct {
	net   *Network
	clock *vtime.Clock
	lat   time.Duration // virtual one-way propagation latency

	mu      sync.Mutex
	cond    sync.Cond // L is &mu
	segs    []segment
	unread  int
	cap     int
	lastDue time.Time   // real due time of last queued segment
	closed  bool        // EOF once drained
	reset   bool        // error immediately
	rdl     time.Time   // read deadline (zero = none); see domain note above
	wdl     time.Time   // write deadline
	rdlWake func() bool // stops the armed event-mode expiry broadcast
	wdlWake func() bool
}

const defaultPipeCap = 1 << 18 // 256 KiB in flight

func (p *pipe) init(n *Network, lat time.Duration) {
	p.net, p.clock, p.lat, p.cap = n, n.clock, lat, defaultPipeCap
	p.cond.L = &p.mu
}

// waitUntil blocks on the pipe's cond until shortly before the real instant
// t (or a state change); callers re-check and spin the precise tail. Caller
// must hold p.mu. Real-scaled mode only: event-mode waits use bare
// cond.Wait, woken by writers or the armed deadline broadcast.
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

// expired reports whether the deadline dl (zero = never) has passed in the
// clock's execution domain. Caller must hold p.mu.
func (p *pipe) expired(dl time.Time) bool {
	if dl.IsZero() {
		return false
	}
	if p.clock.EventDriven() {
		return !p.clock.Now().Before(dl)
	}
	return !time.Now().Before(dl)
}

// write queues b as one segment. With owned false it copies b first — the
// net.Conn contract, the caller may reuse its buffer; with owned true the
// segment aliases b, which nobody may modify from here on (see
// Conn.WriteOwned). Either way it is one segment: one jitter and loss draw,
// one serialization slot, len(b) bytes against the cap.
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
		if p.expired(p.wdl) {
			return 0, ErrTimeout
		}
		if p.unread < p.cap {
			break
		}
		if p.wdl.IsZero() || p.clock.EventDriven() {
			p.cond.Wait()
		} else {
			p.waitUntil(p.wdl)
		}
	}
	// Compute delivery time: first byte pays propagation once; subsequent
	// segments are serialized behind the previous segment at link bandwidth.
	now := time.Now()
	lat := p.lat + p.net.jitter(p.lat)
	if p.net.lose() {
		lat += p.net.lossRTO
	}
	xfer := time.Duration(float64(len(b)) / p.net.bandwidth * float64(time.Second))
	due := now.Add(p.clock.Real(lat))
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
	p.segs = append(p.segs, segment{data: data, due: due})
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

// consume drops the first n bytes of the head segment s, and the segment
// once it is empty. Caller must hold p.mu.
func (p *pipe) consume(s *segment, n int) {
	s.data = s.data[n:]
	p.unread -= n
	if len(s.data) == 0 {
		*s = segment{} // the queue's backing array must not pin the bytes
		p.segs = p.segs[1:]
	}
}

// head blocks until the first queued segment is deliverable and returns
// it; the error is ErrReset, ErrTimeout (read deadline), or io.EOF once a
// closed pipe has drained. Caller must hold p.mu.
func (p *pipe) head() (*segment, error) {
	for {
		if p.reset {
			return nil, ErrReset
		}
		if p.expired(p.rdl) {
			return nil, ErrTimeout
		}
		if len(p.segs) > 0 {
			s := &p.segs[0]
			now := time.Now()
			// Under a discrete-event clock Real() is 0, so due never lands
			// in the future and this in-flight branch is unreachable: data
			// is deliverable the moment it is written.
			if now.Before(s.due) {
				// Data in flight: wait for delivery or deadline. Near-due
				// segments are spin-waited for sub-millisecond delivery
				// accuracy (see vtime.CoarseSleep).
				until := s.due
				if !p.rdl.IsZero() && p.rdl.Before(until) {
					until = p.rdl
				}
				if until.Sub(now) <= vtime.CoarseSleep {
					due := until
					p.mu.Unlock()
					vtime.SpinUntil(due)
					p.mu.Lock()
					continue
				}
				p.waitUntil(until)
				continue
			}
			return s, nil
		}
		if p.closed {
			return nil, io.EOF
		}
		if p.rdl.IsZero() || p.clock.EventDriven() {
			p.cond.Wait()
		} else {
			p.waitUntil(p.rdl)
		}
	}
}

// close marks the pipe for EOF after the queued data drains.
func (p *pipe) close() {
	p.mu.Lock()
	p.closed = true
	p.stopWakesLocked()
	p.cond.Broadcast()
	p.mu.Unlock()
}

// doReset tears the pipe down: queued data is lost and both ends error.
func (p *pipe) doReset() {
	p.mu.Lock()
	p.reset = true
	p.segs = nil
	p.unread = 0
	p.stopWakesLocked()
	p.cond.Broadcast()
	p.mu.Unlock()
}

// lockedBroadcast is the event-mode deadline wake. It must take p.mu: a
// bare Broadcast can land between a waiter's deadline check and its
// cond.Wait (the check runs under p.mu, but the wake goroutine does not
// contend for it) and be lost, parking the waiter forever on a clock that
// may never advance again. Holding the lock serializes the wake against the
// check-then-wait window: either the waiter is already parked (Broadcast
// wakes it, and the scheduler advanced time before running this handler, so
// the re-check sees the expired deadline) or it has yet to check (and sees
// the expired deadline directly).
func (p *pipe) lockedBroadcast() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cond.Broadcast()
}

// stopWakesLocked disarms any event-mode deadline broadcasts so a closed
// conn's far-future deadlines don't linger in the scheduler's heap.
func (p *pipe) stopWakesLocked() {
	if p.rdlWake != nil {
		p.rdlWake()
		p.rdlWake = nil
	}
	if p.wdlWake != nil {
		p.wdlWake()
		p.wdlWake = nil
	}
}

func (p *pipe) setReadDeadline(t time.Time) {
	p.mu.Lock()
	p.rdl = t
	if p.rdlWake != nil {
		p.rdlWake()
		p.rdlWake = nil
	}
	// Event mode: a blocked reader has no real timer to wake it, so arm a
	// broadcast for the moment virtual time crosses the deadline.
	if !t.IsZero() && p.clock.EventDriven() && !p.closed && !p.reset {
		if d := t.Sub(p.clock.Now()); d > 0 {
			p.rdlWake = p.clock.AfterFunc(d, p.lockedBroadcast)
		}
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

func (p *pipe) setWriteDeadline(t time.Time) {
	p.mu.Lock()
	p.wdl = t
	if p.wdlWake != nil {
		p.wdlWake()
		p.wdlWake = nil
	}
	if !t.IsZero() && p.clock.EventDriven() && !p.closed && !p.reset {
		if d := t.Sub(p.clock.Now()); d > 0 {
			p.wdlWake = p.clock.AfterFunc(d, p.lockedBroadcast)
		}
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Conn is an emulated, full-duplex, latency- and bandwidth-modelled
// connection implementing net.Conn. Deadlines passed to SetDeadline and
// friends are interpreted as *virtual* timestamps from the network's clock.
type Conn struct {
	rx, tx *pipe
	local  Addr
	remote Addr
	flow   Flow
	clock  *vtime.Clock
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
	l.a = Conn{rx: &l.ba, tx: &l.ab, local: a, remote: b, flow: flow, clock: n.clock}
	l.b = Conn{rx: &l.ab, tx: &l.ba, local: b, remote: a, flow: flow, clock: n.clock}
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

// copyChunk is io.Copy's buffer size. WriteTo cuts segments at it so a
// splice makes the destination writes — hence jitter and loss draws and
// serialization slots — that io.Copy's read-then-write loop made.
const copyChunk = 32 << 10

// WriteTo implements io.WriterTo, which io.Copy and bufio.Reader.WriteTo
// prefer: it moves received segments to w until EOF (a nil error) with no
// staging buffer, and when w is a *Conn (or forwards WriteOwned to one)
// with no copy either — the segment's bytes change pipes by reference.
func (c *Conn) WriteTo(w io.Writer) (int64, error) {
	var written int64
	for {
		chunk, err := c.rx.take(copyChunk)
		if err == io.EOF {
			return written, nil
		}
		if err != nil {
			return written, &OpError{Op: "read", Addr: c.remote.String(), Err: err}
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

// SetDeadline implements net.Conn; t is a virtual timestamp.
func (c *Conn) SetDeadline(t time.Time) error {
	if err := c.SetReadDeadline(t); err != nil {
		return err
	}
	return c.SetWriteDeadline(t)
}

// SetReadDeadline implements net.Conn; t is a virtual timestamp.
func (c *Conn) SetReadDeadline(t time.Time) error {
	if t.IsZero() {
		c.rx.setReadDeadline(time.Time{})
	} else {
		c.rx.setReadDeadline(c.clock.Deadline(t))
	}
	return nil
}

// SetWriteDeadline implements net.Conn; t is a virtual timestamp.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	if t.IsZero() {
		c.tx.setWriteDeadline(time.Time{})
	} else {
		c.tx.setWriteDeadline(c.clock.Deadline(t))
	}
	return nil
}
