package netem

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"csaw/internal/trace"
)

// DialFunc is the dialing contract the rest of the repository programs
// against: direct host dialing, Tor circuits, Lantern tunnels, and static
// proxies all provide one, so the C-Saw circumvention module can treat every
// path uniformly.
type DialFunc func(ctx context.Context, address string) (net.Conn, error)

// SplitAddr parses "ip:port".
func SplitAddr(address string) (ip string, port int, err error) {
	i := strings.LastIndexByte(address, ':')
	if i < 0 {
		return "", 0, fmt.Errorf("netem: address %q missing port", address)
	}
	port, err = strconv.Atoi(address[i+1:])
	if err != nil || port <= 0 || port > 65535 {
		return "", 0, fmt.Errorf("netem: bad port in %q", address)
	}
	return address[:i], port, nil
}

// IsIPLiteral reports whether s is a dotted-quad IPv4 literal: four
// non-empty runs of decimal digits separated by dots. Callers use it to
// decide whether a host needs resolving.
func IsIPLiteral(s string) bool {
	dots, digits := 0, 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '.':
			if digits == 0 {
				return false
			}
			dots, digits = dots+1, 0
		case c < '0' || c > '9':
			return false
		default:
			digits++
		}
	}
	return dots == 3 && digits > 0
}

// Dial opens a connection from the host to "ip:port", emulating the TCP
// handshake (one RTT) and consulting the egress AS's
// interceptor. Context cancellation bounds the whole attempt; a blackholed
// SYN parks on the clock until the context ends (see vtime.Clock.Park) and
// surfaces as a timeout, matching how real clients experience IP blocking.
func (h *Host) Dial(ctx context.Context, address string) (net.Conn, error) {
	ip, port, err := SplitAddr(address)
	if err != nil {
		return nil, err
	}
	n := h.net
	egress := h.egressAS()
	srcAddr := Addr{IP: h.ip, Port: n.ephemeralPort()}
	dstAddr := Addr{IP: ip, Port: port}
	flow := Flow{Src: srcAddr, Dst: dstAddr, SrcName: h.name, EgressAS: egress}

	dst := n.HostByIP(ip)
	if dst != nil {
		flow.DstName = dst.name
	}

	// Flight recorder: dials record censor verdicts and connection outcomes
	// as events only; connect *time* is attributed by the semantic layers
	// (detect, web.Transport), since dials also happen inside DNS lookups.
	lane := trace.FromContext(ctx)

	ic := egress.Interceptor()
	if ic != nil {
		switch ic.FilterConnect(flow) {
		case VerdictDrop:
			// SYN blackholed: nothing ever comes back.
			lane.Event("net", "censor-drop", address)
			return nil, h.dialErr(address, n.clock.Park(ctx))
		case VerdictReset:
			// RST injected from near the edge: fast failure.
			lane.Event("net", "censor-rst", address)
			if err := n.clock.SleepCtx(ctx, n.RTT(h.loc, "")/4); err != nil {
				return nil, h.dialErr(address, err)
			}
			return nil, &OpError{Op: "dial", Addr: address, Err: ErrReset}
		}
	}

	if dst == nil {
		// Routed into the void; the handshake never completes.
		lane.Event("net", "void", address)
		return nil, h.dialErr(address, n.clock.Park(ctx))
	}

	rtt := n.RTT(h.loc, dst.loc)
	if err := n.clock.SleepCtx(ctx, rtt); err != nil {
		return nil, h.dialErr(address, err)
	}

	lst := dst.listener(port)
	if lst == nil {
		lane.Event("net", "refused", address)
		return nil, &OpError{Op: "dial", Addr: address, Err: ErrRefused}
	}

	oneWay := rtt / 2
	if ic != nil && ic.WantStream(flow) {
		lane.Event("net", "middlebox", address)
		// Place the interceptor near the client's edge: a short client
		// hop and the remainder of the path to the server, on one pair.
		edge := oneWay / 8
		if edge > 5*time.Millisecond {
			edge = 5 * time.Millisecond
		}
		censorAddr := Addr{IP: egress.censorIP, Port: dstAddr.Port}
		sess, clientConn, serverConn := newSession(ic, n, oneWay, edge, srcAddr, dstAddr, censorAddr, flow)
		go sess.handle()
		if err := lst.deliver(serverConn); err != nil {
			clientConn.shutdown()
			serverConn.shutdown()
			lane.Event("net", "refused", address)
			return nil, &OpError{Op: "dial", Addr: address, Err: ErrRefused}
		}
		lane.Event("net", "connected", address)
		return clientConn, nil
	}

	clientConn, serverConn := connPair(n, oneWay, srcAddr, dstAddr, flow)
	if err := lst.deliver(serverConn); err != nil {
		clientConn.shutdown()
		lane.Event("net", "refused", address)
		return nil, &OpError{Op: "dial", Addr: address, Err: ErrRefused}
	}
	lane.Event("net", "connected", address)
	return clientConn, nil
}

// dialErr maps the error of a context ending during dial to the right
// error: deadline expiry looks like a TCP connect timeout, explicit
// cancellation propagates.
func (h *Host) dialErr(address string, err error) error {
	if err == context.Canceled {
		return &OpError{Op: "dial", Addr: address, Err: context.Canceled}
	}
	return &OpError{Op: "dial", Addr: address, Err: ErrTimeout}
}

// DialTimeout dials with a virtual timeout.
func (h *Host) DialTimeout(address string, timeout time.Duration) (net.Conn, error) {
	ctx, cancel := h.net.clock.WithTimeout(context.Background(), timeout)
	defer cancel()
	return h.Dial(ctx, address)
}

// Dialer returns the host's DialFunc.
func (h *Host) Dialer() DialFunc { return h.Dial }

// Listener accepts emulated connections on a host port.
type Listener struct {
	host   *Host
	port   int
	ch     chan *Conn
	handle atomic.Pointer[func(net.Conn)] // set by Serve
	done   chan struct{}
	once   sync.Once
}

// Serve runs handle on a goroutine of its own for every conn l accepts,
// until l closes: an accept loop that starts a goroutine per conn, without
// the loop. The dial that delivers a conn starts handle, so no goroutine
// waits on an idle listener, and a world that nothing references any more
// — servers, hosts and all — is garbage even if it was never closed. A
// served listener is not Accepted from.
func (l *Listener) Serve(handle func(net.Conn)) {
	l.handle.Store(&handle)
	l.drain()
}

// Listen starts accepting connections on the given port.
func (h *Host) Listen(port int) (*Listener, error) {
	if port <= 0 || port > 65535 {
		return nil, fmt.Errorf("netem: bad listen port %d", port)
	}
	h.lmu.Lock()
	defer h.lmu.Unlock()
	if _, taken := h.listeners[port]; taken {
		return nil, fmt.Errorf("netem: %s port %d already in use", h.name, port)
	}
	l := &Listener{host: h, port: port, ch: make(chan *Conn, 128), done: make(chan struct{})}
	if h.listeners == nil {
		h.listeners = make(map[int]*Listener)
	}
	h.listeners[port] = l
	return l, nil
}

// MustListen is Listen that panics on error, for world construction code.
func (h *Host) MustListen(port int) *Listener {
	l, err := h.Listen(port)
	if err != nil {
		panic(err)
	}
	return l
}

// listener returns the active listener for port, or nil.
func (h *Host) listener(port int) *Listener {
	h.lmu.Lock()
	defer h.lmu.Unlock()
	return h.listeners[port]
}

// deliver hands a newly established server-side conn to the listener's
// handler, or to the accept queue of a listener not served.
func (l *Listener) deliver(c *Conn) error {
	select {
	case <-l.done:
		return ErrClosed
	default:
	}
	if h := l.handle.Load(); h != nil {
		go (*h)(c)
		return nil
	}
	select {
	case l.ch <- c:
	case <-l.done:
		return ErrClosed
	}
	l.drain() // Serve may have begun while c was being queued
	return nil
}

// drain hands what is queued to a served listener's handler.
func (l *Listener) drain() {
	h := l.handle.Load()
	if h == nil {
		return
	}
	for {
		select {
		case c := <-l.ch:
			go (*h)(c)
		default:
			return
		}
	}
}

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, &OpError{Op: "accept", Addr: l.Addr().String(), Err: ErrClosed}
	}
}

// Close implements net.Listener.
func (l *Listener) Close() error {
	l.host.lmu.Lock()
	if l.host.listeners[l.port] == l {
		delete(l.host.listeners, l.port)
	}
	l.host.lmu.Unlock()
	l.stop()
	return nil
}

// stop makes pending and later Accepts, and dials to l, fail.
func (l *Listener) stop() { l.once.Do(func() { close(l.done) }) }

// Addr implements net.Listener.
func (l *Listener) Addr() net.Addr { return Addr{IP: l.host.ip, Port: l.port} }

// LimitDial wraps dial with a connection budget: a dial first takes a slot
// from slots, waiting while all are taken until ctx ends, and the conn it
// returns gives the slot back on its first Close. Dialers wrapped with the
// same channel share one budget.
func LimitDial(dial DialFunc, slots chan struct{}) DialFunc {
	return func(ctx context.Context, address string) (net.Conn, error) {
		return DialLimited(ctx, dial, slots, address)
	}
}

// DialLimited is one dial of LimitDial(dial, slots): for an owner that
// keeps its budget, or makes it late, rather than keep a wrapped dialer.
func DialLimited(ctx context.Context, dial DialFunc, slots chan struct{}, address string) (net.Conn, error) {
	select {
	case slots <- struct{}{}:
	case <-ctx.Done():
		return nil, &OpError{Op: "dial", Addr: address, Err: ErrTimeout}
	}
	conn, err := dial(ctx, address)
	if err != nil {
		<-slots
		return nil, err
	}
	return &slotConn{Conn: conn, slots: slots}, nil
}

// slotConn returns its budget slot exactly once, on Close.
type slotConn struct {
	net.Conn
	once  sync.Once
	slots chan struct{}
}

// WriteOwned hands b to the budgeted conn (see WriteOwned).
func (s *slotConn) WriteOwned(b []byte) (int, error) { return WriteOwned(s.Conn, b) }

// Take takes from the budgeted conn (see Take).
func (s *slotConn) Take(max int) ([]byte, error) { return Take(s.Conn, max) }

// Expire expires the budgeted conn (see Expire); the slot stays taken until
// Close.
func (s *slotConn) Expire() { Expire(s.Conn) }

func (s *slotConn) Close() error {
	err := s.Conn.Close()
	s.once.Do(func() { <-s.slots })
	return err
}
