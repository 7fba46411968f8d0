package netem

import (
	"io"
	"net"
	"time"
)

// Flow identifies a connection traversing the network: its endpoints and the
// AS it egressed through. The censor keys its policy decisions off this, and
// servers read it from Conn.Flow the way a real server reads the peer
// address (the ASN-echo service in internal/web uses EgressAS to let clients
// detect multihoming, §4.4).
type Flow struct {
	Src      Addr
	Dst      Addr
	SrcName  string
	DstName  string
	EgressAS *AS
}

// Verdict is an interceptor's connect-time decision.
type Verdict int

// Connect-time verdicts. Drop blackholes the SYN so the client times out
// (the paper's 21 s TCP/IP detection case); Reset injects an RST.
const (
	VerdictPass Verdict = iota
	VerdictDrop
	VerdictReset
)

// String returns the verdict name.
func (v Verdict) String() string {
	switch v {
	case VerdictPass:
		return "pass"
	case VerdictDrop:
		return "drop"
	case VerdictReset:
		return "reset"
	default:
		return "verdict(?)"
	}
}

// Interceptor is the censor's attachment point on an AS egress. FilterConnect
// is consulted during the TCP handshake (IP blacklisting). If WantStream
// returns true the established connection is routed through HandleStream,
// which runs on its own goroutine with the connection's Session: it can
// inspect what the client sends (HTTP request lines, TLS SNI, DNS queries)
// before the server sees any of it, pass it on, answer itself (block pages),
// reset, or blackhole.
type Interceptor interface {
	FilterConnect(f Flow) Verdict
	WantStream(f Flow) bool
	HandleStream(f Flow, s *Session)
}

// Session is an interceptor's place on path, the way an ISP middlebox sits
// on it: it inspects what the client sends and lets it through, or not. The
// connection is still one pair of pipes. Its client→server direction is
// held at a gate: what the client writes reaches the interceptor (Read,
// Take) and the server only when the interceptor passes it on (Pass), or
// after Splice has opened the gate for good. The server→client direction
// carries the server's bytes straight to the client, and the interceptor's
// own answers (Write) beside them.
//
// The pipes compute both hops' timing themselves, so nothing has to run the
// middle hop: a held segment reaches the interceptor after the client's
// hop and the server one server hop after the interceptor passes it; a
// server segment pays both hops when it is written, and an answer of the
// interceptor's only the client's.
type Session struct {
	ic       Interceptor
	client   *Conn // the client's end: tx is the held direction
	up, down middle
	held     queue
}

// newSession builds the one pair of an intercepted dial for ic: client at
// src dialing dst, seen by the server as coming from censor, with the
// interceptor edge into the oneWay path. The session lives in the pair's
// allocation.
func newSession(ic Interceptor, n *Network, oneWay, edge time.Duration, src, dst, censor Addr, flow Flow) (*Session, *Conn, *Conn) {
	l := new(struct {
		pair
		s Session
	})
	s := &l.s
	client, server := l.init(n, 0, src, dst, flow)
	server.remote = censor
	s.ic, s.client = ic, client
	s.held.init()
	s.up = middle{lat: edge, held: &s.held, holding: true}
	s.down = middle{lat: oneWay - edge}
	l.ab.lat, l.ab.mid = oneWay-edge, &s.up
	l.ba.lat, l.ba.mid = edge, &s.down
	return s, client, server
}

// handle runs the interceptor on the session; a dial starts it on a
// goroutine of its own.
func (s *Session) handle() { s.ic.HandleStream(s.client.flow, s) }

// Flow returns the intercepted connection's flow metadata.
func (s *Session) Flow() Flow { return s.client.flow }

// Read copies what the client sent and the interceptor holds; io.EOF once
// that is drained and nothing more can come: the client's end closed, the
// server's did, or the gate is open.
func (s *Session) Read(b []byte) (int, error) { return s.client.tx.read(b, true) }

// Take is Read without the copy: up to max bytes of the oldest held segment,
// by reference. They are the interceptor's to inspect and to pass on (Pass),
// never to modify.
func (s *Session) Take(max int) ([]byte, error) { return s.client.tx.take(max, true) }

// Pass hands b, bytes the client sent, to the server, by reference: nobody
// may modify them from here on.
func (s *Session) Pass(b []byte) error { return s.client.tx.send(b) }

// Write answers the client: b is copied.
func (s *Session) Write(b []byte) (int, error) {
	return s.WriteOwned(append([]byte(nil), b...))
}

// WriteOwned answers the client with b by reference: nobody may modify it
// from here on.
func (s *Session) WriteOwned(b []byte) (int, error) {
	if err := s.client.rx.send(b); err != nil {
		return 0, err
	}
	return len(b), nil
}

// Splice opens the gate for good: what the client has sent and the
// interceptor has not taken goes on to the server, and so does everything
// the client sends from now on. Bytes taken and not passed are not.
func (s *Session) Splice() { s.client.tx.open() }

// Close ends the stream from the middle: the server sees EOF after what was
// passed, the client after what was answered, and later writes from
// either fail.
func (s *Session) Close() {
	s.client.tx.stop(false)
	s.client.rx.closeRead()
}

// Reset injects an RST in both directions and abandons the stream.
func (s *Session) Reset() { s.client.Reset() }

// Blackhole silently discards everything the client sends and never
// responds; the client is left to its timeouts. The server sees EOF, and
// its writes fail.
func (s *Session) Blackhole() {
	s.client.tx.stop(true)
	s.client.rx.cutWriter()
}

// Splice copies a↔b until both directions end, sourcing the a→b direction
// from ar — a itself, or a reader still holding bytes already read from it.
// A reset read on one side is re-injected on the other when that side is a
// *Conn; every other ending closes the destination, so the peer sees EOF
// after draining. The a→b copy runs on the caller's goroutine.
func Splice(a net.Conn, ar io.Reader, b net.Conn) {
	done := make(chan struct{})
	go func() { forward(a, b); close(done) }()
	forward(b, ar)
	<-done
}

// forward is one direction of a splice.
func forward(dst net.Conn, src io.Reader) {
	_, err := io.Copy(dst, src)
	if nc, ok := dst.(*Conn); ok && IsReset(err) {
		nc.Reset()
		return
	}
	dst.Close()
}
