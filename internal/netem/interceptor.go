package netem

import (
	"io"
	"net"
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
// which runs on its own goroutine and owns both halves of the stream — it can
// inspect the client's bytes (HTTP request lines, TLS SNI, DNS queries),
// splice them onward, answer itself (block pages), reset, or blackhole.
type Interceptor interface {
	FilterConnect(f Flow) Verdict
	WantStream(f Flow) bool
	HandleStream(f Flow, s *Session)
}

// Session gives a stream interceptor the middle of a connection.
type Session struct {
	flow   Flow
	client *Conn // interceptor's side facing the client
	server *Conn // interceptor's side facing the server
}

// Flow returns the intercepted connection's flow metadata.
func (s *Session) Flow() Flow { return s.flow }

// Client returns the interceptor's connection toward the client.
func (s *Session) Client() net.Conn { return s.client }

// Server returns the interceptor's connection toward the server.
func (s *Session) Server() net.Conn { return s.server }

// Reset injects an RST in both directions and abandons the stream.
func (s *Session) Reset() {
	s.client.Reset()
	s.server.Reset()
}

// Blackhole silently discards everything the client sends and never
// responds; the client is left to its timeouts. The server side is closed.
func (s *Session) Blackhole() {
	s.server.shutdown()
	go func() {
		_, _ = io.Copy(io.Discard, s.client)
	}()
}

// Splice passes the rest of the stream through untouched (see Splice).
func (s *Session) Splice() { Splice(s.client, s.client, s.server) }

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

// PassVerdicts is a convenience base for interceptors that never act at
// connect time; embed it and override what you need.
type PassVerdicts struct{}

// FilterConnect always passes.
func (PassVerdicts) FilterConnect(Flow) Verdict { return VerdictPass }

// WantStream never requests stream inspection.
func (PassVerdicts) WantStream(Flow) bool { return false }

// HandleStream splices; it only runs if WantStream is overridden.
func (PassVerdicts) HandleStream(_ Flow, s *Session) { s.Splice() }
