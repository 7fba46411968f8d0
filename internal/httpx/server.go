package httpx

import (
	"context"
	"net"
	"strings"
	"sync"

	"csaw/internal/netem"
)

// Handler produces a response for a request. The flow identifies the caller
// (source address and egress AS) the way a real server sees a peer address;
// the ASN-echo and global-DB services key on it.
type Handler interface {
	ServeHTTP(req *Request, flow netem.Flow) *Response
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(req *Request, flow netem.Flow) *Response

// ServeHTTP implements Handler.
func (f HandlerFunc) ServeHTTP(req *Request, flow netem.Flow) *Response { return f(req, flow) }

// Server serves HTTP on a listener, with keep-alive support.
type Server struct {
	l      *netem.Listener
	h      Handler
	ctx    context.Context // cancelled when the server closes
	cancel context.CancelFunc

	mu     sync.Mutex
	closed bool
}

// Serve starts serving in the background and returns immediately.
func Serve(l *netem.Listener, h Handler) *Server {
	s := &Server{l: l, h: h}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	l.Serve(s.serve)
	return s
}

func (s *Server) serve(conn net.Conn) {
	var flow netem.Flow
	if fc, ok := conn.(interface{ Flow() netem.Flow }); ok {
		flow = fc.Flow()
	}
	ServeConn(s.ctx, conn, flow, s.h)
}

// ServeConn runs the HTTP request loop on one established stream — a raw
// accepted conn or a pseudo-TLS session on top of one — until the peer
// stops sending, a write fails, or either side asks for Connection: close,
// then closes conn. Every request carries ctx, so a handler's upstream
// calls stop once the owner of ctx has shut down.
func ServeConn(ctx context.Context, conn net.Conn, flow netem.Flow, h Handler) {
	defer conn.Close()
	br := GetReader(conn)
	defer PutReader(br)
	for {
		req, err := ReadRequest(br)
		if err != nil {
			return
		}
		req.ctx = ctx
		resp := h.ServeHTTP(req, flow)
		if resp == nil {
			// Handler chose to drop the request (used by censor simulations
			// and misbehaving-server tests): say nothing.
			continue
		}
		if err := WriteResponse(conn, resp); err != nil {
			return
		}
		if WantsClose(req.Header) || WantsClose(resp.Header) {
			return
		}
	}
}

// WantsClose reports whether a message's headers end the connection after
// this exchange (Connection: close, in any letter case).
func WantsClose(h Header) bool {
	return strings.EqualFold(h.Get("Connection"), "close")
}

// Close stops accepting; established connections finish naturally, but
// requests dispatched after Close see a cancelled context, so handler
// upstream calls abort instead of lingering.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.cancel()
	return s.l.Close()
}
