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
	l      net.Listener
	h      Handler
	ctx    context.Context // cancelled when the server closes
	cancel context.CancelFunc

	mu     sync.Mutex
	closed bool
}

// Serve starts serving in the background and returns immediately.
func Serve(l net.Listener, h Handler) *Server {
	s := &Server{l: l, h: h}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	go s.acceptLoop()
	return s
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.l.Accept()
		if err != nil {
			return
		}
		var flow netem.Flow
		if fc, ok := conn.(interface{ Flow() netem.Flow }); ok {
			flow = fc.Flow()
		}
		go ServeConn(s.ctx, conn, flow, s.h)
	}
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

// Mux routes by exact host and longest path prefix, enough for origin and
// CDN servers hosting several sites.
type Mux struct {
	mu     sync.RWMutex
	routes map[string][]muxEntry // host → entries sorted by decreasing prefix length
}

type muxEntry struct {
	prefix string
	h      Handler
}

// NewMux returns an empty Mux.
func NewMux() *Mux { return &Mux{routes: make(map[string][]muxEntry)} }

// Handle registers a handler for a host and path prefix. Host "" is the
// fallback for unknown hosts.
func (m *Mux) Handle(host, prefix string, h Handler) {
	if prefix == "" {
		prefix = "/"
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	//lint:allow-sliceshare m.mu is held exclusively and the map slot is rebound below before unlock
	entries := append(m.routes[host], muxEntry{prefix: prefix, h: h})
	for i := len(entries) - 1; i > 0 && len(entries[i].prefix) > len(entries[i-1].prefix); i-- {
		entries[i], entries[i-1] = entries[i-1], entries[i]
	}
	m.routes[host] = entries
}

// ServeHTTP implements Handler.
func (m *Mux) ServeHTTP(req *Request, flow netem.Flow) *Response {
	host := strings.ToLower(req.Host)
	if i := strings.IndexByte(host, ':'); i >= 0 {
		host = host[:i]
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, key := range []string{host, ""} {
		for _, e := range m.routes[key] {
			if strings.HasPrefix(req.Target, e.prefix) {
				return e.h.ServeHTTP(req, flow)
			}
		}
	}
	return NewResponse(404, []byte("not found: "+req.Host+req.Target))
}
