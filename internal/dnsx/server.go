package dnsx

import (
	"encoding/binary"
	"io"
	"net"
	"sort"
	"sync"

	"csaw/internal/netem"
)

// Registry is the emulated internet's authoritative name data: the honest
// mapping from hostnames to IPs. Recursive resolvers (honest or censored)
// resolve against it.
type Registry struct {
	mu sync.RWMutex
	m  map[string][]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: make(map[string][]string)}
}

// Set registers the IPs for a name, replacing any previous entry.
func (r *Registry) Set(name string, ips ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m[CanonicalName(name)] = append([]string(nil), ips...)
}

// Lookup returns the IPs for name, or nil if unknown.
func (r *Registry) Lookup(name string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ips := r.m[CanonicalName(name)]
	return append([]string(nil), ips...)
}

// Names returns all registered names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.m))
	for n := range r.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Handler answers DNS queries. The flow carries who is asking and through
// which AS, so censoring handlers can apply per-AS policy.
type Handler interface {
	HandleDNS(q *Message, flow netem.Flow) *Message
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(q *Message, flow netem.Flow) *Message

// HandleDNS implements Handler.
func (f HandlerFunc) HandleDNS(q *Message, flow netem.Flow) *Message { return f(q, flow) }

// AuthHandler answers from a Registry: A records for known names with the
// given TTL, NXDOMAIN otherwise.
func AuthHandler(reg *Registry, ttl uint32) Handler {
	return HandlerFunc(func(q *Message, _ netem.Flow) *Message {
		resp := q.Reply()
		resp.Authoritative = true
		if len(q.Questions) == 0 {
			resp.RCode = RCodeFormErr
			return resp
		}
		question := q.Questions[0]
		if question.Type != TypeA {
			resp.RCode = RCodeNotImp
			return resp
		}
		ips := reg.Lookup(question.Name)
		if len(ips) == 0 {
			resp.RCode = RCodeNXDomain
			return resp
		}
		for _, ip := range ips {
			resp.AnswerA(question.Name, ip, ttl)
		}
		return resp
	})
}

// Server serves DNS over length-prefixed frames on an emulated listener.
type Server struct {
	l *netem.Listener
	h Handler

	mu     sync.Mutex
	closed bool
}

// Port is the conventional DNS port.
const Port = 53

// Serve starts a server on the listener; it returns immediately and serves
// until the listener or server is closed.
func Serve(l *netem.Listener, h Handler) *Server {
	s := &Server{l: l, h: h}
	l.Serve(s.serveConn)
	return s
}

// NewServer listens on the host's DNS port and serves h.
func NewServer(host *netem.Host, h Handler) (*Server, error) {
	l, err := host.Listen(Port)
	if err != nil {
		return nil, err
	}
	return Serve(l, h), nil
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	for {
		q, err := ReadMessage(conn)
		if err != nil {
			return
		}
		var flow netem.Flow
		if nc, ok := conn.(*netem.Conn); ok {
			flow = nc.Flow()
		}
		resp := s.h.HandleDNS(q, flow)
		if resp == nil {
			// Handler chose to drop the query (censor "No DNS" case): say
			// nothing and let the client time out, but keep the conn so
			// retries on it also vanish.
			continue
		}
		if err := WriteMessage(conn, resp); err != nil {
			return
		}
	}
}

// Close stops the server.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.l.Close()
}

// WriteMessage writes one length-prefixed DNS message.
func WriteMessage(w io.Writer, m *Message) error {
	b, err := m.Marshal()
	if err != nil {
		return err
	}
	frame := make([]byte, 2+len(b))
	binary.BigEndian.PutUint16(frame, uint16(len(b)))
	copy(frame[2:], b)
	_, err = netem.WriteOwned(w, frame)
	return err
}

// ReadMessage reads one length-prefixed DNS message.
func ReadMessage(r io.Reader) (*Message, error) {
	var lb [2]byte
	if _, err := io.ReadFull(r, lb[:]); err != nil {
		return nil, err
	}
	b := make([]byte, binary.BigEndian.Uint16(lb[:]))
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return Unmarshal(b)
}
