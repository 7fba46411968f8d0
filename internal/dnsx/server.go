package dnsx

import (
	"encoding/binary"
	"io"
	"net"
	"slices"
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

// Lookup returns the IPs for name, or nil if unknown. The slice is the
// registry's own, clipped: the caller reads it and does not write to it (Set
// replaces an entry's slice, it never writes into one).
func (r *Registry) Lookup(name string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return slices.Clip(r.m[CanonicalName(name)])
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
}

// Port is the conventional DNS port.
const Port = 53

// Serve starts a server on the listener; it returns immediately and serves
// until the listener closes.
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

// WriteMessage writes one length-prefixed DNS message: its frame is built
// in one allocation of exactly its length and handed to w by reference
// (netem.WriteOwned).
func WriteMessage(w io.Writer, m *Message) error {
	frame, err := m.frame()
	if err != nil {
		return err
	}
	_, err = netem.WriteOwned(w, frame)
	return err
}

// ReadMessage reads one length-prefixed DNS message (ReadFrame, then
// Unmarshal).
func ReadMessage(r io.Reader) (*Message, error) {
	frame, err := ReadFrame(r)
	if err != nil {
		return nil, err
	}
	return Unmarshal(frame[2:])
}

// ReadFrame reads one length-prefixed DNS frame and returns it whole, its
// 2-byte length included. When r can take (netem.Take) and the frame came
// as one segment, as every frame WriteMessage sends does, the frame is
// that segment's bytes, taken by reference with its capacity clipped: the
// caller decodes it or passes it on (netem.WriteOwned), and never writes
// into it. Otherwise the frame is read into an allocation of its own.
func ReadFrame(r io.Reader) ([]byte, error) {
	head, err := netem.Take(r, 2)
	switch {
	case err == netem.ErrCannotTake:
		head = nil
	case err != nil:
		return nil, err
	case len(head) == 2:
		n := int(binary.BigEndian.Uint16(head))
		if n == 0 {
			return head[:2:2], nil
		}
		msg, err := netem.Take(r, n)
		if err != nil {
			return nil, err
		}
		// The same segment holds both when msg starts where head ends.
		if len(msg) == n && cap(head) >= 2+n && &head[:3][2] == &msg[0] {
			return head[: 2+n : 2+n], nil
		}
		frame := make([]byte, 2+n)
		k := copy(frame, head)
		k += copy(frame[k:], msg)
		if _, err := io.ReadFull(r, frame[k:]); err != nil {
			if err == io.EOF && k > 2 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		return frame, nil
	}
	return readFrame(r, head)
}

// readFrame is ReadFrame by copy, once pre, fewer bytes than the length's
// two, has been taken.
func readFrame(r io.Reader, pre []byte) ([]byte, error) {
	var lb [2]byte
	k := copy(lb[:], pre)
	if _, err := io.ReadFull(r, lb[k:]); err != nil {
		if err == io.EOF && k > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	frame := make([]byte, 2+int(binary.BigEndian.Uint16(lb[:])))
	copy(frame, lb[:])
	if _, err := io.ReadFull(r, frame[2:]); err != nil {
		return nil, err
	}
	return frame, nil
}
