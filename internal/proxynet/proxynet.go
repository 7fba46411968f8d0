// Package proxynet implements simple CONNECT-style forward proxies: the
// "static proxies spread throughout the world" that §2.3 compares against
// (Table 2 lists their ping latencies), and the building block Lantern's
// HTTPS proxies reuse.
//
// Protocol: the client opens a stream and sends one line,
//
//	CONNECT <host-or-ip>:<port>\n
//
// the proxy resolves and dials the target from *its* vantage point (which is
// the whole circumvention value: the proxy sits outside the censored
// region), answers "OK\n" or "ERR <reason>\n", and then splices bytes both
// ways.
package proxynet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"time"

	"csaw/internal/httpx"
	"csaw/internal/netem"
	"csaw/internal/trace"
	"csaw/internal/vtime"
)

// Port is the conventional static-proxy port.
const Port = 3128

// Lookup resolves a hostname to an IP from the proxy's vantage point.
type Lookup func(ctx context.Context, host string) (string, error)

// IPLookup passes IP literals through and fails everything else; proxies in
// worlds without DNS use it.
func IPLookup(_ context.Context, host string) (string, error) {
	if netem.IsIPLiteral(host) {
		return host, nil
	}
	return "", fmt.Errorf("proxynet: cannot resolve %q", host)
}

// Server is a running CONNECT proxy.
type Server struct {
	host    *netem.Host
	l       *netem.Listener
	lookup  Lookup
	clock   *vtime.Clock
	timeout time.Duration
}

// Serve starts a CONNECT proxy on host:port. The lookup resolves names for
// clients that tunnel by hostname; nil means IP literals only.
func Serve(host *netem.Host, port int, lookup Lookup) (*Server, error) {
	if lookup == nil {
		lookup = IPLookup
	}
	l, err := host.Listen(port)
	if err != nil {
		return nil, err
	}
	s := &Server{host: host, l: l, lookup: lookup, clock: host.Network().Clock(), timeout: 30 * time.Second}
	s.l.Serve(s.handle)
	return s, nil
}

// Addr returns the proxy's dial address.
func (s *Server) Addr() string { return s.l.Addr().String() }

// SetTimeout replaces the per-exchange idle timeout (virtual). Population-
// scale runs raise it: at high clock scales a short virtual timeout is only
// milliseconds of real slack, and scheduler stalls would sever healthy
// tunnels. Call before the proxy carries traffic.
func (s *Server) SetTimeout(d time.Duration) {
	if d > 0 {
		s.timeout = d
	}
}

// Close stops the proxy.
func (s *Server) Close() error { return s.l.Close() }

func (s *Server) handle(conn net.Conn) {
	br := httpx.GetReader(conn)
	defer httpx.PutReader(br) // after Exit, and with it the splice, has returned
	line, err := br.ReadString('\n')
	if err != nil {
		conn.Close()
		return
	}
	target, ok := strings.CutPrefix(strings.TrimSpace(line), "CONNECT ")
	if !ok {
		fmt.Fprintf(conn, "ERR bad request\n")
		conn.Close()
		return
	}
	ctx, cancel := s.clock.WithTimeout(context.Background(), s.timeout)
	defer cancel()
	if err := Exit(ctx, s.host, s.lookup, target, conn, br, "OK\n"); err != nil {
		fmt.Fprintf(conn, "ERR %v\n", err)
		conn.Close()
	}
}

// Exit is the last step of a tunnel hop, shared by CONNECT proxies and Tor
// relays: resolve target ("host-or-ip:port") with lookup, dial it from
// host's vantage point, confirm to the client with ack, and splice the two
// conns until both directions end (clientR carries whatever the handshake
// reader buffered past the routing line). A non-nil error means no tunnel
// was set up and client is still open, for the caller to refuse and close.
func Exit(ctx context.Context, host *netem.Host, lookup Lookup, target string, client net.Conn, clientR io.Reader, ack string) error {
	name, port, err := netem.SplitAddr(target)
	if err != nil {
		return errors.New("bad target")
	}
	ip := name
	if !netem.IsIPLiteral(name) {
		if ip, err = lookup(ctx, name); err != nil {
			return fmt.Errorf("resolve: %v", err)
		}
	}
	upstream, err := host.Dial(ctx, fmt.Sprintf("%s:%d", ip, port))
	if err != nil {
		return fmt.Errorf("dial: %v", err)
	}
	if _, err := netem.WriteOwned(client, []byte(ack)); err != nil {
		upstream.Close()
		return err
	}
	netem.Splice(client, clientR, upstream)
	return nil
}

// Via returns a DialFunc that tunnels every connection through the proxy at
// proxyAddr (see DialVia).
func Via(base netem.DialFunc, proxyAddr string) netem.DialFunc {
	return func(ctx context.Context, address string) (net.Conn, error) {
		return DialVia(ctx, base, proxyAddr, address)
	}
}

// DialVia opens a tunnel to address through the proxy at proxyAddr, reached
// with base. The returned conn behaves like a direct conn to the target:
// ctx bounds the handshake only, and the tunnel is handed on unbound.
func DialVia(ctx context.Context, base netem.DialFunc, proxyAddr, address string) (net.Conn, error) {
	lane := trace.FromContext(ctx)
	lane.Event("relay", "connect", proxyAddr)
	conn, err := base(ctx, proxyAddr)
	if err != nil {
		return nil, err
	}
	defer netem.Bind(ctx, conn).Release()
	if _, err := fmt.Fprintf(conn, "CONNECT %s\n", address); err != nil {
		conn.Close()
		return nil, err
	}
	br := httpx.GetReader(conn)
	line, err := br.ReadString('\n')
	if err != nil {
		httpx.PutReader(br)
		conn.Close()
		return nil, fmt.Errorf("proxynet: tunnel to %s: %w", address, err)
	}
	line = strings.TrimSpace(line)
	if line != "OK" {
		httpx.PutReader(br)
		conn.Close()
		lane.Event("relay", "tunnel-refused", address)
		return nil, fmt.Errorf("proxynet: tunnel to %s refused: %s", address, line)
	}
	lane.Event("relay", "tunnel-ok", address)
	return &tunnelConn{Conn: conn, br: br}, nil
}

// tunnelConn first reads out whatever the handshake bufio.Reader buffered
// past the reply line, so no bytes are lost, then gives the reader back and
// reads the conn itself.
type tunnelConn struct {
	net.Conn
	br *bufio.Reader // nil once drained
}

func (c *tunnelConn) Read(b []byte) (int, error) {
	if !c.drained() {
		return c.br.Read(b) // serves buffered bytes only, reads nothing new
	}
	return c.Conn.Read(b)
}

// drained reports whether the handshake reader has nothing left to serve,
// and gives it back to the pool once it is empty.
func (c *tunnelConn) drained() bool {
	if c.br != nil {
		if c.br.Buffered() > 0 {
			return false
		}
		httpx.PutReader(c.br)
		c.br = nil
	}
	return true
}

// Take takes from the tunnelled conn (see netem.Take) once the handshake
// reader is drained: the bytes it still holds can only be read.
func (c *tunnelConn) Take(max int) ([]byte, error) {
	if !c.drained() {
		return nil, netem.ErrCannotTake
	}
	return netem.Take(c.Conn, max)
}

// WriteOwned hands b to the tunnelled conn (see netem.WriteOwned).
func (c *tunnelConn) WriteOwned(b []byte) (int, error) { return netem.WriteOwned(c.Conn, b) }

// Expire expires the tunnelled conn (see netem.Expire).
func (c *tunnelConn) Expire() { netem.Expire(c.Conn) }
