package web

import (
	"context"
	"fmt"
	"net"
	"time"

	"csaw/internal/httpx"
	"csaw/internal/netem"
	"csaw/internal/proxynet"
	"csaw/internal/tlsx"
	"csaw/internal/trace"
	"csaw/internal/vtime"
)

// Transport is one way of fetching a URL: the direct path or any
// circumvention approach. The C-Saw circumvention module builds one
// Transport per approach (direct, public-DNS fix, HTTPS fix, domain
// fronting, IP-as-hostname, static proxy, Lantern, Tor) and the browser
// fetcher is agnostic to which one it drives.
//
// A Transport without a Dialer holds nothing of any one host, so many
// clients can share it: each exchange then dials and resolves with the
// caller's own parts (RoundTripWith).
type Transport struct {
	// Label identifies the transport in results ("direct", "tor", ...).
	Label string
	// Dialer opens the underlying stream for Fetch and RoundTrip.
	Dialer netem.DialFunc
	// Proxy, when set, is a CONNECT proxy every stream is tunnelled
	// through: the dial reaches the proxy, the proxy the site.
	Proxy string
	// Lookup resolves a hostname to an IP. If nil, "host:port" is passed to
	// the dial verbatim — Tor-style remote resolution at the exit.
	Lookup func(ctx context.Context, host string) (string, error)
	// TLS selects pseudo-TLS (port 443) instead of HTTP (port 80).
	TLS bool
	// SNI overrides the TLS server name (domain fronting). Nil means the
	// request host.
	SNI func(host string) string
	// HostHeader overrides the Host header. Nil means the request host.
	HostHeader func(host string) string
	// HostHeaderFromAddr sends the *resolved connect address* as the Host
	// header — the "IP as hostname" local fix (§2.3): the URL carries the
	// blocked site's IP instead of its keyword-filterable name.
	HostHeaderFromAddr bool
	// VerifyCert requires the server certificate to match the SNI.
	VerifyCert bool
	// Clock drives timeouts. Required.
	Clock *vtime.Clock
	// Timeout bounds one exchange (virtual). Zero means DefaultTimeout.
	Timeout time.Duration
}

// DefaultTransportTimeout bounds one exchange when Transport.Timeout is 0.
// It must exceed the longest blocking-detection time (~33 s, Table 5).
const DefaultTransportTimeout = 45 * time.Second

func (t *Transport) timeout() time.Duration {
	if t.Timeout > 0 {
		return t.Timeout
	}
	return DefaultTransportTimeout
}

// Port returns the destination port implied by the transport's scheme.
func (t *Transport) Port() int {
	if t.TLS {
		return tlsx.Port
	}
	return 80
}

// Fetch performs one GET for host+path and returns the response.
func (t *Transport) Fetch(ctx context.Context, host, path string) (*httpx.Response, error) {
	return t.RoundTrip(ctx, httpx.NewRequest("GET", host, path))
}

// RoundTrip sends an arbitrary request over the transport, applying its
// resolution, TLS/SNI, and Host-header rules — the path Fetch uses, and
// the one non-GET requests (never duplicated, §4.3.1) ride as well.
func (t *Transport) RoundTrip(ctx context.Context, req *httpx.Request) (*httpx.Response, error) {
	return t.RoundTripWith(ctx, req, t.Dialer, t.Lookup)
}

// RoundTripWith is RoundTrip with the caller's dial and lookup in place of
// the transport's Dialer and Lookup: the exchange a client makes over a
// transport it shares with other clients.
func (t *Transport) RoundTripWith(ctx context.Context, req *httpx.Request, dial netem.DialFunc, lookup func(context.Context, string) (string, error)) (*httpx.Response, error) {
	ctx, cancel := t.Clock.WithTimeout(ctx, t.timeout())
	defer cancel()

	host := req.Host
	addr, err := t.connectAddr(ctx, host, lookup)
	if err != nil {
		return nil, err
	}
	// Flight recorder: the dial — including any relay/tunnel handshake the
	// dial hides — is the lane's connect phase.
	mark := trace.FromContext(ctx).Begin(trace.PhaseConnect)
	var conn net.Conn
	if t.Proxy != "" {
		conn, err = proxynet.DialVia(ctx, dial, t.Proxy, addr)
	} else {
		conn, err = dial(ctx, addr)
	}
	mark.End()
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	defer netem.Bind(ctx, conn).Release()

	var stream net.Conn = conn
	if t.TLS {
		sni := host
		if t.SNI != nil {
			sni = t.SNI(host)
		}
		expect := ""
		if t.VerifyCert {
			expect = sni
		}
		tc, err := tlsx.ClientCtx(ctx, conn, sni, expect)
		if err != nil {
			return nil, fmt.Errorf("transport %s: tls: %w", t.Label, err)
		}
		stream = tc
	}

	// The Host rewrite goes on a copy: the caller's request still names the
	// site, for its error messages and for a retry over another approach.
	out := *req
	switch {
	case t.HostHeader != nil:
		out.Host = t.HostHeader(host)
	case t.HostHeaderFromAddr:
		if ip, _, err := netem.SplitAddr(addr); err == nil {
			out.Host = ip
		}
	}
	return httpx.RoundTrip(ctx, stream, &out)
}

// connectAddr decides what address to hand to the dialer.
func (t *Transport) connectAddr(ctx context.Context, host string, lookup func(context.Context, string) (string, error)) (string, error) {
	port := t.Port()
	if lookup == nil || netem.IsIPLiteral(host) {
		return netem.Addr{IP: host, Port: port}.String(), nil
	}
	ip, err := lookup(ctx, host)
	if err != nil {
		return "", err
	}
	return netem.Addr{IP: ip, Port: port}.String(), nil
}
