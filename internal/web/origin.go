package web

import (
	"context"
	"net"
	"strconv"
	"strings"
	"sync"

	"csaw/internal/httpx"
	"csaw/internal/netem"
	"csaw/internal/tlsx"
)

// Origin serves one or more sites from an emulated host over HTTP (:80) and
// pseudo-TLS (:443). An Origin hosting several sites is also a CDN/front
// server: it answers for every hosted name, so a client can front a blocked
// site behind an unblocked one on the same Origin (§2.2).
type Origin struct {
	host *netem.Host

	mu    sync.RWMutex
	sites map[string]*Site
}

// NewOrigin starts serving the given sites on host.
func NewOrigin(host *netem.Host, sites ...*Site) (*Origin, error) {
	o := &Origin{host: host, sites: make(map[string]*Site)}
	for _, s := range sites {
		o.sites[s.Host] = s
	}
	httpl, err := host.Listen(80)
	if err != nil {
		return nil, err
	}
	httpx.Serve(httpl, httpx.HandlerFunc(o.serve))
	tlsl, err := host.Listen(tlsx.Port)
	if err != nil {
		return nil, err
	}
	tlsl.Serve(o.serveTLS)
	return o, nil
}

// AddSite starts serving another site from this origin.
func (o *Origin) AddSite(s *Site) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.sites[s.Host] = s
}

// Serves reports whether the origin hosts a site under exactly this
// (lower-case) name.
func (o *Origin) Serves(host string) bool {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.sites[host] != nil
}

// site returns the hosted site for a (possibly port-suffixed) Host header.
func (o *Origin) site(hostHeader string) *Site {
	h := strings.ToLower(hostHeader)
	if i := strings.IndexByte(h, ':'); i >= 0 {
		h = h[:i]
	}
	o.mu.RLock()
	defer o.mu.RUnlock()
	if s := o.sites[h]; s != nil {
		return s
	}
	// "IP as hostname": requests addressed to our bare IP serve the sole
	// hosted site (how a single-site origin answers IP-addressed requests).
	if h == o.host.IP() && len(o.sites) == 1 {
		for _, s := range o.sites {
			return s
		}
	}
	return nil
}

func (o *Origin) serve(req *httpx.Request, _ netem.Flow) *httpx.Response {
	s := o.site(req.Host)
	if s == nil {
		return httpx.NewResponse(404, []byte("no such site: "+req.Host))
	}
	path := req.Target
	if i := strings.IndexByte(path, '?'); i >= 0 {
		path = path[:i]
	}
	body, html := s.body(path)
	if body == nil {
		return httpx.NewResponse(404, []byte("not found: "+req.Host+path))
	}
	resp := httpx.NewResponse(200, body)
	if html {
		resp.Header.Set("Content-Type", "text/html")
	} else {
		resp.Header.Set("Content-Type", "application/octet-stream")
	}
	return resp
}

// certFunc serves any hosted site name.
func (o *Origin) certFunc(sni string) string {
	if o.site(sni) != nil {
		return strings.ToLower(sni)
	}
	return ""
}

// serveTLS runs one pseudo-TLS session: handshake, then the same request
// loop the :80 listener runs. The origin's handler makes no upstream calls,
// so its requests carry Background.
func (o *Origin) serveTLS(raw net.Conn) {
	tc, err := tlsx.Server(raw, o.certFunc)
	if err != nil {
		raw.Close()
		return
	}
	httpx.ServeConn(context.Background(), tc, raw.(*netem.Conn).Flow(), httpx.HandlerFunc(o.serve))
}

// ASNEchoPath is the path served by the ASN echo service.
const ASNEchoPath = "/asn"

// ServeASNEcho runs the "what is my ASN" service on host:80: it answers with
// the egress AS number of the caller's connection. C-Saw clients probe it
// periodically to detect multihoming (§4.4).
func ServeASNEcho(host *netem.Host) error {
	l, err := host.Listen(80)
	if err != nil {
		return err
	}
	httpx.Serve(l, httpx.HandlerFunc(func(req *httpx.Request, flow netem.Flow) *httpx.Response {
		asn := 0
		if flow.EgressAS != nil {
			asn = flow.EgressAS.Number
		}
		return httpx.NewResponse(200, []byte(strconv.Itoa(asn)))
	}))
	return nil
}
