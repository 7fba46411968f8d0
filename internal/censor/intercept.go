package censor

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"

	"csaw/internal/dnsx"
	"csaw/internal/httpx"
	"csaw/internal/metrics"
	"csaw/internal/netem"
	"csaw/internal/tlsx"
)

// Censor enforces a Policy as a netem Interceptor. The active policy can be
// swapped at any time; connections established earlier keep the policy they
// started with only for decisions already taken.
type Censor struct {
	mu     sync.RWMutex
	policy *Policy
	churn  *churnState // adversarial timeline; nil until EnableChurn

	// Counters counts enforcement events by action name ("http-blockpage",
	// "ip-drop", ...) and the churn timeline's own events ("epoch-flip",
	// "intermittent-pass", "residual-arm", "residual-drop").
	Counters metrics.Counters
}

// New returns a Censor enforcing p; nil means an empty (pass-everything)
// policy.
func New(p *Policy) *Censor {
	if p == nil {
		p = &Policy{}
	}
	return &Censor{policy: p}
}

// Attach installs the censor on an AS egress.
func (c *Censor) Attach(as *netem.AS) { as.SetInterceptor(c) }

// Policy returns the active policy, first advancing the epoch schedule (if
// churn is armed) to the current virtual time — a policy flip takes effect
// on the first decision made after its Start. Connections established
// earlier keep the decisions they already took under the old policy.
func (c *Censor) Policy() *Policy {
	c.advanceEpoch()
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.policy
}

// SetPolicy swaps the active policy (used for blocking-event timelines such
// as §7.5).
func (c *Censor) SetPolicy(p *Policy) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.policy = p
}

// FilterConnect implements netem.Interceptor: residual censorship first
// (a punished client's flows are dropped regardless of destination), then
// IP blacklisting.
func (c *Censor) FilterConnect(f netem.Flow) netem.Verdict {
	p := c.Policy()
	if c.residualActive(f.Src.IP) {
		c.Counters.Add("residual-drop", 1)
		return netem.VerdictDrop
	}
	switch p.IPActionFor(f.Dst.IP) {
	case IPDrop:
		if !c.enforce(p) {
			return netem.VerdictPass
		}
		c.Counters.Add("ip-drop", 1)
		c.triggerResidual(p, f.Src.IP)
		return netem.VerdictDrop
	case IPReset:
		if !c.enforce(p) {
			return netem.VerdictPass
		}
		c.Counters.Add("ip-reset", 1)
		c.triggerResidual(p, f.Src.IP)
		return netem.VerdictReset
	default:
		return netem.VerdictPass
	}
}

// WantStream implements netem.Interceptor: inspect HTTP, TLS, and —
// when foreign-DNS interception is on — DNS streams.
func (c *Censor) WantStream(f netem.Flow) bool {
	p := c.Policy()
	switch f.Dst.Port {
	case 80, tlsx.Port:
		return p.hasStreamRules()
	case dnsx.Port:
		return p.InterceptForeignDNS
	default:
		return false
	}
}

// HandleStream implements netem.Interceptor.
func (c *Censor) HandleStream(f netem.Flow, s *netem.Session) {
	switch f.Dst.Port {
	case 80:
		c.handleHTTP(f, s)
	case tlsx.Port:
		c.handleTLS(f, s)
	case dnsx.Port:
		c.handleDNS(f, s)
	default:
		s.Splice()
	}
}

// handleHTTP proxies requests one at a time, enforcing URL and keyword rules.
func (c *Censor) handleHTTP(f netem.Flow, s *netem.Session) {
	client, server := s.Client(), s.Server()
	closeBoth := func() {
		client.Close()
		server.Close()
	}
	cbr := httpx.GetReader(client)
	defer httpx.PutReader(cbr)
	sbr := httpx.GetReader(server)
	defer httpx.PutReader(sbr)
	for {
		req, err := httpx.ReadRequest(cbr)
		if err != nil {
			closeBoth()
			return
		}
		p := c.Policy()
		act := p.HTTPActionFor(req.Host, req.Target)
		if act != HTTPClean {
			if !c.enforce(p) {
				act = HTTPClean // the censor blinked: this request slips through
			} else {
				c.triggerResidual(p, f.Src.IP)
			}
		}
		switch act {
		case HTTPClean:
			// Count what the censor *observes* passing, per (host,target):
			// the raw material for traffic-analysis/fingerprinting studies
			// (§8 discusses whether C-Saw's redundant requests stand out).
			c.Counters.Add("http-pass", 1)
			if err := httpx.WriteRequest(server, req); err != nil {
				closeBoth()
				return
			}
			// The origin's answer goes back as it came, its body by
			// reference (a Session's ends are always *netem.Conn).
			closing, err := httpx.RelayResponse(client, server.(*netem.Conn), sbr)
			if err != nil {
				closeBoth()
				return
			}
			if closing || httpx.WantsClose(req.Header) {
				closeBoth()
				return
			}
		case HTTPDrop:
			c.Counters.Add(act.String(), 1)
			s.Blackhole() // leaves the client hanging; do not close it
			return
		case HTTPReset:
			c.Counters.Add(act.String(), 1)
			s.Reset()
			return
		case HTTPBlockPage:
			c.Counters.Add(act.String(), 1)
			_ = httpx.WriteResponse(client, p.blockPageResponse())
			closeBoth()
			return
		case HTTPRedirect:
			c.Counters.Add(act.String(), 1)
			resp := httpx.NewResponse(302, []byte("blocked"))
			resp.Header.Set("Location", "http://"+p.BlockPageURL)
			resp.Header.Set("Connection", "close")
			_ = httpx.WriteResponse(client, resp)
			closeBoth()
			return
		case HTTPIframe:
			c.Counters.Add(act.String(), 1)
			_ = httpx.WriteResponse(client, p.iframeResponse())
			closeBoth()
			return
		}
	}
}

// handleTLS peeks the ClientHello for the SNI, then passes or kills.
func (c *Censor) handleTLS(f netem.Flow, s *netem.Session) {
	client, server := s.Client(), s.Server()
	var consumed bytes.Buffer
	cbr := httpx.GetReader(client)
	defer httpx.PutReader(cbr) // after the splice below has returned
	hello, err := tlsx.ReadHello(io.TeeReader(cbr, &consumed))
	// Not pseudo-TLS (or the client vanished): censors pass traffic they
	// cannot parse.
	act := TLSClean
	if err == nil {
		p := c.Policy()
		act = p.SNIActionFor(hello.Name)
		if act != TLSClean {
			if !c.enforce(p) {
				act = TLSClean
			} else {
				c.triggerResidual(p, f.Src.IP)
			}
		}
	}
	switch act {
	case TLSDrop:
		c.Counters.Add("sni-drop", 1)
		s.Blackhole()
	case TLSReset:
		c.Counters.Add("sni-reset", 1)
		s.Reset()
	default:
		// Forward what was read for the peek, then the rest of the stream.
		if consumed.Len() > 0 {
			if _, err := netem.WriteOwned(server, consumed.Bytes()); err != nil {
				client.Close()
				server.Close()
				return
			}
		}
		netem.Splice(client, cbr, server)
	}
}

// handleDNS applies the DNS policy on-path to queries bound for foreign
// resolvers (DNS injection). A query is decoded only to read its name; a
// query that passes, and the resolver's answer, cross as the frames that
// were read (relayDNS).
func (c *Censor) handleDNS(f netem.Flow, s *netem.Session) {
	client, server := s.Client(), s.Server()
	defer client.Close()
	defer server.Close()
	for {
		query, err := dnsx.ReadFrame(client)
		if err != nil {
			return
		}
		q, err := dnsx.Unmarshal(query[2:])
		if err != nil {
			return
		}
		name := ""
		if len(q.Questions) > 0 {
			name = q.Questions[0].Name
		}
		p := c.Policy()
		act := p.DNSActionFor(name)
		if act != DNSClean {
			if !c.enforce(p) {
				act = DNSClean
			} else {
				c.triggerResidual(p, f.Src.IP)
			}
		}
		if act == DNSInject {
			// Injection: the forged answer leaves immediately, and the
			// query still reaches the real resolver — its genuine answer
			// arrives second, which is exactly the signature Hold-On
			// detects (same ID, later, different data).
			c.Counters.Add(act.String(), 1)
			if forged := forgeDNSReply(q, DNSRedirect, p.RedirectIP); forged != nil {
				if err := dnsx.WriteMessage(client, forged); err != nil {
					return
				}
			}
			if relayDNS(client, server, query) != nil {
				return
			}
			continue
		}
		if forged := forgeDNSReply(q, act, p.RedirectIP); forged != nil {
			c.Counters.Add(act.String(), 1)
			if err := dnsx.WriteMessage(client, forged); err != nil {
				return
			}
			continue
		}
		if act == DNSDrop {
			c.Counters.Add(act.String(), 1)
			continue // swallow the query
		}
		if relayDNS(client, server, query) != nil {
			return
		}
	}
}

// relayDNS forwards a query frame to the resolver and the frame it answers
// with to the client, each by reference and as it was read: neither is
// decoded and re-encoded.
func relayDNS(client, server net.Conn, query []byte) error {
	if _, err := netem.WriteOwned(server, query); err != nil {
		return err
	}
	answer, err := dnsx.ReadFrame(server)
	if err != nil {
		return err
	}
	_, err = netem.WriteOwned(client, answer)
	return err
}

// forgeDNSReply builds the tampered response for an action, or nil if the
// action produces no response (clean or drop).
func forgeDNSReply(q *dnsx.Message, act DNSAction, redirectIP string) *dnsx.Message {
	switch act {
	case DNSNXDomain, DNSServFail, DNSRefused:
		r := q.Reply()
		switch act {
		case DNSNXDomain:
			r.RCode = dnsx.RCodeNXDomain
		case DNSServFail:
			r.RCode = dnsx.RCodeServFail
		case DNSRefused:
			r.RCode = dnsx.RCodeRefused
		}
		return r
	case DNSRedirect:
		r := q.Reply()
		name := ""
		if len(q.Questions) > 0 {
			name = q.Questions[0].Name
		}
		return r.AnswerA(name, redirectIP, 60)
	default:
		return nil
	}
}

// DefaultBlockPageHTML is the block page served when a policy does not
// provide one; its phrasing matches the templates the phase-1 classifier is
// trained on.
const DefaultBlockPageHTML = `<html><head><title>Access Denied</title>` +
	`<meta name="generator" content="isp-filter"></head>` +
	`<body><h1>This website is not accessible</h1>` +
	`<p>The site you are trying to access has been blocked under applicable law.</p>` +
	`<hr><i>Surf Safely</i></body></html>`

func (p *Policy) blockPageBody() []byte {
	if len(p.BlockPageHTML) > 0 {
		return p.BlockPageHTML
	}
	return []byte(DefaultBlockPageHTML)
}

func (p *Policy) blockPageResponse() *httpx.Response {
	resp := httpx.NewResponse(200, p.blockPageBody())
	resp.Header.Set("Content-Type", "text/html")
	resp.Header.Set("Connection", "close")
	return resp
}

func (p *Policy) iframeResponse() *httpx.Response {
	body := fmt.Sprintf(`<html><head><title></title></head><body>`+
		`<iframe src="http://%s" width="100%%" height="100%%" frameborder="0"></iframe>`+
		`</body></html>`, p.BlockPageURL)
	resp := httpx.NewResponse(200, []byte(body))
	resp.Header.Set("Content-Type", "text/html")
	resp.Header.Set("Connection", "close")
	return resp
}

// ResolverHandler returns a dnsx.Handler for the ISP's recursive resolver:
// it applies the DNS policy first and otherwise answers honestly from reg.
func (c *Censor) ResolverHandler(reg *dnsx.Registry, ttl uint32) dnsx.Handler {
	honest := dnsx.AuthHandler(reg, ttl)
	return dnsx.HandlerFunc(func(q *dnsx.Message, flow netem.Flow) *dnsx.Message {
		name := ""
		if len(q.Questions) > 0 {
			name = q.Questions[0].Name
		}
		p := c.Policy()
		act := p.DNSActionFor(name)
		if act != DNSClean && !c.enforce(p) {
			act = DNSClean
		}
		if act == DNSClean {
			return honest.HandleDNS(q, flow)
		}
		if act == DNSInject {
			act = DNSRedirect // a lying resolver cannot "race" itself
		}
		c.Counters.Add(act.String(), 1)
		c.triggerResidual(p, flow.Src.IP)
		return forgeDNSReply(q, act, p.RedirectIP) // nil for DNSDrop: server stays silent
	})
}
