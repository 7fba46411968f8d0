package censor

import (
	"fmt"
	"math"
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
	switch decide(c, p, f.Src.IP, p.IPActionFor(f.Dst.IP)) {
	case IPDrop:
		c.Counters.Add("ip-drop", 1)
		return netem.VerdictDrop
	case IPReset:
		c.Counters.Add("ip-reset", 1)
		return netem.VerdictReset
	}
	return netem.VerdictPass
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

// handleHTTP inspects each request of the stream where it lies in what the
// client sent, enforcing URL and keyword rules: a clean request goes on to
// the origin as it came, by reference, and the origin answers the client
// itself; a blocked one is answered, reset or blackholed here.
func (c *Censor) handleHTTP(f netem.Flow, s *netem.Session) {
	var r held
	for {
		h, err := take(&r, s, requestHead, httpx.ErrIncomplete)
		if err != nil {
			s.Close()
			return
		}
		p := c.Policy()
		act := decide(c, p, f.Src.IP, httpActionFor(p, h.Host, h.Target))
		if act == HTTPClean {
			// Count what the censor *observes* passing, per (host,target):
			// the raw material for traffic-analysis/fingerprinting studies
			// (§8 discusses whether C-Saw's redundant requests stand out).
			c.Counters.Add("http-pass", 1)
			if r.pass(s, h.BodyLen) != nil {
				s.Close()
				return
			}
			continue
		}
		c.Counters.Add(act.String(), 1)
		switch act {
		case HTTPDrop:
			s.Blackhole() // leaves the client hanging
			return
		case HTTPReset:
			s.Reset()
			return
		case HTTPBlockPage:
			_ = httpx.WriteResponse(s, p.blockPageResponse())
		case HTTPRedirect:
			resp := httpx.NewResponse(302, []byte("blocked"))
			resp.Header.Set("Location", "http://"+p.BlockPageURL)
			resp.Header.Set("Connection", "close")
			_ = httpx.WriteResponse(s, resp)
		case HTTPIframe:
			_ = httpx.WriteResponse(s, p.iframeResponse())
		}
		s.Close()
		return
	}
}

// handleTLS judges the ClientHello on its SNI where it lies, then passes it
// on as it came, with whatever followed it, and opens the gate for the rest
// of the stream, or kills it. A stream that is not pseudo-TLS, or whose
// client leaves mid-hello, is passed as far as it was taken: censors pass
// traffic they cannot parse.
func (c *Censor) handleTLS(f netem.Flow, s *netem.Session) {
	var r held
	act := TLSClean
	if h, err := take(&r, s, clientHello, tlsx.ErrIncomplete); err == nil {
		p := c.Policy()
		act = decide(c, p, f.Src.IP, longestMatch(p.SNI, ruleName(h.Name), TLSClean))
	}
	switch act {
	case TLSDrop:
		c.Counters.Add("sni-drop", 1)
		s.Blackhole()
	case TLSReset:
		c.Counters.Add("sni-reset", 1)
		s.Reset()
	default:
		if r.pass(s, len(r.rest)) != nil {
			s.Close()
			return
		}
		s.Splice()
	}
}

// requestHead and clientHello are the parsers take cuts messages with:
// each answers the message b starts with and its length.
func requestHead(b []byte) (httpx.RequestHead, int, error) {
	h, err := httpx.ParseRequestHead(b)
	return h, h.Len, err
}

func clientHello(b []byte) (tlsx.RawHello, int, error) {
	h, err := tlsx.ParseHello(b)
	return h, h.Len, err
}

// held cuts what a session holds into messages: the segments one message
// came in, by reference, and the bytes taken past it.
type held struct {
	first   []byte   // the message's first segment, cut where the message ends
	more    [][]byte // its further segments, when it came in several
	rest    []byte   // taken and not passed: what follows the message
	scratch []byte   // a message that came in several segments, joined
}

// take takes the next message off s and parses it: parse sees the message
// so far in one piece, and segments are taken until it answers other than
// incomplete. A whole message's segments are cut where it ends; on an error
// they hold everything taken.
func take[M any](r *held, s *netem.Session, parse func([]byte) (M, int, error), incomplete error) (M, error) {
	r.first, r.more, r.rest = r.rest, r.more[:0], nil
	buf := r.first // the message so far, contiguous
	for {
		if len(buf) > 0 {
			m, n, err := parse(buf)
			if err != incomplete {
				if err == nil {
					r.cut(n)
				}
				return m, err
			}
		}
		chunk, err := s.Take(math.MaxInt)
		if err != nil {
			var none M
			return none, err
		}
		switch {
		case len(chunk) == 0:
		case len(r.first) == 0:
			r.first, buf = chunk, chunk
		default:
			if len(r.more) == 0 {
				r.scratch = append(r.scratch[:0], r.first...)
			}
			r.more = append(r.more, chunk)
			r.scratch = append(r.scratch, chunk...)
			buf = r.scratch
		}
	}
}

// cut ends the message's segments after n bytes; what follows is the rest.
func (r *held) cut(n int) {
	if n <= len(r.first) {
		r.first, r.rest, r.more = r.first[:n], r.first[n:], r.more[:0]
		return
	}
	n -= len(r.first)
	for i, part := range r.more {
		if n <= len(part) {
			r.more, r.rest = r.more[:i+1], part[n:]
			r.more[i] = part[:n]
			return
		}
		n -= len(part)
	}
}

// pass hands the message to the server, each segment as it came, then the
// tail bytes that follow it: first from the rest, then taken as they come.
func (r *held) pass(s *netem.Session, tail int) error {
	if err := s.Pass(r.first); err != nil {
		return err
	}
	for _, part := range r.more {
		if err := s.Pass(part); err != nil {
			return err
		}
	}
	for tail > 0 {
		part := r.rest
		if len(part) == 0 {
			var err error
			if part, err = s.Take(tail); err != nil {
				return err
			}
		}
		k := min(tail, len(part))
		part, r.rest = part[:k], part[k:]
		if k > 0 {
			if err := s.Pass(part); err != nil {
				return err
			}
		}
		tail -= k
	}
	return nil
}

// handleDNS applies the DNS policy on-path to queries bound for foreign
// resolvers (DNS injection). A query is decoded only to read its name; a
// query that passes crosses as the frame that was taken, and the resolver
// answers the client directly.
func (c *Censor) handleDNS(f netem.Flow, s *netem.Session) {
	defer s.Close()
	for {
		query, err := dnsx.ReadFrame(s)
		if err != nil {
			return
		}
		q, err := dnsx.Unmarshal(query[2:])
		if err != nil {
			return
		}
		p := c.Policy()
		act := decide(c, p, f.Src.IP, p.DNSActionFor(queried(q)))
		if act != DNSClean {
			c.Counters.Add(act.String(), 1)
		}
		if forged := forgeDNSReply(q, act, p.RedirectIP); forged != nil && dnsx.WriteMessage(s, forged) != nil {
			return
		}
		// Injection: the forged answer has left, and the query still
		// reaches the real resolver — its genuine answer arrives second,
		// which is exactly the signature Hold-On detects (same ID, later,
		// different data).
		if (act == DNSClean || act == DNSInject) && s.Pass(query) != nil {
			return
		}
	}
}

// queried is the name q asks about, or "".
func queried(q *dnsx.Message) string {
	if len(q.Questions) > 0 {
		return q.Questions[0].Name
	}
	return ""
}

// forgeDNSReply builds the tampered response for an action, or nil if the
// action produces no response (clean or drop). An injected answer is a
// redirect.
func forgeDNSReply(q *dnsx.Message, act DNSAction, redirectIP string) *dnsx.Message {
	var rcode int
	switch act {
	case DNSNXDomain:
		rcode = dnsx.RCodeNXDomain
	case DNSServFail:
		rcode = dnsx.RCodeServFail
	case DNSRefused:
		rcode = dnsx.RCodeRefused
	case DNSRedirect, DNSInject:
		return q.Reply().AnswerA(queried(q), redirectIP, 60)
	default:
		return nil
	}
	r := q.Reply()
	r.RCode = rcode
	return r
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
		p := c.Policy()
		act := decide(c, p, flow.Src.IP, p.DNSActionFor(queried(q)))
		if act == DNSClean {
			return honest.HandleDNS(q, flow)
		}
		if act == DNSInject {
			act = DNSRedirect // a lying resolver cannot "race" itself
		}
		c.Counters.Add(act.String(), 1)
		return forgeDNSReply(q, act, p.RedirectIP) // nil for DNSDrop: server stays silent
	})
}
