// Package censor implements the adversary of the paper: an ISP-level,
// on-path filtering middlebox with the capabilities catalogued in §2.1.
//
// A Censor attaches to a netem.AS as its egress Interceptor and enforces a
// Policy with independent mechanisms per protocol stage:
//
//   - DNS tampering at the ISP resolver (NXDOMAIN, SERVFAIL, REFUSED,
//     dropped queries, redirects to a block-page host) and, optionally,
//     on-path interception of queries to foreign resolvers;
//   - IP blacklisting at connect time (drop the SYN or inject an RST);
//   - HTTP filtering on the request line and Host header (drop, RST,
//     direct block page, 302 redirect to a block-page URL, or an iframe
//     block page — the mechanisms of Table 1 and Figure 2) plus keyword
//     rules matched against host+path;
//   - TLS SNI filtering (drop or RST on the ClientHello).
//
// Policies are swappable at runtime, which is how the §7.5 "C-Saw in the
// wild" timeline (Twitter/Instagram blocked mid-run) is reproduced, and how
// multi-stage blocking (ISP-B in Table 1: DNS + HTTP/HTTPS) is expressed —
// just configure several stages for the same domain.
package censor

import (
	"strings"
	"time"
)

// DNSAction is what the censor-controlled resolver does for a name.
type DNSAction int

// DNS tampering mechanisms (Figure 2's DNS categories).
const (
	DNSClean    DNSAction = iota
	DNSNXDomain           // answer NXDOMAIN
	DNSServFail           // answer SERVFAIL
	DNSRefused            // answer REFUSED
	DNSDrop               // never answer ("No DNS")
	DNSRedirect           // answer with the policy's RedirectIP ("DNS Redir")
	// DNSInject races a forged answer against the genuine one: the on-path
	// injector replies immediately with RedirectIP and still lets the real
	// resolver's answer through afterwards — the Great-Firewall-style
	// injection that the Hold-On defense [31] exists for. Only meaningful
	// for on-path interception (InterceptForeignDNS); at the ISP resolver
	// it behaves like DNSRedirect.
	DNSInject
)

// String returns the action name.
func (a DNSAction) String() string {
	switch a {
	case DNSClean:
		return "dns-clean"
	case DNSNXDomain:
		return "dns-nxdomain"
	case DNSServFail:
		return "dns-servfail"
	case DNSRefused:
		return "dns-refused"
	case DNSDrop:
		return "dns-drop"
	case DNSRedirect:
		return "dns-redirect"
	case DNSInject:
		return "dns-inject"
	default:
		return "dns-action(?)"
	}
}

// IPAction is connect-time blocking.
type IPAction int

// IP-level mechanisms.
const (
	IPClean IPAction = iota
	IPDrop           // blackhole the SYN: client times out
	IPReset          // inject an RST: client fails fast
)

// HTTPAction is what happens to a matching HTTP request.
type HTTPAction int

// HTTP-level mechanisms.
const (
	HTTPClean     HTTPAction = iota
	HTTPDrop                 // swallow the request ("No HTTP Resp")
	HTTPReset                // inject an RST
	HTTPBlockPage            // serve the block page directly (200)
	HTTPRedirect             // 302 to the policy's BlockPageURL
	HTTPIframe               // 200 page embedding the block page in an iframe
)

// String returns the action name.
func (a HTTPAction) String() string {
	switch a {
	case HTTPClean:
		return "http-clean"
	case HTTPDrop:
		return "http-drop"
	case HTTPReset:
		return "http-reset"
	case HTTPBlockPage:
		return "http-blockpage"
	case HTTPRedirect:
		return "http-redirect"
	case HTTPIframe:
		return "http-iframe"
	default:
		return "http-action(?)"
	}
}

// TLSAction is what happens on a blacklisted SNI.
type TLSAction int

// TLS-level mechanisms.
const (
	TLSClean TLSAction = iota
	TLSDrop
	TLSReset
)

// HTTPRule blocks requests whose Host matches the Host pattern (exact
// domain or subdomain) and whose target starts with PathPrefix ("" or "/"
// matches everything).
type HTTPRule struct {
	Host       string
	PathPrefix string
	Action     HTTPAction
}

// KeywordRule blocks any request whose "host+target" contains Keyword,
// case-insensitively — the keyword filtering that the "IP as hostname"
// local fix sidesteps (§2.3).
type KeywordRule struct {
	Keyword string
	Action  HTTPAction
}

// Policy is one ISP's filtering configuration. All matching on domains uses
// suffix semantics: a rule for "youtube.com" also covers
// "www.youtube.com".
type Policy struct {
	Name string

	DNS        map[string]DNSAction
	RedirectIP string // A record served for DNSRedirect names

	IP map[string]IPAction

	HTTP     []HTTPRule
	Keywords []KeywordRule

	SNI map[string]TLSAction

	// BlockPageURL is "host/path" of the ISP block page used by
	// HTTPRedirect and HTTPIframe; BlockPageHTML is the body served for
	// HTTPBlockPage.
	BlockPageURL  string
	BlockPageHTML []byte

	// InterceptForeignDNS also applies the DNS policy on-path to queries
	// sent to resolvers outside the ISP (public-DNS censorship).
	InterceptForeignDNS bool

	// Intermittent is the probability in [0,1) that a *matched* rule is
	// skipped — the censor "blinks", as real deployments measurably do.
	// Zero keeps enforcement deterministic. Effective only after
	// Censor.EnableChurn, which provides the seeded RNG.
	Intermittent float64

	// ResidualWindow, when positive, punishes a client beyond the
	// triggering flow: after any enforcement event, *all* new flows from
	// that client's source IP are dropped at connect time until the window
	// elapses — including circumvention traffic, which is what makes a
	// failover ladder necessary. Effective only after Censor.EnableChurn,
	// which provides the virtual clock.
	ResidualWindow time.Duration
}

// matchName is a queried name, Host value or SNI as the rules see it: no
// trailing dot, lower case, no port. A request pays for it once, not once
// per rule.
func matchName(host string) string {
	host = strings.ToLower(strings.TrimSuffix(host, "."))
	if i := strings.IndexByte(host, ':'); i >= 0 {
		host = host[:i]
	}
	return host
}

// domainMatch reports whether name (a matchName) equals pattern or is a
// subdomain of it. Rules are written in lower case, which makes lowering
// the pattern a look at its bytes that allocates nothing.
func domainMatch(pattern, name string) bool {
	pattern = strings.ToLower(strings.TrimSuffix(pattern, "."))
	if !strings.HasSuffix(name, pattern) {
		return false
	}
	sub := len(name) - len(pattern) // what a subdomain puts in front, dot included
	return sub == 0 || name[sub-1] == '.'
}

// DNSActionFor returns the action for a queried name.
func (p *Policy) DNSActionFor(name string) DNSAction {
	name = matchName(name)
	for pat, act := range p.DNS {
		if domainMatch(pat, name) {
			return act
		}
	}
	return DNSClean
}

// IPActionFor returns the action for a destination IP.
func (p *Policy) IPActionFor(ip string) IPAction {
	if a, ok := p.IP[ip]; ok {
		return a
	}
	return IPClean
}

// HTTPActionFor returns the action for a request identified by host and
// target, considering URL rules first, then keyword rules.
func (p *Policy) HTTPActionFor(host, target string) HTTPAction {
	name := matchName(host)
	for _, r := range p.HTTP {
		if domainMatch(r.Host, name) && (r.PathPrefix == "" || strings.HasPrefix(target, r.PathPrefix)) {
			return r.Action
		}
	}
	if len(p.Keywords) > 0 {
		url := strings.ToLower(host + target)
		for _, r := range p.Keywords {
			if strings.Contains(url, strings.ToLower(r.Keyword)) {
				return r.Action
			}
		}
	}
	return HTTPClean
}

// SNIActionFor returns the action for a TLS SNI value.
func (p *Policy) SNIActionFor(sni string) TLSAction {
	sni = matchName(sni)
	for pat, act := range p.SNI {
		if domainMatch(pat, sni) {
			return act
		}
	}
	return TLSClean
}

// hasStreamRules reports whether any stream-level inspection is needed.
func (p *Policy) hasStreamRules() bool {
	return len(p.HTTP) > 0 || len(p.Keywords) > 0 || len(p.SNI) > 0 || p.InterceptForeignDNS
}
