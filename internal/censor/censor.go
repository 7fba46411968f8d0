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
	"unicode/utf8"
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

// ruleName is a queried name, Host value or SNI as the rules see it: no
// trailing dot, no port, and lowered only when it is not ASCII — matchLen
// folds an ASCII name's letters as it compares them, so one costs no copy.
func ruleName[T text](host T) T {
	if n := len(host); n > 0 && host[n-1] == '.' {
		host = host[:n-1]
	}
	for i := 0; i < len(host); i++ {
		if host[i] == ':' {
			host = host[:i]
			break
		}
	}
	if !isASCII(host) {
		return T(strings.ToLower(string(host)))
	}
	return host
}

// domainMatch reports whether name (a ruleName) equals pattern or is a
// subdomain of it.
func domainMatch(pattern, name string) bool { return matchLen(pattern, name) >= 0 }

// matchLen is the length of pattern, trailing dot dropped and lowered, when
// name (a ruleName) equals it or is a subdomain of it, and -1 when not. The
// pattern is compared with the end of name from its last byte back, the
// ASCII letters of both folded as they are met, so a rule costs no
// allocation; a pattern with a non-ASCII byte is lowered whole once the
// scan meets it, as strings.ToLower may change its length.
func matchLen[T text](pattern string, name T) int {
	pattern = strings.TrimSuffix(pattern, ".")
	sub := len(name) - len(pattern) // what a subdomain puts in front, dot included
	for i := len(pattern) - 1; i >= 0; i-- {
		c := pattern[i]
		if c >= utf8.RuneSelf {
			pattern = strings.ToLower(pattern)
			sub = len(name) - len(pattern)
			if sub < 0 || !equalFold(name[sub:], pattern) {
				return -1
			}
			break
		}
		if sub+i < 0 || lower(name[sub+i]) != lower(c) {
			return -1
		}
	}
	if sub != 0 && name[sub-1] != '.' {
		return -1
	}
	return len(pattern)
}

// text is what a rule matches: a string, or the bytes a request head came
// in.
type text interface{ ~string | ~[]byte }

// lower folds an ASCII upper-case letter.
func lower(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// equalFold reports whether s equals t, ASCII letters folded.
func equalFold[T text](s T, t string) bool {
	if len(s) != len(t) {
		return false
	}
	for i := 0; i < len(t); i++ {
		if lower(s[i]) != lower(t[i]) {
			return false
		}
	}
	return true
}

// hasPrefix is strings.HasPrefix over text.
func hasPrefix[T text](s T, prefix string) bool {
	if len(s) < len(prefix) {
		return false
	}
	for i := 0; i < len(prefix); i++ {
		if s[i] != prefix[i] {
			return false
		}
	}
	return true
}

// isASCII reports whether s holds no byte of a multi-byte rune.
func isASCII[T text](s T) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// longestMatch returns the action of the longest pattern in rules that
// name (a ruleName) matches, or none. A more specific rule wins whatever
// the map's order: "www.youtube.com" overrides "youtube.com" for its own
// names. Patterns that differ only in case or a trailing dot tie; the least
// of them in byte order wins.
func longestMatch[A any, T text](rules map[string]A, name T, none A) A {
	act, best, bestPat := none, -1, ""
	for pat, a := range rules {
		if n := matchLen(pat, name); n > best || n >= 0 && n == best && pat < bestPat {
			act, best, bestPat = a, n, pat
		}
	}
	return act
}

// DNSActionFor returns the action for a queried name: that of the longest
// DNS pattern it matches.
func (p *Policy) DNSActionFor(name string) DNSAction {
	return longestMatch(p.DNS, ruleName(name), DNSClean)
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
	return httpActionFor(p, host, target)
}

// httpActionFor is HTTPActionFor over strings or the bytes of a request
// head. An ASCII request is matched as it lies, its letters folded as they
// are compared, at no allocation; any other is lowered whole first, as
// strings.ToLower may change its length.
func httpActionFor[T text](p *Policy, host, target T) HTTPAction {
	if !isASCII(host) || !isASCII(target) {
		return p.httpActionLowered(string(host), string(target))
	}
	name := ruleName(host)
	for _, r := range p.HTTP {
		if matchLen(r.Host, name) >= 0 && hasPrefix(target, r.PathPrefix) {
			return r.Action
		}
	}
	for _, r := range p.Keywords {
		if isASCII(r.Keyword) && containsFold(host, target, r.Keyword) ||
			!isASCII(r.Keyword) && strings.Contains(strings.ToLower(string(host)+string(target)), strings.ToLower(r.Keyword)) {
			return r.Action
		}
	}
	return HTTPClean
}

// httpActionLowered is httpActionFor for a request with a non-ASCII byte.
func (p *Policy) httpActionLowered(host, target string) HTTPAction {
	name := ruleName(host)
	for _, r := range p.HTTP {
		if domainMatch(r.Host, name) && strings.HasPrefix(target, r.PathPrefix) {
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

// containsFold reports whether host‖target contains kw, ASCII letters
// folded: for ASCII strings, strings.Contains(strings.ToLower(host+target),
// strings.ToLower(kw)), without the concatenation — a match may straddle
// the two.
func containsFold[T text](host, target T, kw string) bool {
	at := func(i int) byte {
		if i < len(host) {
			return host[i]
		}
		return target[i-len(host)]
	}
	for i := 0; i+len(kw) <= len(host)+len(target); i++ {
		j := 0
		for j < len(kw) && lower(at(i+j)) == lower(kw[j]) {
			j++
		}
		if j == len(kw) {
			return true
		}
	}
	return false
}

// SNIActionFor returns the action for a TLS SNI value: that of the longest
// SNI pattern it matches.
func (p *Policy) SNIActionFor(sni string) TLSAction {
	return longestMatch(p.SNI, ruleName(sni), TLSClean)
}

// hasStreamRules reports whether any stream-level inspection is needed.
func (p *Policy) hasStreamRules() bool {
	return len(p.HTTP) > 0 || len(p.Keywords) > 0 || len(p.SNI) > 0 || p.InterceptForeignDNS
}
