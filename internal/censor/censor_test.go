package censor

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"csaw/internal/dnsx"
	"csaw/internal/httpx"
	"csaw/internal/netem"
	"csaw/internal/tlsx"
	"csaw/internal/vtime"
)

// world is a censored network: client in pk behind AS 100, ISP resolver,
// block-page host inside the ISP, origin server abroad on :80 and :443.
type world struct {
	n        *netem.Network
	client   *netem.Host
	censor   *Censor
	reg      *dnsx.Registry
	resolver string // ISP resolver address
	public   string // foreign public resolver address
	originIP string
}

const originIP = "93.184.216.34"

// worldOption configures newWorld.
type worldOption func(*worldConfig)

type worldConfig struct{ clock *vtime.Clock }

// withClock runs the world on clock instead of a scaled clock.
func withClock(c *vtime.Clock) worldOption { return func(w *worldConfig) { w.clock = c } }

func newWorld(t *testing.T, p *Policy, opts ...worldOption) *world {
	t.Helper()
	cfg := worldConfig{clock: vtime.New(500)}
	for _, o := range opts {
		o(&cfg)
	}
	clock := cfg.clock
	n := netem.New(clock, netem.WithSeed(5))
	isp := n.AddAS(100, "ISP-A", "PK")
	us := n.AddAS(200, "US", "US")

	client := n.MustAddHost("client", "10.0.0.1", "pk", isp)
	resolver := n.MustAddHost("resolver", "10.0.0.53", "pk", isp)
	public := n.MustAddHost("public-dns", "8.8.8.8", "us", us)
	origin := n.MustAddHost("origin", originIP, "us", us)
	blockHost := n.MustAddHost("block.isp.pk", "10.0.9.9", "pk", isp)
	n.SetRTT("pk", "us", 150*time.Millisecond)

	reg := dnsx.NewRegistry()
	reg.Set("www.youtube.com", originIP)
	reg.Set("ok.example.com", originIP)
	reg.Set("block.isp.pk", "10.0.9.9")

	cen := New(p)
	cen.Attach(isp)

	// ISP resolver applies the policy; public resolver is honest.
	if _, err := dnsx.NewServer(resolver, cen.ResolverHandler(reg, 300)); err != nil {
		t.Fatal(err)
	}
	if _, err := dnsx.NewServer(public, dnsx.AuthHandler(reg, 300)); err != nil {
		t.Fatal(err)
	}

	// Origin serves HTTP and pseudo-TLS HTTPS.
	pageHandler := httpx.HandlerFunc(func(req *httpx.Request, _ netem.Flow) *httpx.Response {
		return httpx.NewResponse(200, []byte("<html><title>Real Page</title><body>content of "+req.URL()+"</body></html>"))
	})
	httpx.Serve(origin.MustListen(80), pageHandler)
	serveTLS(t, origin, tlsx.CertFor("www.youtube.com", "ok.example.com"), pageHandler)

	// ISP block-page host.
	httpx.Serve(blockHost.MustListen(80), httpx.HandlerFunc(func(*httpx.Request, netem.Flow) *httpx.Response {
		resp := httpx.NewResponse(200, []byte(DefaultBlockPageHTML))
		resp.Header.Set("Content-Type", "text/html")
		return resp
	}))

	return &world{
		n: n, client: client, censor: cen, reg: reg,
		resolver: "10.0.0.53:53", public: "8.8.8.8:53", originIP: originIP,
	}
}

// serveTLS accepts pseudo-TLS connections and serves HTTP over them.
func serveTLS(t *testing.T, host *netem.Host, certs tlsx.CertFunc, h httpx.Handler) {
	t.Helper()
	l := host.MustListen(tlsx.Port)
	go func() {
		for {
			raw, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				tc, err := tlsx.Server(raw, certs)
				if err != nil {
					raw.Close()
					return
				}
				httpx.ServeConn(context.Background(), tc, netem.Flow{}, h)
			}()
		}
	}()
}

func (w *world) httpClient() *httpx.Client {
	return &httpx.Client{Dial: w.client.Dial, Clock: w.n.Clock(), Timeout: 8 * time.Second}
}

func (w *world) lookup(server, name string) dnsx.Result {
	c := dnsx.NewClient(w.client, server)
	c.AttemptTimeout = 2 * time.Second
	return c.Lookup(context.Background(), name)
}

func TestDomainMatch(t *testing.T) {
	cases := []struct {
		pattern, host string
		want          bool
	}{
		{"youtube.com", "youtube.com", true},
		{"youtube.com", "www.youtube.com", true},
		{"youtube.com", "WWW.YouTube.Com", true},
		{"youtube.com", "www.youtube.com:443", true},
		{"youtube.com", "notyoutube.com", false},
		{"youtube.com", "youtube.com.evil.net", false},
		{"www.youtube.com", "youtube.com", false},
		{"youtube.com", "www.youtube.com.", true},
		{"YouTube.com.", "m.youtube.COM.:80", false}, // the dot is not the name's last byte: it stays
		{"YouTube.com.", "m.youtube.COM:80", true},
		{"youtube.com", "youtube.com:", true},
		{"youtube.com", ".youtube.com", true},
		{"youtube.com", "com", false},
		{"", "", true},
		{"", "anything.", false}, // one trailing dot goes, the name does not end in another
		{"", "anything..", true},
	}
	for _, c := range cases {
		if got := domainMatch(c.pattern, matchName(c.host)); got != c.want {
			t.Errorf("domainMatch(%q, %q) = %v, want %v", c.pattern, c.host, got, c.want)
		}
	}
}

// TestMatchingAgreesWithPerRuleNormalising holds the matchers, which
// normalise the request's name once, to the form that lowered and trimmed
// both sides for every rule: same verdict for every pattern and name, same
// action from every policy lookup.
func TestMatchingAgreesWithPerRuleNormalising(t *testing.T) {
	reference := func(pattern, host string) bool {
		pattern = strings.ToLower(strings.TrimSuffix(pattern, "."))
		host = strings.ToLower(strings.TrimSuffix(host, "."))
		if i := strings.IndexByte(host, ':'); i >= 0 {
			host = host[:i]
		}
		return host == pattern || strings.HasSuffix(host, "."+pattern)
	}
	patterns := []string{"youtube.com", "YouTube.Com", "youtube.com.", "www.youtube.com", "com", "", ".", "tube.com", "ÉCOLE.example",
		"ẞ.de", "STRAẞE.example"} // ẞ lowers to ß, a byte shorter
	names := []string{
		"youtube.com", "www.youtube.com", "WWW.YOUTUBE.COM", "Www.YouTube.com.", "www.youtube.com:443", "youtube.com.:80",
		"notyoutube.com", "youtube.com.evil.net", "com", "", ".", "..", ":80", "x.tube.com", "école.example", "www.École.example:8080",
		"ß.de", "x.ß.de", "www.straße.example", "STRASSE.example",
	}
	p := &Policy{DNS: map[string]DNSAction{}, SNI: map[string]TLSAction{}}
	for _, pat := range patterns {
		for _, name := range names {
			want := reference(pat, name)
			if got := domainMatch(pat, matchName(name)); got != want {
				t.Errorf("domainMatch(%q, %q) = %v, reference %v", pat, name, got, want)
			}
			p.DNS, p.SNI = map[string]DNSAction{pat: DNSRefused}, map[string]TLSAction{pat: TLSReset}
			p.HTTP = []HTTPRule{{Host: pat, PathPrefix: "/p", Action: HTTPDrop}}
			if got := p.DNSActionFor(name) == DNSRefused; got != want {
				t.Errorf("DNSActionFor(%q) under %q matched = %v, reference %v", name, pat, got, want)
			}
			if got := p.SNIActionFor(name) == TLSReset; got != want {
				t.Errorf("SNIActionFor(%q) under %q matched = %v, reference %v", name, pat, got, want)
			}
			if got := p.HTTPActionFor(name, "/path") == HTTPDrop; got != want {
				t.Errorf("HTTPActionFor(%q) under %q matched = %v, reference %v", name, pat, got, want)
			}
			if p.HTTPActionFor(name, "/other") != HTTPClean {
				t.Errorf("HTTPActionFor(%q, /other) under %q ignored the path prefix", name, pat)
			}
		}
	}
}

// TestLongestPatternWins holds the DNS and SNI matchers to the most
// specific rule when patterns overlap: the map's iteration order, which
// used to pick the verdict, must not matter on any call.
func TestLongestPatternWins(t *testing.T) {
	p := &Policy{
		DNS: map[string]DNSAction{"youtube.com": DNSDrop, "www.youtube.com": DNSRedirect, "m.youtube.com.": DNSRefused,
			"YouTube.Com": DNSNXDomain},
		SNI: map[string]TLSAction{"youtube.com": TLSDrop, "www.youtube.com": TLSReset},
	}
	dns := map[string]DNSAction{
		"youtube.com":         DNSNXDomain, // "YouTube.Com" and "youtube.com" tie; the least in byte order wins
		"img.youtube.com":     DNSNXDomain,
		"www.youtube.com":     DNSRedirect,
		"a.www.YouTube.com":   DNSRedirect,
		"m.youtube.com":       DNSRefused,
		"notyoutube.com":      DNSClean,
		"www.youtube.com.net": DNSClean,
	}
	sni := map[string]TLSAction{"youtube.com": TLSDrop, "img.youtube.com": TLSDrop, "www.youtube.com:443": TLSReset, "x.com": TLSClean}
	for i := 0; i < 200; i++ {
		for name, want := range dns {
			if got := p.DNSActionFor(name); got != want {
				t.Fatalf("call %d: DNSActionFor(%q) = %v, want %v", i, name, got, want)
			}
		}
		for name, want := range sni {
			if got := p.SNIActionFor(name); got != want {
				t.Fatalf("call %d: SNIActionFor(%q) = %v, want %v", i, name, got, want)
			}
		}
	}
}

// TestPolicyMatchAllocatesNothing pins rule matching to no allocation for
// a name already in lower case, whatever the case of the rules: patterns
// are folded byte by byte as they are compared, not lowered per rule.
func TestPolicyMatchAllocatesNothing(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts are not exact under the race detector")
			}
		}
	}
	p := &Policy{
		DNS: map[string]DNSAction{"YouTube.com": DNSDrop, "www.youtube.com.": DNSRedirect, "example.pk": DNSRefused},
		SNI: map[string]TLSAction{"YOUTUBE.COM": TLSReset, "twitter.com": TLSDrop},
	}
	for i := 0; i < 40; i++ {
		p.HTTP = append(p.HTTP, HTTPRule{Host: fmt.Sprintf("Site%02d.Example.NET", i), Action: HTTPBlockPage})
	}
	var dns DNSAction
	var sni TLSAction
	var http HTTPAction
	if n := testing.AllocsPerRun(100, func() {
		dns = p.DNSActionFor("www.youtube.com")
		sni = p.SNIActionFor("m.youtube.com:443")
		http = p.HTTPActionFor("site39.example.net", "/")
	}); n != 0 {
		t.Errorf("matching allocates %v times, want 0", n)
	}
	if dns != DNSRedirect || sni != TLSReset || http != HTTPBlockPage {
		t.Errorf("verdicts %v, %v, %v; want %v, %v, %v", dns, sni, http, DNSRedirect, TLSReset, HTTPBlockPage)
	}
}

func TestPolicyHTTPMatching(t *testing.T) {
	p := &Policy{
		HTTP: []HTTPRule{
			{Host: "foo.com", PathPrefix: "/banned/", Action: HTTPReset},
			{Host: "bar.com", Action: HTTPBlockPage},
		},
		Keywords: []KeywordRule{{Keyword: "forbidden-word", Action: HTTPDrop}},
	}
	if p.HTTPActionFor("foo.com", "/banned/x.html") != HTTPReset {
		t.Error("path-prefix rule missed")
	}
	if p.HTTPActionFor("foo.com", "/fine.html") != HTTPClean {
		t.Error("non-matching path blocked")
	}
	if p.HTTPActionFor("www.bar.com", "/anything") != HTTPBlockPage {
		t.Error("subdomain rule missed")
	}
	if p.HTTPActionFor("baz.com", "/a-Forbidden-Word-here") != HTTPDrop {
		t.Error("keyword rule missed")
	}
	if p.HTTPActionFor("baz.com", "/clean") != HTTPClean {
		t.Error("clean URL blocked")
	}
}

func TestDNSTamperingModes(t *testing.T) {
	cases := []struct {
		act       DNSAction
		wantRC    int
		wantIP    string
		wantErrIs error
	}{
		{DNSNXDomain, dnsx.RCodeNXDomain, "", dnsx.ErrRCode},
		{DNSServFail, dnsx.RCodeServFail, "", dnsx.ErrRCode},
		{DNSRefused, dnsx.RCodeRefused, "", dnsx.ErrRCode},
		{DNSDrop, 0, "", dnsx.ErrNoResponse},
		{DNSRedirect, dnsx.RCodeNoError, "10.0.9.9", nil},
	}
	for _, c := range cases {
		t.Run(c.act.String(), func(t *testing.T) {
			w := newWorld(t, &Policy{
				DNS:        map[string]DNSAction{"youtube.com": c.act},
				RedirectIP: "10.0.9.9",
			})
			res := w.lookup(w.resolver, "www.youtube.com")
			if c.wantErrIs != nil {
				if !errors.Is(res.Err, c.wantErrIs) {
					t.Fatalf("err = %v, want %v", res.Err, c.wantErrIs)
				}
				if c.wantRC != 0 && res.RCode != c.wantRC {
					t.Fatalf("rcode = %d, want %d", res.RCode, c.wantRC)
				}
				return
			}
			if !res.OK() || res.IPs[0] != c.wantIP {
				t.Fatalf("result = %+v, want IP %s", res, c.wantIP)
			}
			// Unblocked names still resolve honestly.
			res2 := w.lookup(w.resolver, "ok.example.com")
			if !res2.OK() || res2.IPs[0] != originIP {
				t.Fatalf("clean lookup = %+v", res2)
			}
		})
	}
}

func TestForeignDNSInterception(t *testing.T) {
	p := &Policy{
		DNS:                 map[string]DNSAction{"youtube.com": DNSNXDomain},
		InterceptForeignDNS: true,
	}
	w := newWorld(t, p)
	res := w.lookup(w.public, "www.youtube.com")
	if !errors.Is(res.Err, dnsx.ErrRCode) || res.RCode != dnsx.RCodeNXDomain {
		t.Fatalf("intercepted public lookup = %+v, want forged NXDOMAIN", res)
	}
	// Clean names pass through the interceptor to the real resolver.
	res2 := w.lookup(w.public, "ok.example.com")
	if !res2.OK() || res2.IPs[0] != originIP {
		t.Fatalf("clean public lookup = %+v", res2)
	}
}

func TestPublicDNSBypassesResolverOnlyBlocking(t *testing.T) {
	// Without foreign interception, the public-DNS local fix works.
	w := newWorld(t, &Policy{DNS: map[string]DNSAction{"youtube.com": DNSNXDomain}})
	res := w.lookup(w.public, "www.youtube.com")
	if !res.OK() || res.IPs[0] != originIP {
		t.Fatalf("public lookup = %+v, want honest answer", res)
	}
}

func TestIPBlocking(t *testing.T) {
	w := newWorld(t, &Policy{IP: map[string]IPAction{originIP: IPReset}})
	_, err := w.client.DialTimeout(originIP+":80", 3*time.Second)
	if !netem.IsReset(err) {
		t.Fatalf("dial = %v, want reset", err)
	}
	if w.censor.Counters.Get("ip-reset") != 1 {
		t.Error("ip-reset not counted")
	}

	w2 := newWorld(t, &Policy{IP: map[string]IPAction{originIP: IPDrop}})
	start := w2.n.Clock().Now()
	_, err = w2.client.DialTimeout(originIP+":80", 3*time.Second)
	if !netem.IsTimeout(err) {
		t.Fatalf("dial = %v, want timeout", err)
	}
	if el := w2.n.Clock().Since(start); el < 2*time.Second {
		t.Errorf("IP drop failed after %v, want full timeout", el)
	}
}

func TestHTTPBlockPage(t *testing.T) {
	w := newWorld(t, &Policy{HTTP: []HTTPRule{{Host: "youtube.com", Action: HTTPBlockPage}}})
	resp, err := w.httpClient().Get(context.Background(), originIP+":80", "www.youtube.com", "/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || string(resp.Body) != DefaultBlockPageHTML {
		t.Fatalf("resp = %d %q", resp.StatusCode, resp.Body)
	}
	// Clean host through the same censor is untouched.
	resp2, err := w.httpClient().Get(context.Background(), originIP+":80", "ok.example.com", "/")
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != 200 || string(resp2.Body) == DefaultBlockPageHTML {
		t.Fatalf("clean resp = %d %q", resp2.StatusCode, resp2.Body)
	}
}

func TestHTTPRedirectToBlockPage(t *testing.T) {
	w := newWorld(t, &Policy{
		HTTP:         []HTTPRule{{Host: "youtube.com", Action: HTTPRedirect}},
		BlockPageURL: "block.isp.pk/blocked.html",
	})
	resp, err := w.httpClient().Get(context.Background(), originIP+":80", "www.youtube.com", "/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 302 {
		t.Fatalf("status = %d, want 302", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "http://block.isp.pk/blocked.html" {
		t.Fatalf("Location = %q", loc)
	}
	// Following the redirect (via the ISP's own DNS) lands on the block page.
	res := w.lookup(w.resolver, "block.isp.pk")
	if !res.OK() {
		t.Fatalf("block host lookup: %+v", res)
	}
	resp2, err := w.httpClient().Get(context.Background(), res.IPs[0]+":80", "block.isp.pk", "/blocked.html")
	if err != nil {
		t.Fatal(err)
	}
	if string(resp2.Body) != DefaultBlockPageHTML {
		t.Fatalf("block page body = %q", resp2.Body)
	}
}

func TestHTTPIframeBlockPage(t *testing.T) {
	w := newWorld(t, &Policy{
		HTTP:         []HTTPRule{{Host: "youtube.com", Action: HTTPIframe}},
		BlockPageURL: "block.isp.pk/blocked.html",
	})
	resp, err := w.httpClient().Get(context.Background(), originIP+":80", "www.youtube.com", "/")
	if err != nil {
		t.Fatal(err)
	}
	body := string(resp.Body)
	if resp.StatusCode != 200 || !contains(body, "<iframe") || !contains(body, "block.isp.pk") {
		t.Fatalf("iframe resp = %d %q", resp.StatusCode, body)
	}
}

func contains(s, sub string) bool { return len(s) >= len(sub) && (stringContains(s, sub)) }

func stringContains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestHTTPDrop(t *testing.T) {
	w := newWorld(t, &Policy{HTTP: []HTTPRule{{Host: "youtube.com", Action: HTTPDrop}}})
	c := w.httpClient()
	c.Timeout = 3 * time.Second
	start := w.n.Clock().Now()
	_, err := c.Get(context.Background(), originIP+":80", "www.youtube.com", "/")
	if err == nil {
		t.Fatal("dropped request succeeded")
	}
	if el := w.n.Clock().Since(start); el < 2*time.Second {
		t.Errorf("drop surfaced after %v, want full timeout", el)
	}
}

func TestHTTPReset(t *testing.T) {
	w := newWorld(t, &Policy{HTTP: []HTTPRule{{Host: "youtube.com", Action: HTTPReset}}})
	_, err := w.httpClient().Get(context.Background(), originIP+":80", "www.youtube.com", "/")
	if err == nil || !netem.IsReset(err) {
		t.Fatalf("err = %v, want reset", err)
	}
}

// TestHTTPMixedCaseConnectionClose: header values are case-insensitive, so
// "Connection: Close" ends the exchange for the middlebox exactly as it does
// for the server — the client sees EOF after the response instead of a
// censor still waiting for a next request on a finished conn.
func TestHTTPMixedCaseConnectionClose(t *testing.T) {
	w := newWorld(t, &Policy{HTTP: []HTTPRule{{Host: "youtube.com", Action: HTTPReset}}})
	ctx, cancel := w.n.Clock().WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	conn, err := w.client.Dial(ctx, originIP+":80")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	netem.Bind(ctx, conn)
	req := httpx.NewRequest("GET", "ok.example.com", "/")
	req.Header.Set("Connection", "Close")
	if err := httpx.WriteRequest(conn, req); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	if resp, err := httpx.ReadResponse(br); err != nil || resp.StatusCode != 200 {
		t.Fatalf("clean request through the middlebox: %v, %v", resp, err)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("after the response: %v, want EOF (the middlebox must close with the exchange)", err)
	}
}

func TestKeywordFilteringAndIPAsHostnameBypass(t *testing.T) {
	// Keyword censors match on host+path; using the raw IP as hostname
	// avoids the keyword (§2.3, Figure 1c).
	w := newWorld(t, &Policy{Keywords: []KeywordRule{{Keyword: "youtube", Action: HTTPReset}}})
	_, err := w.httpClient().Get(context.Background(), originIP+":80", "www.youtube.com", "/")
	if err == nil {
		t.Fatal("keyword-matched request passed")
	}
	resp, err := w.httpClient().Get(context.Background(), originIP+":80", originIP, "/")
	if err != nil {
		t.Fatalf("IP-as-hostname fetch failed: %v", err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestSNIBlocking(t *testing.T) {
	w := newWorld(t, &Policy{SNI: map[string]TLSAction{"youtube.com": TLSReset}})
	ctx, cancel := w.n.Clock().WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	raw, err := w.client.Dial(ctx, originIP+":443")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	netem.Bind(ctx, raw)
	if _, err := tlsx.Client(raw, "www.youtube.com", ""); err == nil {
		t.Fatal("TLS handshake with blocked SNI succeeded")
	}
}

func TestSNICleanPassesThroughInspection(t *testing.T) {
	// With SNI rules installed, *other* TLS traffic still works end to end
	// through the inspecting censor.
	w := newWorld(t, &Policy{SNI: map[string]TLSAction{"youtube.com": TLSDrop}})
	ctx, cancel := w.n.Clock().WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	raw, err := w.client.Dial(ctx, originIP+":443")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	netem.Bind(ctx, raw)
	tc, err := tlsx.Client(raw, "ok.example.com", "ok.example.com")
	if err != nil {
		t.Fatalf("clean TLS handshake: %v", err)
	}
	req := httpx.NewRequest("GET", "ok.example.com", "/")
	if err := httpx.WriteRequest(tc, req); err != nil {
		t.Fatal(err)
	}
	resp, err := httpx.ReadResponse(bufio.NewReader(tc))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestDomainFrontingDefeatsSNIBlocking(t *testing.T) {
	// Fronting: SNI names the unblocked front; the Host header (encrypted)
	// names the blocked site. The censor sees only the front's SNI.
	w := newWorld(t, &Policy{SNI: map[string]TLSAction{"youtube.com": TLSDrop}})
	ctx, cancel := w.n.Clock().WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	raw, err := w.client.Dial(ctx, originIP+":443")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	netem.Bind(ctx, raw)
	tc, err := tlsx.Client(raw, "ok.example.com", "")
	if err != nil {
		t.Fatalf("fronted handshake: %v", err)
	}
	req := httpx.NewRequest("GET", "www.youtube.com", "/watch")
	if err := httpx.WriteRequest(tc, req); err != nil {
		t.Fatal(err)
	}
	resp, err := httpx.ReadResponse(bufio.NewReader(tc))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || !stringContains(string(resp.Body), "www.youtube.com/watch") {
		t.Fatalf("fronted resp = %d %q", resp.StatusCode, resp.Body)
	}
}

func TestPolicySwapMidRun(t *testing.T) {
	w := newWorld(t, &Policy{})
	c := w.httpClient()
	if _, err := c.Get(context.Background(), originIP+":80", "www.youtube.com", "/"); err != nil {
		t.Fatalf("pre-block fetch: %v", err)
	}
	w.censor.SetPolicy(&Policy{HTTP: []HTTPRule{{Host: "youtube.com", Action: HTTPBlockPage}}})
	resp, err := c.Get(context.Background(), originIP+":80", "www.youtube.com", "/")
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != DefaultBlockPageHTML {
		t.Fatal("policy swap did not take effect")
	}
}

func TestStats(t *testing.T) {
	w := newWorld(t, &Policy{HTTP: []HTTPRule{{Host: "youtube.com", Action: HTTPBlockPage}}}, withClock(vtime.NewEventDriven()))
	c := w.httpClient()
	for i := 0; i < 3; i++ {
		if _, err := c.Get(context.Background(), originIP+":80", "www.youtube.com", "/"); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.censor.Counters.Get("http-blockpage"); got != 3 {
		t.Fatalf("stats http-blockpage = %d, want 3", got)
	}
	if s := w.censor.Counters.Snapshot(); len(s) != 1 {
		t.Fatalf("counted events beyond the three block pages: %v", s)
	}
}

func TestActionStrings(t *testing.T) {
	if DNSRedirect.String() != "dns-redirect" || HTTPIframe.String() != "http-iframe" {
		t.Error("action names wrong")
	}
	if DNSAction(99).String() != "dns-action(?)" || HTTPAction(99).String() != "http-action(?)" {
		t.Error("unknown action names wrong")
	}
}

func TestDNSInjectionAndHoldOn(t *testing.T) {
	// On-path injection: the censor races a forged answer against the
	// genuine one. A plain stub accepts the first (injected) answer; a
	// stub with Hold-On [31] waits briefly and prefers the later, genuine
	// response.
	p := &Policy{
		DNS:                 map[string]DNSAction{"youtube.com": DNSInject},
		RedirectIP:          "10.0.9.9",
		InterceptForeignDNS: true,
	}
	w := newWorld(t, p)

	plain := dnsx.NewClient(w.client, w.public)
	res := plain.Lookup(context.Background(), "www.youtube.com")
	if !res.OK() || res.IPs[0] != "10.0.9.9" {
		t.Fatalf("plain stub = %+v, want the injected answer", res)
	}

	holdon := dnsx.NewClient(w.client, w.public)
	holdon.HoldOn = 2 * time.Second
	res2 := holdon.Lookup(context.Background(), "www.youtube.com")
	if !res2.OK() || res2.IPs[0] != originIP {
		t.Fatalf("hold-on stub = %+v, want the genuine answer %s", res2, originIP)
	}
	if w.censor.Counters.Get("dns-inject") < 2 {
		t.Errorf("injection events = %d", w.censor.Counters.Get("dns-inject"))
	}
}

func TestHoldOnHarmlessOnCleanPath(t *testing.T) {
	// Hold-On must not break ordinary lookups (one answer, then silence).
	w := newWorld(t, &Policy{})
	c := dnsx.NewClient(w.client, w.resolver)
	c.HoldOn = 1 * time.Second
	res := c.Lookup(context.Background(), "ok.example.com")
	if !res.OK() || res.IPs[0] != originIP {
		t.Fatalf("hold-on on clean path = %+v", res)
	}
	// The extra wait costs at most ~HoldOn.
	if res.Took > 8*time.Second {
		t.Errorf("hold-on lookup took %v", res.Took)
	}
}

func TestDNSInjectAtResolverActsAsRedirect(t *testing.T) {
	w := newWorld(t, &Policy{
		DNS:        map[string]DNSAction{"youtube.com": DNSInject},
		RedirectIP: "10.0.9.9",
	})
	res := w.lookup(w.resolver, "www.youtube.com")
	if !res.OK() || res.IPs[0] != "10.0.9.9" {
		t.Fatalf("resolver-side inject = %+v, want redirect behaviour", res)
	}
}
