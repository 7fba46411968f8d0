package web

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"csaw/internal/httpx"
	"csaw/internal/netem"
	"csaw/internal/vtime"
)

func TestRenderAndExtract(t *testing.T) {
	s := NewSite("www.youtube.com")
	p := s.AddPage("/", "YouTube", 4096, 1000, 2000)
	p.AddExternal("cdn.example.net", "/lib.js", 500)

	html := RenderHTML(p)
	if len(html) < 4000 || len(html) > 4200 {
		t.Errorf("rendered size %d, want ≈4096", len(html))
	}
	if !strings.Contains(string(html), "<title>YouTube</title>") {
		t.Error("title missing")
	}
	links := ExtractLinks(html)
	if len(links) != 3 {
		t.Fatalf("links = %v, want 3", links)
	}
	ext := 0
	for _, l := range links {
		if l.Host == "cdn.example.net" {
			ext++
			if l.Path != "/lib.js" {
				t.Errorf("external path = %q", l.Path)
			}
		}
	}
	if ext != 1 {
		t.Errorf("external links = %d", ext)
	}
}

func TestExtractCSSHrefOnly(t *testing.T) {
	html := []byte(`<link rel="stylesheet" href="/style.css"><a href="/page.html">x</a><script src="/app.js"></script>`)
	links := ExtractLinks(html)
	if len(links) != 2 {
		t.Fatalf("links = %v, want script+css only", links)
	}
}

func TestParseLink(t *testing.T) {
	cases := []struct {
		in       string
		host, pt string
	}{
		{"/a/b.png", "", "/a/b.png"},
		{"http://cdn.x.net/a.js", "cdn.x.net", "/a.js"},
		{"https://CDN.X.NET", "cdn.x.net", "/"},
		{"img.png", "", "/img.png"},
	}
	for _, c := range cases {
		got := parseLink(c.in)
		if got.Host != c.host || got.Path != c.pt {
			t.Errorf("parseLink(%q) = %+v", c.in, got)
		}
	}
}

func TestPageTotalSize(t *testing.T) {
	s := NewSite("x.example")
	p := s.AddPage("/", "X", 1000, 200, 300)
	p.AddExternal("cdn.example", "/o.bin", 500)
	if got := p.TotalSize(); got != 2000 {
		t.Fatalf("TotalSize = %d, want 2000", got)
	}
}

func TestObjectBodyDeterministic(t *testing.T) {
	a, b := ObjectBody(100), ObjectBody(100)
	if string(a) != string(b) || len(a) != 100 {
		t.Fatal("object body not deterministic")
	}
}

// webWorld: client in pk, origin in us hosting two sites, with working DNS
// via a static lookup.
func webWorld(t *testing.T) (*netem.Network, *netem.Host, *Origin) {
	t.Helper()
	clock := vtime.New(500)
	n := netem.New(clock, netem.WithSeed(9), netem.WithBandwidth(1<<20))
	pk := n.AddAS(1, "ISP", "PK")
	us := n.AddAS(2, "US", "US")
	client := n.MustAddHost("client", "10.0.0.1", "pk", pk)
	originHost := n.MustAddHost("origin", "93.184.216.34", "us", us)
	n.SetRTT("pk", "us", 100*time.Millisecond)

	yt := NewSite("www.youtube.com")
	yt.AddPage("/", "YouTube", 8192, 20000, 30000, 10000)
	small := NewSite("small.example.com")
	small.AddPage("/", "Small", 2048)

	origin, err := NewOrigin(originHost, yt, small)
	if err != nil {
		t.Fatal(err)
	}
	return n, client, origin
}

func testTransport(n *netem.Network, client *netem.Host, tls bool) *Transport {
	return &Transport{
		Label:  "direct",
		Dialer: client.Dial,
		Lookup: StaticLookup(map[string]string{
			"www.youtube.com":   "93.184.216.34",
			"small.example.com": "93.184.216.34",
		}),
		TLS:     tls,
		Clock:   n.Clock(),
		Timeout: 20 * time.Second,
	}
}

func TestBrowserLoadsPageWithObjects(t *testing.T) {
	n, client, _ := webWorld(t)
	b := NewBrowser(testTransport(n, client, false))
	res := b.Load(context.Background(), "www.youtube.com", "/")
	if !res.OK() {
		t.Fatalf("load failed: %+v", res)
	}
	if res.Objects != 3 || res.ObjectErrs != 0 {
		t.Fatalf("objects = %d errs = %d, want 3/0", res.Objects, res.ObjectErrs)
	}
	if res.Bytes < 68000 {
		t.Errorf("bytes = %d, want ≈68KB", res.Bytes)
	}
	if res.PLT <= 0 {
		t.Error("PLT not measured")
	}
}

func TestBrowserHTTPS(t *testing.T) {
	n, client, _ := webWorld(t)
	tr := testTransport(n, client, true)
	tr.VerifyCert = true
	b := NewBrowser(tr)
	res := b.Load(context.Background(), "small.example.com", "/")
	if !res.OK() {
		t.Fatalf("https load failed: %+v", res)
	}
}

func TestDomainFrontingTransport(t *testing.T) {
	// SNI says small.example.com; Host header asks for the blocked site.
	// The shared origin serves it.
	n, client, _ := webWorld(t)
	tr := testTransport(n, client, true)
	tr.SNI = func(string) string { return "small.example.com" }
	tr.Lookup = StaticLookup(map[string]string{
		"www.youtube.com":   "93.184.216.34",
		"small.example.com": "93.184.216.34",
	})
	resp, err := tr.Fetch(context.Background(), "www.youtube.com", "/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || !strings.Contains(string(resp.Body), "YouTube") {
		t.Fatalf("fronted fetch = %d", resp.StatusCode)
	}
}

func TestIPAsHostnameTransport(t *testing.T) {
	n, client, _ := webWorld(t)
	clock := n.Clock()
	// Single-site origin so the IP-addressed request is unambiguous.
	us := n.AS(2)
	oh := n.MustAddHost("porn-origin", "198.51.100.7", "us", us)
	site := NewSite("porn.example.net")
	site.AddPage("/", "Adult Site", 2000)
	if _, err := NewOrigin(oh, site); err != nil {
		t.Fatal(err)
	}
	tr := &Transport{
		Label:      "ip-as-hostname",
		Dialer:     client.Dial,
		Lookup:     StaticLookup(map[string]string{}),
		HostHeader: func(string) string { return "198.51.100.7" },
		Clock:      clock,
		Timeout:    10 * time.Second,
	}
	resp, err := tr.Fetch(context.Background(), "198.51.100.7", "/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || !strings.Contains(string(resp.Body), "Adult Site") {
		t.Fatalf("ip-as-hostname fetch = %d %q", resp.StatusCode, resp.Body[:40])
	}
}

func TestBrowserFollowsRedirect(t *testing.T) {
	n, client, _ := webWorld(t)
	us := n.AS(2)
	rh := n.MustAddHost("redirector", "198.51.100.8", "us", us)
	l := rh.MustListen(80)
	httpx.Serve(l, httpx.HandlerFunc(func(req *httpx.Request, _ netem.Flow) *httpx.Response {
		resp := httpx.NewResponse(302, nil)
		resp.Header.Set("Location", "http://small.example.com/")
		return resp
	}))
	tr := testTransport(n, client, false)
	tr.Lookup = StaticLookup(map[string]string{
		"small.example.com": "93.184.216.34",
		"redir.example.com": "198.51.100.8",
	})
	b := NewBrowser(tr)
	res := b.Load(context.Background(), "redir.example.com", "/old")
	if !res.OK() || res.Redirects != 1 {
		t.Fatalf("redirect load: %+v", res)
	}
	if !strings.Contains(string(res.Body), "Small") {
		t.Error("final body is not the redirect target")
	}
}

func TestBrowserRedirectLoopBounded(t *testing.T) {
	n, client, _ := webWorld(t)
	us := n.AS(2)
	rh := n.MustAddHost("loop", "198.51.100.9", "us", us)
	httpx.Serve(rh.MustListen(80), httpx.HandlerFunc(func(*httpx.Request, netem.Flow) *httpx.Response {
		resp := httpx.NewResponse(302, nil)
		resp.Header.Set("Location", "http://loop.example.com/")
		return resp
	}))
	tr := testTransport(n, client, false)
	tr.Lookup = StaticLookup(map[string]string{"loop.example.com": "198.51.100.9"})
	b := NewBrowser(tr)
	res := b.Load(context.Background(), "loop.example.com", "/")
	if res.Err == nil {
		t.Fatal("redirect loop not bounded")
	}
}

func TestPLTScalesWithPageSize(t *testing.T) {
	n, client, _ := webWorld(t)
	b := NewBrowser(testTransport(n, client, false))
	big := b.Load(context.Background(), "www.youtube.com", "/")
	small := b.Load(context.Background(), "small.example.com", "/")
	if !big.OK() || !small.OK() {
		t.Fatalf("loads failed: %+v %+v", big.Err, small.Err)
	}
	if big.PLT <= small.PLT {
		t.Errorf("big page PLT %v <= small page PLT %v", big.PLT, small.PLT)
	}
}

func TestASNEcho(t *testing.T) {
	n, client, _ := webWorld(t)
	us := n.AS(2)
	eh := n.MustAddHost("asn-echo", "198.51.100.100", "us", us)
	if err := ServeASNEcho(eh); err != nil {
		t.Fatal(err)
	}
	c := &httpx.Client{Dial: client.Dial, Clock: n.Clock(), Timeout: 5 * time.Second}
	resp, err := c.Get(context.Background(), "198.51.100.100:80", "asn.echo", ASNEchoPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "1" {
		t.Fatalf("ASN echo = %q, want 1", resp.Body)
	}
}

func TestOriginUnknownHost404(t *testing.T) {
	n, client, _ := webWorld(t)
	tr := testTransport(n, client, false)
	tr.Lookup = StaticLookup(map[string]string{"unknown.example": "93.184.216.34"})
	resp, err := tr.Fetch(context.Background(), "unknown.example", "/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 404 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestLooksLikeHTML(t *testing.T) {
	if !LooksLikeHTML([]byte("<!DOCTYPE html><html>...")) {
		t.Error("doctype not detected")
	}
	if LooksLikeHTML(ObjectBody(100)) {
		t.Error("binary detected as HTML")
	}
}

// TestRoundTripLeavesRequestAlone: the transport's Host rewrite (fronting,
// IP as hostname) and its Connection header go out on the wire only. The
// caller's request still names the site afterwards — core's error messages
// quote it, and a failover resends it over the next approach.
func TestRoundTripLeavesRequestAlone(t *testing.T) {
	n, client, _ := webWorld(t)
	us := n.AS(2)
	oh := n.MustAddHost("solo-origin", "198.51.100.7", "us", us)
	solo := NewSite("solo.example.net")
	solo.AddPage("/", "Solo", 2000)
	if _, err := NewOrigin(oh, solo); err != nil {
		t.Fatal(err)
	}
	fronting := testTransport(n, client, true)
	fronting.Label = "domain-fronting"
	fronting.SNI = func(string) string { return "small.example.com" }
	fronting.HostHeader = func(h string) string { return strings.ToUpper(h) } // any rewrite
	ipHost := &Transport{
		Label:              "ip-as-hostname",
		Dialer:             client.Dial,
		Lookup:             StaticLookup(map[string]string{"solo.example.net": "198.51.100.7"}),
		HostHeaderFromAddr: true,
		Clock:              n.Clock(),
		Timeout:            10 * time.Second,
	}
	for _, tc := range []struct {
		tr   *Transport
		host string
	}{{fronting, "www.youtube.com"}, {ipHost, "solo.example.net"}} {
		req := httpx.NewRequest("GET", tc.host, "/")
		req.Header.Set("X-Probe", "1")
		resp, err := tc.tr.RoundTrip(context.Background(), req)
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("%s: %v, %v", tc.tr.Label, resp, err)
		}
		if req.Host != tc.host {
			t.Errorf("%s: req.Host = %q after the round trip, want %q", tc.tr.Label, req.Host, tc.host)
		}
		if len(req.Header) != 1 || req.Header.Get("X-Probe") != "1" {
			t.Errorf("%s: req.Header = %v after the round trip, want it untouched", tc.tr.Label, req.Header)
		}
	}
}

// TestRenderHTMLSizes pins what BaseSize buys. Body digests and the golden
// trace depend on these bytes: the comment on RenderHTML may change, the
// sizes may not.
func TestRenderHTMLSizes(t *testing.T) {
	bare := &Page{Title: "T"}
	skeleton := len(RenderHTML(bare))
	if skeleton != 87 {
		t.Fatalf("skeleton of a page titled T with no objects = %d bytes, want 87", skeleton)
	}
	cases := []struct {
		name     string
		baseSize int
		want     int
	}{
		{"zero: the skeleton alone", 0, skeleton},
		{"below the skeleton", skeleton - 1, skeleton},
		{"exactly the skeleton", skeleton, skeleton},
		{"1 byte of room: an empty <p></p>", skeleton + 1, skeleton + 7},
		{"3 bytes of room: still an empty <p></p>", skeleton + 3, skeleton + 7},
		{"4 bytes of room", skeleton + 4, skeleton + 4 + 3},
		{"one filler chunk", skeleton + 70, skeleton + 70 + 3},
		{"2 KiB", 2 << 10, 2<<10 + 3},
		{"20 KiB", 20 << 10, 20<<10 + 3},
	}
	for _, tc := range cases {
		p := &Page{Title: "T", BaseSize: tc.baseSize}
		if got := len(RenderHTML(p)); got != tc.want {
			t.Errorf("%s: BaseSize %d renders %d bytes, want %d", tc.name, tc.baseSize, got, tc.want)
		}
	}
	// Tags count toward the size too: they take the filler's room.
	s := NewSite("x.example")
	p := s.AddPage("/", "T", 4<<10, 100, 200)
	p.AddExternal("cdn.example", "/o.js", 300)
	if got := len(RenderHTML(p)); got != 4<<10+3 {
		t.Errorf("4 KiB page with three objects renders %d bytes, want %d", got, 4<<10+3)
	}
}

// get asks the origin's handler for host+path.
func get(o *Origin, host, path string) *httpx.Response {
	return o.serve(httpx.NewRequest("GET", host, path), netem.Flow{})
}

// TestOriginRendersOnce: what the origin serves is RenderHTML's and
// ObjectBody's output, produced on the first request, sent again (the same
// array) to the next, and produced afresh once the page changed.
func TestOriginRendersOnce(t *testing.T) {
	_, _, o := webWorld(t)
	yt := o.site("www.youtube.com")
	p := yt.Page("/")

	first := get(o, "www.youtube.com", "/")
	if first.StatusCode != 200 || first.Header.Get("Content-Type") != "text/html" || !bytes.Equal(first.Body, RenderHTML(p)) {
		t.Fatalf("page: status %d, type %q, %d bytes; want RenderHTML's %d", first.StatusCode, first.Header.Get("Content-Type"), len(first.Body), len(RenderHTML(p)))
	}
	if again := get(o, "www.youtube.com", "/"); &again.Body[0] != &first.Body[0] {
		t.Error("second request rendered the page again")
	}
	obj := get(o, "www.youtube.com", p.Objects[1].Path)
	if obj.Header.Get("Content-Type") != "application/octet-stream" || !bytes.Equal(obj.Body, ObjectBody(p.Objects[1].Size)) {
		t.Fatalf("object: type %q, %d bytes; want ObjectBody(%d)", obj.Header.Get("Content-Type"), len(obj.Body), p.Objects[1].Size)
	}
	if again := get(o, "www.youtube.com", p.Objects[1].Path); &again.Body[0] != &obj.Body[0] {
		t.Error("second request built the object again")
	}

	// An external reference changes the HTML; one on the page's own host is
	// also served from now on.
	if r := get(o, "www.youtube.com", "/self.js"); r.StatusCode != 404 {
		t.Fatalf("unknown object: status %d, want 404", r.StatusCode)
	}
	p.AddExternal("cdn.example.net", "/lib.js", 500).AddExternal("WWW.YouTube.com", "/self.js", 77)
	after := get(o, "www.youtube.com", "/")
	if bytes.Equal(after.Body, first.Body) || !bytes.Equal(after.Body, RenderHTML(p)) {
		t.Fatal("page served after AddExternal is not RenderHTML of the changed page")
	}
	if len(ExtractLinks(after.Body)) != len(ExtractLinks(first.Body))+2 {
		t.Error("changed page lacks the two new references")
	}
	if r := get(o, "www.youtube.com", "/self.js"); !bytes.Equal(r.Body, ObjectBody(77)) {
		t.Fatalf("own-host external object: status %d, %d bytes; want ObjectBody(77)", r.StatusCode, len(r.Body))
	}

	// Replacing the page replaces its objects.
	gone := p.Objects[2].Path // the new page has one object, at the old first one's path
	np := yt.AddPage("/", "YouTube 2", 1024, 55)
	if r := get(o, "www.youtube.com", "/"); !bytes.Equal(r.Body, RenderHTML(np)) {
		t.Fatal("replaced page still serves the old HTML")
	}
	if r := get(o, "www.youtube.com", np.Objects[0].Path); !bytes.Equal(r.Body, ObjectBody(55)) {
		t.Fatalf("replaced page's object: status %d, %d bytes; want ObjectBody(55)", r.StatusCode, len(r.Body))
	}
	for _, path := range []string{gone, "/self.js"} {
		if r := get(o, "www.youtube.com", path); r.StatusCode != 404 {
			t.Errorf("%s of the replaced page: status %d, want 404", path, r.StatusCode)
		}
	}
}

// TestConcurrentRequestsAndAddExternal (for -race): requests racing a page
// that keeps growing always get a whole rendering of some state of it.
func TestConcurrentRequestsAndAddExternal(t *testing.T) {
	_, _, o := webWorld(t)
	p := o.site("small.example.com").Page("/")
	const adds = 50
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := 0
			for seen < adds {
				body := get(o, "small.example.com", "/").Body
				if !bytes.HasSuffix(body, []byte("</body>\n</html>\n")) {
					t.Error("torn page")
					return
				}
				n := len(ExtractLinks(body))
				if n < seen {
					t.Errorf("page went back from %d to %d references", seen, n)
					return
				}
				seen = n
			}
		}()
	}
	for i := 0; i < adds; i++ {
		p.AddExternal("small.example.com", fmt.Sprintf("/x%d.bin", i), i)
		if r := get(o, "small.example.com", fmt.Sprintf("/x%d.bin", i)); len(r.Body) != i {
			t.Errorf("object %d: %d bytes", i, len(r.Body))
		}
	}
	wg.Wait()
	if body := get(o, "small.example.com", "/").Body; !bytes.Equal(body, RenderHTML(p)) {
		t.Error("final page is not RenderHTML of the final state")
	}
}
