package detect

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"csaw/internal/blockpage"
	"csaw/internal/censor"
	"csaw/internal/dnsx"
	"csaw/internal/httpx"
	"csaw/internal/localdb"
	"csaw/internal/netem"
	"csaw/internal/tlsx"
	"csaw/internal/trace"
	"csaw/internal/vtime"
)

const (
	originIP = "93.184.216.34"
	blockIP  = "10.0.9.9"
)

// detWorld builds a censored world and a Detector for its client.
func detWorld(t *testing.T, p *censor.Policy) (*netem.Network, *Detector, *censor.Censor) {
	t.Helper()
	clock := vtime.New(500)
	n := netem.New(clock, netem.WithSeed(31))
	isp := n.AddAS(100, "ISP-A", "PK")
	us := n.AddAS(200, "US", "US")
	client := n.MustAddHost("client", "10.0.0.1", "pk", isp)
	resolver := n.MustAddHost("resolver", "10.0.0.53", "pk", isp)
	public := n.MustAddHost("public-dns", "8.8.8.8", "us", us)
	origin := n.MustAddHost("origin", originIP, "us", us)
	blockHost := n.MustAddHost("block.isp.pk", blockIP, "pk", isp)
	n.SetRTT("pk", "us", 150*time.Millisecond)

	reg := dnsx.NewRegistry()
	reg.Set("www.youtube.com", originIP)
	reg.Set("ok.example.com", originIP)
	reg.Set("block.isp.pk", blockIP)

	cen := censor.New(p)
	cen.Attach(isp)
	if _, err := dnsx.NewServer(resolver, cen.ResolverHandler(reg, 300)); err != nil {
		t.Fatal(err)
	}
	if _, err := dnsx.NewServer(public, dnsx.AuthHandler(reg, 300)); err != nil {
		t.Fatal(err)
	}

	// Origin serves real pages on 80 and 443 (any SNI it hosts).
	pageBody := []byte("<html><head><title>Real</title></head><body>" +
		string(make([]byte, 2000)) + "</body></html>")
	h := httpx.HandlerFunc(func(req *httpx.Request, _ netem.Flow) *httpx.Response {
		resp := httpx.NewResponse(200, pageBody)
		resp.Header.Set("Content-Type", "text/html")
		return resp
	})
	httpx.Serve(origin.MustListen(80), h)
	serveTLS(origin, h)

	// ISP block-page host answers everything with the block page.
	httpx.Serve(blockHost.MustListen(80), httpx.HandlerFunc(func(*httpx.Request, netem.Flow) *httpx.Response {
		resp := httpx.NewResponse(200, []byte(censor.DefaultBlockPageHTML))
		resp.Header.Set("Content-Type", "text/html")
		return resp
	}))

	ldns := dnsx.NewClient(client, "10.0.0.53:53")
	gdns := dnsx.NewClient(client, "8.8.8.8:53")
	det := &Detector{
		Clock:      clock,
		Dial:       client.Dial,
		LDNS:       ldns,
		GDNS:       gdns,
		Classifier: blockpage.NewClassifier(),
	}
	return n, det, cen
}

// serveTLS is a pseudo-TLS origin presenting whatever name the client asked
// for: handshake, then the shared request loop.
func serveTLS(host *netem.Host, h httpx.Handler) {
	l := host.MustListen(443)
	go func() {
		for {
			raw, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				tc, err := tlsx.Server(raw, strings.ToLower)
				if err != nil {
					raw.Close()
					return
				}
				httpx.ServeConn(context.Background(), tc, netem.Flow{}, h)
			}()
		}
	}()
}

func measure(t *testing.T, det *Detector, url string, scheme Scheme) Outcome {
	t.Helper()
	return det.Measure(context.Background(), url, scheme)
}

func TestCleanURL(t *testing.T) {
	_, det, _ := detWorld(t, &censor.Policy{})
	out := measure(t, det, "www.youtube.com/", HTTP)
	if out.Blocked() || out.Response == nil {
		t.Fatalf("clean URL: %+v (err=%v)", out, out.Err)
	}
	if out.Took > 5*time.Second {
		t.Errorf("clean detection took %v", out.Took)
	}
}

func TestDNSModesDetected(t *testing.T) {
	cases := []struct {
		act        censor.DNSAction
		detail     string
		minT, maxT time.Duration
	}{
		// Table 5 timing shape: REFUSED fast, SERVFAIL ~10s, drop ~10s.
		{censor.DNSNXDomain, "nxdomain", 0, 6 * time.Second},
		{censor.DNSRefused, "refused", 0, 6 * time.Second},
		{censor.DNSServFail, "servfail", 9 * time.Second, 16 * time.Second},
		{censor.DNSDrop, "no-response", 9 * time.Second, 16 * time.Second},
	}
	for _, c := range cases {
		t.Run(c.detail, func(t *testing.T) {
			_, det, _ := detWorld(t, &censor.Policy{
				DNS: map[string]censor.DNSAction{"youtube.com": c.act},
			})
			out := measure(t, det, "www.youtube.com/", HTTP)
			if !out.Blocked() || out.PrimaryType() != localdb.BlockDNS {
				t.Fatalf("outcome = %+v", out)
			}
			if out.Stages[0].Detail != c.detail {
				t.Errorf("detail = %q, want %q", out.Stages[0].Detail, c.detail)
			}
			if out.Took < c.minT || out.Took > c.maxT {
				t.Errorf("took %v, want in [%v, %v]", out.Took, c.minT, c.maxT)
			}
			// The direct path continued via GDNS and found the real page.
			if out.Response == nil && len(out.Stages) == 1 {
				t.Errorf("no response despite single-stage DNS blocking")
			}
		})
	}
}

func TestIPReset(t *testing.T) {
	_, det, _ := detWorld(t, &censor.Policy{IP: map[string]censor.IPAction{originIP: censor.IPReset}})
	out := measure(t, det, "www.youtube.com/", HTTP)
	if !out.Blocked() || out.PrimaryType() != localdb.BlockIP {
		t.Fatalf("outcome = %+v", out)
	}
	if out.Took > 5*time.Second {
		t.Errorf("RST detection took %v, want fast", out.Took)
	}
}

func TestIPDropTakesConnectTimeout(t *testing.T) {
	// Table 5: TCP/IP blocking ≈ 21s.
	_, det, _ := detWorld(t, &censor.Policy{IP: map[string]censor.IPAction{originIP: censor.IPDrop}})
	out := measure(t, det, "www.youtube.com/", HTTP)
	if !out.Blocked() || out.PrimaryType() != localdb.BlockTCPTimeout {
		t.Fatalf("outcome = %+v", out)
	}
	if out.Took < 19*time.Second || out.Took > 28*time.Second {
		t.Errorf("took %v, want ~21s", out.Took)
	}
}

func TestMultiStageDNSPlusTCP(t *testing.T) {
	// Table 5's worst case (~32.7s): DNS drop, then TCP/IP drop via GDNS IP.
	_, det, _ := detWorld(t, &censor.Policy{
		DNS: map[string]censor.DNSAction{"youtube.com": censor.DNSDrop},
		IP:  map[string]censor.IPAction{originIP: censor.IPDrop},
	})
	out := measure(t, det, "www.youtube.com/", HTTP)
	if !out.Blocked() || len(out.Stages) != 2 {
		t.Fatalf("outcome = %+v", out)
	}
	if out.Stages[0].Type != localdb.BlockDNS || out.Stages[1].Type != localdb.BlockTCPTimeout {
		t.Fatalf("stages = %s", out.StageSummary())
	}
	if out.Took < 28*time.Second || out.Took > 40*time.Second {
		t.Errorf("took %v, want ~32s", out.Took)
	}
}

func TestHTTPBlockPagePhase1(t *testing.T) {
	// Table 5: HTTP block page ≈ 1.8s — much faster than timeout cases.
	_, det, _ := detWorld(t, &censor.Policy{HTTP: []censor.HTTPRule{{Host: "youtube.com", Action: censor.HTTPBlockPage}}})
	out := measure(t, det, "www.youtube.com/", HTTP)
	if !out.Blocked() || out.PrimaryType() != localdb.BlockHTTP || !out.Suspected {
		t.Fatalf("outcome = %+v stages=%s", out, out.StageSummary())
	}
	if out.Stages[0].Detail != "blockpage" {
		t.Errorf("detail = %q", out.Stages[0].Detail)
	}
	if out.Took > 6*time.Second {
		t.Errorf("took %v, want ~2s", out.Took)
	}
}

func TestHTTPRedirectBlockPage(t *testing.T) {
	_, det, _ := detWorld(t, &censor.Policy{
		HTTP:         []censor.HTTPRule{{Host: "youtube.com", Action: censor.HTTPRedirect}},
		BlockPageURL: "block.isp.pk/blocked.html",
	})
	out := measure(t, det, "www.youtube.com/", HTTP)
	if !out.Blocked() || out.Stages[0].Detail != "blockpage-redirect" {
		t.Fatalf("outcome = %+v stages=%s", out, out.StageSummary())
	}
}

// TestRedirectHopStaysOffTheLane: the redirect target is fetched for
// classification only — the lane records one response (the 302), and the
// hop's wait does not count toward the fetch's TTFB/body phases.
func TestRedirectHopStaysOffTheLane(t *testing.T) {
	n, det, _ := detWorld(t, &censor.Policy{
		HTTP:         []censor.HTTPRule{{Host: "youtube.com", Action: censor.HTTPRedirect}},
		BlockPageURL: "block.isp.pk/blocked.html",
	})
	sink := &trace.CollectSink{}
	sp := trace.New(n.Clock(), sink).Start("c", 1, "www.youtube.com/")
	lane := sp.Lane("direct")
	out := det.Measure(trace.WithLane(context.Background(), lane), "www.youtube.com/", HTTP)
	lane.Close()
	sp.Finish("direct", "blocked", nil)
	if !out.Blocked() || out.Stages[0].Detail != "blockpage-redirect" {
		t.Fatalf("outcome = %+v stages=%s", out, out.StageSummary())
	}
	var responses []string
	for _, e := range sink.Records()[0].Lanes[0].Events {
		if e.Layer == "http" && e.Name == "response" {
			responses = append(responses, e.Detail)
		}
	}
	if len(responses) != 1 || responses[0] != "302" {
		t.Fatalf("lane response events = %v, want only the 302", responses)
	}
}

func TestHTTPIframeBlockPage(t *testing.T) {
	_, det, _ := detWorld(t, &censor.Policy{
		HTTP:         []censor.HTTPRule{{Host: "youtube.com", Action: censor.HTTPIframe}},
		BlockPageURL: "block.isp.pk/blocked.html",
	})
	out := measure(t, det, "www.youtube.com/", HTTP)
	if !out.Blocked() || out.PrimaryType() != localdb.BlockHTTP {
		t.Fatalf("iframe block page not caught: %+v", out)
	}
}

func TestHTTPDropTimesOut(t *testing.T) {
	_, det, _ := detWorld(t, &censor.Policy{HTTP: []censor.HTTPRule{{Host: "youtube.com", Action: censor.HTTPDrop}}})
	out := measure(t, det, "www.youtube.com/", HTTP)
	if !out.Blocked() || out.PrimaryType() != localdb.BlockHTTP {
		t.Fatalf("outcome = %+v", out)
	}
	if out.Took < 15*time.Second {
		t.Errorf("took %v, want ~HTTP timeout", out.Took)
	}
}

func TestHTTPResetFast(t *testing.T) {
	_, det, _ := detWorld(t, &censor.Policy{HTTP: []censor.HTTPRule{{Host: "youtube.com", Action: censor.HTTPReset}}})
	out := measure(t, det, "www.youtube.com/", HTTP)
	if !out.Blocked() || out.Stages[0].Detail != "rst" {
		t.Fatalf("outcome = %+v stages=%s", out, out.StageSummary())
	}
	if out.Took > 6*time.Second {
		t.Errorf("took %v, want fast", out.Took)
	}
}

func TestDNSRedirectToBlockPageHost(t *testing.T) {
	// The resolver redirects to the ISP block-page host: Figure 4's
	// "HTTP/S Blocking + Possible DNS" combined box.
	_, det, _ := detWorld(t, &censor.Policy{
		DNS:        map[string]censor.DNSAction{"youtube.com": censor.DNSRedirect},
		RedirectIP: blockIP,
	})
	out := measure(t, det, "www.youtube.com/", HTTP)
	if !out.Blocked() {
		t.Fatalf("outcome = %+v", out)
	}
	var hasHTTP, hasDNS bool
	for _, s := range out.Stages {
		hasHTTP = hasHTTP || (s.Type == localdb.BlockHTTP && s.Detail == "blockpage")
		hasDNS = hasDNS || (s.Type == localdb.BlockDNS && s.Detail == "redirect")
	}
	if !hasHTTP || !hasDNS {
		t.Fatalf("stages = %s, want blockpage + dns redirect", out.StageSummary())
	}
}

func TestSNIBlockingDetected(t *testing.T) {
	_, det, _ := detWorld(t, &censor.Policy{SNI: map[string]censor.TLSAction{"youtube.com": censor.TLSReset}})
	out := measure(t, det, "www.youtube.com/", HTTPS)
	if !out.Blocked() || out.PrimaryType() != localdb.BlockSNI {
		t.Fatalf("outcome = %+v stages=%s", out, out.StageSummary())
	}
}

func TestHTTPSCleanThroughInspector(t *testing.T) {
	_, det, _ := detWorld(t, &censor.Policy{SNI: map[string]censor.TLSAction{"youtube.com": censor.TLSReset}})
	out := measure(t, det, "ok.example.com/", HTTPS)
	if out.Blocked() {
		t.Fatalf("clean HTTPS blocked: %+v stages=%s err=%v", out, out.StageSummary(), out.Err)
	}
}

func TestUnresolvableIsNotCensorship(t *testing.T) {
	_, det, _ := detWorld(t, &censor.Policy{})
	out := measure(t, det, "no-such-site.example/", HTTP)
	if out.Blocked() {
		t.Fatalf("dead name declared blocked: %+v", out)
	}
	if out.Err == nil {
		t.Error("expected an unresolvable error")
	}
}

func TestDeadPortIsNotCensorship(t *testing.T) {
	_, det, _ := detWorld(t, &censor.Policy{})
	out := measure(t, det, "block.isp.pk/x", HTTPS) // block host has no 443
	if out.Blocked() {
		t.Fatalf("refused port declared blocked: %+v stages=%s", out, out.StageSummary())
	}
}

func TestIPLiteralSkipsDNS(t *testing.T) {
	_, det, _ := detWorld(t, &censor.Policy{DNS: map[string]censor.DNSAction{"youtube.com": censor.DNSDrop}})
	out := measure(t, det, originIP+"/", HTTP)
	if out.Blocked() {
		t.Fatalf("IP-literal URL blocked: %+v", out)
	}
	if out.Took > 5*time.Second {
		t.Errorf("IP-literal fetch took %v (DNS should be skipped)", out.Took)
	}
}

func TestStageSummary(t *testing.T) {
	o := Outcome{Stages: []localdb.Stage{{Type: localdb.BlockDNS, Detail: "nxdomain"}, {Type: localdb.BlockHTTP}}}
	if s := o.StageSummary(); s != "dns(nxdomain)+http" {
		t.Fatalf("summary = %q", s)
	}
	if (&Outcome{}).StageSummary() != "none" {
		t.Fatal("empty summary wrong")
	}
}

// TestCancelUnblocksStalledExchange: a measurement stalled on a censor that
// swallowed its request — in stage 3, or on the redirect hop — ends with its
// context, as no verdict, long before the HTTP timeout would have ended it.
func TestCancelUnblocksStalledExchange(t *testing.T) {
	cases := []struct {
		name   string
		policy *censor.Policy
	}{
		{"stage 3", &censor.Policy{HTTP: []censor.HTTPRule{{Host: "youtube.com", Action: censor.HTTPDrop}}}},
		{"redirect hop", &censor.Policy{
			HTTP: []censor.HTTPRule{
				{Host: "youtube.com", Action: censor.HTTPRedirect},
				{Host: "block.isp.pk", Action: censor.HTTPDrop},
			},
			BlockPageURL: "block.isp.pk/blocked.html",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, det, cen := detWorld(t, tc.policy)
			det.HTTPTimeout = 100 * time.Hour // 12 min real at this scale
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan Outcome, 1)
			go func() { done <- det.Measure(ctx, "www.youtube.com/", HTTP) }()
			for cen.Counters.Get(censor.HTTPDrop.String()) == 0 {
				runtime.Gosched() // until the censor has swallowed the request
			}
			cancel()
			select {
			case out := <-done:
				if out.Status != localdb.NotMeasured {
					t.Fatalf("cancelled measurement = %s %s, want not-measured", out.Status, out.StageSummary())
				}
			case <-time.After(time.Second): //lint:allow-realtime test watchdog
				t.Fatal("Measure still blocked 1s after its context was cancelled")
			}
		})
	}
}
