package detect

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"go/parser"
	"go/token"
	"net"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
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
	resetIP  = "93.184.216.35" // an origin the censor resets at connect
	dropIP   = "93.184.216.36" // an origin the censor blackholes
	blockIP  = "10.0.9.9"
	ms, sec  = time.Millisecond, time.Second
)

// symptom is one row of the detection table: the facts a probe observes of a
// symptom (no offsets, errors or response), and Figure 4's verdict on them:
// the lane's verdict event, TimeoutPhase, and the stage whose offset Detected
// is and Err's text as stamp gives them. A row with a took meets the real
// censor, Took and Detected exact on the event clock; with a slack too, it
// waits on a silent peer no clock primitive covers, on the scaled clock.
type symptom struct {
	name, host              string
	scheme                  Scheme
	obs                     Observations
	verdict, phase, at, err string
	took, detected, slack   time.Duration
}

func answer(ip string) Result { return Result{Class: Answered, IPs: []string{ip}} }

var (
	clean                              = Observations{LDNS: answer(originIP), Addr: originIP}
	nxdomain, refused, reset, timedOut = Result{Class: "nxdomain"}, Result{Class: Refused}, Result{Class: Reset}, Result{Class: Timeout}
)

// with is clean, the facts of a fetch the local resolver answered, changed by f.
func with(f func(*Observations)) Observations { o := clean; f(&o); return o }

var symptoms = []symptom{
	// One row per censor symptom.
	{name: "dns nxdomain", host: "nxdomain.example", obs: Observations{LDNS: nxdomain, GDNS: answer(originIP), Addr: originIP},
		verdict: "blocked dns(nxdomain)", at: "ldns", took: 302 * ms, detected: 2 * ms},
	{name: "dns servfail", host: "servfail.example", obs: Observations{LDNS: Result{Class: "servfail"}, GDNS: answer(originIP), Addr: originIP},
		verdict: "blocked dns(servfail)", at: "ldns", took: 10300 * ms, detected: 10 * sec},
	{name: "dns refused", host: "refused.example", obs: Observations{LDNS: refused, GDNS: answer(originIP), Addr: originIP},
		verdict: "blocked dns(refused)", at: "ldns", took: 302 * ms, detected: 2 * ms},
	{name: "dns no-response", host: "dnsdrop.example", obs: Observations{LDNS: Result{Class: NoResponse}, GDNS: answer(originIP), Addr: originIP},
		verdict: "blocked dns(no-response)", phase: "dns", at: "ldns", took: 9 * sec, slack: 7 * sec},
	// A clean-looking answer sends HTTPS to a host without it (ISP-B, Table 1).
	{name: "dns redirect", host: "redirect.example", scheme: HTTPS, obs: Observations{LDNS: answer(blockIP), Addr: blockIP, Connect: refused, Cross: answer(originIP)},
		verdict: "blocked dns(redirect)", at: "cross", err: "connect", took: 154 * ms, detected: 154 * ms},
	{name: "ip reset", host: "ipreset.example", obs: Observations{LDNS: answer(resetIP), Addr: resetIP, Connect: reset},
		verdict: "blocked ip(rst)", at: "connect", err: "connect", took: 32 * ms, detected: 32 * ms},
	{name: "ip drop", host: "ipdrop.example", obs: Observations{LDNS: answer(dropIP), Addr: dropIP, Connect: timedOut},
		verdict: "blocked tcp-timeout(connect-timeout)", phase: "connect", at: "connect", err: "connect", took: 21002 * ms, detected: 21002 * ms},
	{name: "http drop", host: "httpdrop.example", obs: with(func(o *Observations) { o.Read, o.Cross = timedOut, answer(originIP) }),
		verdict: "blocked http(get-timeout)", phase: "http", at: "read", err: "read", took: 15 * sec, slack: time.Hour},
	{name: "http reset", host: "httpreset.example", obs: with(func(o *Observations) { o.Read, o.Cross = reset, answer(originIP) }),
		verdict: "blocked http(rst)", at: "read", err: "read", took: 302 * ms, detected: 152 * ms},
	{name: "http blockpage", host: "blockpage.example", obs: with(func(o *Observations) { o.BlockPage, o.Cross = true, answer(originIP) }),
		verdict: "blocked http(blockpage)", at: "page", took: 302 * ms, detected: 152 * ms},
	{name: "http redirect", host: "302.example", obs: with(func(o *Observations) { o.Redirected, o.BlockPage, o.Cross = true, true, answer(originIP) }),
		verdict: "blocked http(blockpage-redirect)", at: "page", took: 306 * ms, detected: 156 * ms},
	{name: "http iframe", host: "iframe.example", obs: with(func(o *Observations) { o.BlockPage, o.Cross = true, answer(originIP) }),
		verdict: "blocked http(blockpage)", at: "page", took: 302 * ms, detected: 152 * ms},
	{name: "sni drop", host: "snidrop.example", scheme: HTTPS, obs: with(func(o *Observations) { o.TLS = timedOut }),
		verdict: "blocked sni(handshake-timeout)", phase: "tls", at: "tls", err: "tls", took: 15 * sec, slack: time.Hour},
	{name: "sni reset", host: "snireset.example", scheme: HTTPS, obs: with(func(o *Observations) { o.TLS = reset }),
		verdict: "blocked sni(rst)", at: "tls", err: "tls", took: 152 * ms, detected: 152 * ms},

	// One row per multi-stage pair, the first Table 5's worst case (≈ 32.7 s).
	{name: "dns drop + ip drop", host: "dnsdrop-ipdrop.example", obs: Observations{LDNS: Result{Class: NoResponse}, GDNS: answer(dropIP), Addr: dropIP, Connect: timedOut},
		verdict: "blocked dns(no-response)+tcp-timeout(connect-timeout)", phase: "connect", at: "connect", err: "connect", took: 28 * sec, slack: 12 * sec},
	// Figure 4's "HTTP/S blocking + possible DNS": sent to the ISP's block page.
	{name: "dns redirect + block page", host: "redirect.example", obs: Observations{LDNS: answer(blockIP), Addr: blockIP, BlockPage: true, Cross: answer(originIP)},
		verdict: "blocked http(blockpage)+dns(redirect)", at: "page", took: 154 * ms, detected: 4 * ms},
	{name: "dns nxdomain + http reset", host: "nxdomain-rst.example", obs: Observations{LDNS: nxdomain, GDNS: answer(originIP), Addr: originIP, Read: reset},
		verdict: "blocked dns(nxdomain)+http(rst)", at: "read", err: "read", took: 302 * ms, detected: 302 * ms},
	{name: "dns redirect + http reset", host: "redirect.example", obs: Observations{LDNS: answer(blockIP), Addr: blockIP, Read: reset, Cross: answer(originIP)},
		verdict: "blocked http(rst)+dns(redirect)", at: "read", err: "read"},
	{name: "dns silent on both paths", host: "dnsdrop.example", obs: Observations{LDNS: Result{Class: NoResponse}, GDNS: Result{Class: Timeout}},
		verdict: "blocked dns(no-response)", phase: "dns", at: "gdns", err: "detect: dnsdrop.example: DNS silent on local and global paths: local ldns, global gdns"},

	// One row per case that is not censorship.
	{name: "clean", host: "clean.example", obs: clean, verdict: "not-blocked none", took: 152 * ms},
	{name: "dead name", host: "dead.example", obs: Observations{LDNS: nxdomain, GDNS: nxdomain},
		verdict: "not-blocked none", err: "detect: dead.example unresolvable: local ldns, global gdns", took: 152 * ms},
	{name: "dead port", host: "block.isp.pk", scheme: HTTPS, obs: Observations{LDNS: answer(blockIP), Addr: blockIP, Connect: refused, Cross: answer(blockIP)},
		verdict: "not-blocked none", err: "connect", took: 154 * ms},
	{name: "ip literal", host: originIP, obs: Observations{Addr: originIP}, verdict: "not-blocked none", took: 150 * ms},
	{name: "clean https", host: "clean.example", scheme: HTTPS, obs: clean, verdict: "not-blocked none", took: 152 * ms},

	// One row per case where the caller's context ended: no verdict.
	{name: "ended in stage 3", host: "httpdrop.example", obs: with(func(o *Observations) {
		o.Read, o.Cross, o.CallerErr = timedOut, Result{Class: Timeout}, context.Canceled
	}),
		verdict: "not-measured none", err: "read"},
	{name: "ended on the redirect hop", host: "302.example", obs: with(func(o *Observations) { o.HopCut, o.CallerErr = true, context.Canceled }),
		verdict: "not-measured none", err: "context canceled"},
	{name: "ended on the redirect hop after a dns stage", host: "nxdomain.example",
		obs:     Observations{LDNS: nxdomain, GDNS: answer(originIP), Addr: originIP, HopCut: true, CallerErr: context.Canceled},
		verdict: "not-measured none", err: "context canceled"},
	{name: "ended during silent dns", host: "dnsdrop.example", obs: Observations{LDNS: Result{Class: Timeout}, GDNS: Result{Class: Timeout}, CallerErr: context.Canceled},
		verdict: "not-blocked none", err: "detect: dnsdrop.example unresolvable: local ldns, global gdns"},
}

// facts is the row's observations as the world must record them.
func (r symptom) facts() Observations {
	o := r.obs
	o.URL, o.Scheme, o.Host = r.host+"/", r.scheme, r.host
	return o
}

// stages names o's results in the order stamp offsets them; the page is last.
var stages = strings.Fields("ldns gdns connect tls write read cross page")

func results(o *Observations) []*Result {
	return []*Result{&o.LDNS, &o.GDNS, &o.Connect, &o.TLS, &o.Write, &o.Read, &o.Cross}
}

func offset(stage string) time.Duration { return time.Duration(slices.Index(stages, stage)+1) * sec }

// stamp gives each stage of o an offset, and each failure its name as error.
func stamp(o Observations) Observations {
	for i, r := range results(&o) {
		if r.At = offset(stages[i]); r.Class != "" && r.Class != Answered {
			r.Err = errors.New(stages[i])
		}
	}
	o.PageAt = offset("page")
	return o
}

func verdict(o Outcome) string { return o.Status.String() + " " + o.StageSummary() }

func TestAnalyse(t *testing.T) {
	for _, r := range symptoms {
		out := Analyse(stamp(r.facts()))
		if verdict(out) != r.verdict || out.TimeoutPhase != r.phase || out.Detected != offset(r.at) ||
			fmt.Sprint(out.Err) != cmp.Or(r.err, "<nil>") || out.Suspected != strings.Contains(r.verdict, "blockpage") {
			t.Errorf("%s: Analyse = %q phase %q detected %v err %v suspected %v, want %q phase %q detected at %q err %q",
				r.name, verdict(out), out.TimeoutPhase, out.Detected, out.Err, out.Suspected, r.verdict, r.phase, r.at, r.err)
		}
	}
	// The file that decides does no I/O and reads no clock.
	f, err := parser.ParseFile(token.NewFileSet(), "analyse.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	banned := strings.Fields("context csaw/internal/netem csaw/internal/vtime csaw/internal/dnsx csaw/internal/httpx csaw/internal/tlsx")
	for _, imp := range f.Imports {
		if slices.Contains(banned, strings.Trim(imp.Path.Value, `"`)) {
			t.Errorf("analyse.go imports %s", imp.Path.Value)
		}
	}
}

// FuzzAnalyse holds Analyse to Figure 4's invariants over any observations:
// a class per stage, and six flags.
func FuzzAnalyse(f *testing.F) {
	f.Add([]byte{5, 5, 3}, uint8(0))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 1}, uint8(0b111011))
	classes := []Class{"", Answered, "nxdomain", "servfail", Refused, NoResponse, Timeout, Reset, Failed}
	f.Fuzz(func(t *testing.T, b []byte, flags uint8) {
		o := Observations{Addr: [2]string{blockIP, originIP}[flags&1], Scheme: Scheme(flags >> 1 & 1),
			Redirected: flags&4 != 0, HopCut: flags&8 != 0, BlockPage: flags&16 != 0}
		b = append(b, make([]byte, 7)...)
		for i, r := range results(&o) {
			r.Class, r.IPs = classes[int(b[i])%len(classes)], []string{originIP}
		}
		if flags&32 != 0 {
			o.CallerErr = context.Canceled
		}
		switch out := Analyse(stamp(o)); {
		case out.Blocked() && len(out.Stages) == 0:
			t.Fatalf("blocked with no stage: %+v", out)
		case (out.Suspected || out.TimeoutPhase != "") && !out.Blocked():
			t.Fatalf("suspected %v, timeout phase %q, yet %s", out.Suspected, out.TimeoutPhase, out.Status)
		case o.CallerErr != nil && out.Blocked():
			t.Fatalf("the caller ended, yet %s", verdict(out))
		}
	})
}

// symptomPolicy blocks a distinct host per symptom.
func symptomPolicy() *censor.Policy {
	return &censor.Policy{
		DNS: map[string]censor.DNSAction{"nxdomain.example": censor.DNSNXDomain, "nxdomain-rst.example": censor.DNSNXDomain,
			"servfail.example": censor.DNSServFail, "refused.example": censor.DNSRefused, "redirect.example": censor.DNSRedirect,
			"dnsdrop.example": censor.DNSDrop, "dnsdrop-ipdrop.example": censor.DNSDrop},
		RedirectIP: blockIP,
		IP:         map[string]censor.IPAction{resetIP: censor.IPReset, dropIP: censor.IPDrop},
		HTTP: []censor.HTTPRule{{Host: "httpdrop.example", Action: censor.HTTPDrop}, {Host: "httpreset.example", Action: censor.HTTPReset},
			{Host: "nxdomain-rst.example", Action: censor.HTTPReset}, {Host: "blockpage.example", Action: censor.HTTPBlockPage},
			{Host: "302.example", Action: censor.HTTPRedirect}, {Host: "iframe.example", Action: censor.HTTPIframe}},
		SNI:          map[string]censor.TLSAction{"snidrop.example": censor.TLSDrop, "snireset.example": censor.TLSReset},
		BlockPageURL: "block.isp.pk/blocked.html",
	}
}

// The symptom worlds, one per clock, built on first use and then shared.
var (
	eventWorld  = sync.OnceValue(func() *Detector { det, _ := detWorld(vtime.NewEventDriven(), symptomPolicy()); return det })
	scaledWorld = sync.OnceValue(func() *Detector { det, _ := detWorld(vtime.New(500), symptomPolicy()); return det })
)

// detWorld builds a world behind a censor with policy p, and its client's Detector.
func detWorld(clock *vtime.Clock, p *censor.Policy) (*Detector, *censor.Censor) {
	n := netem.New(clock, netem.WithSeed(31))
	isp, us := n.AddAS(100, "ISP-A", "PK"), n.AddAS(200, "US", "US")
	client := n.MustAddHost("client", "10.0.0.1", "pk", isp)
	resolver := n.MustAddHost("resolver", "10.0.0.53", "pk", isp)
	public := n.MustAddHost("public-dns", "8.8.8.8", "us", us)
	origin := n.MustAddHost("origin", originIP, "us", us)
	blockHost := n.MustAddHost("block.isp.pk", blockIP, "pk", isp)
	n.SetRTT("pk", "us", 150*time.Millisecond)

	reg := dnsx.NewRegistry()
	for _, name := range strings.Fields("clean nxdomain servfail refused dnsdrop redirect nxdomain-rst httpdrop httpreset blockpage 302 iframe snidrop snireset") {
		reg.Set(name+".example", originIP)
	}
	for name, ip := range map[string]string{"ipreset.example": resetIP, "ipdrop.example": dropIP, "dnsdrop-ipdrop.example": dropIP, "block.isp.pk": blockIP} {
		reg.Set(name, ip)
	}
	cen := censor.New(p)
	cen.Attach(isp)
	_, errISP := dnsx.NewServer(resolver, cen.ResolverHandler(reg, 300))
	_, errPublic := dnsx.NewServer(public, dnsx.AuthHandler(reg, 300))
	if err := errors.Join(errISP, errPublic); err != nil {
		panic(err)
	}

	// The origin serves a real page on 80 and, under any name, on 443; the
	// ISP's block-page host answers everything with the block page.
	page := func(body []byte) httpx.Handler {
		return httpx.HandlerFunc(func(*httpx.Request, netem.Flow) *httpx.Response {
			resp := httpx.NewResponse(200, body)
			resp.Header.Set("Content-Type", "text/html")
			return resp
		})
	}
	originPage := page([]byte("<html><head><title>Real</title></head><body>" + string(make([]byte, 2000)) + "</body></html>"))
	httpx.Serve(origin.MustListen(80), originPage)
	origin.MustListen(443).Serve(func(raw net.Conn) {
		if tc, err := tlsx.Server(raw, strings.ToLower); err == nil {
			httpx.ServeConn(context.Background(), tc, netem.Flow{}, originPage)
		} else {
			raw.Close()
		}
	})
	httpx.Serve(blockHost.MustListen(80), page([]byte(censor.DefaultBlockPageHTML)))
	return &Detector{Clock: clock, Dial: client.Dial, LDNS: dnsx.NewClient(client, "10.0.0.53:53"),
		GDNS: dnsx.NewClient(client, "8.8.8.8:53"), Classifier: blockpage.NewClassifier()}, cen
}

// onTheWire measures the named rows against the real censor: the stages
// observe the row's facts, Measure's outcome is Analyse of them, and the
// lane records one response, the direct one — a redirect hop is fetched for
// classification only, so its wait stays out of the fetch's TTFB/body phases.
func onTheWire(t *testing.T, names ...string) {
	t.Helper()
	for _, name := range names {
		r := symptoms[slices.IndexFunc(symptoms, func(s symptom) bool { return s.name == name })]
		det := eventWorld()
		if r.slack > 0 {
			det = scaledWorld()
		}
		sink := &trace.CollectSink{}
		sp := trace.New(det.Clock, sink).Start("c", 1, r.host)
		lane := sp.Lane("direct")
		out, obs := det.measure(trace.WithLane(context.Background(), lane), r.host+"/", r.scheme)
		lane.Close()
		sp.Finish("direct", "", nil)
		got := obs // offsets, errors and response aside
		if got.Response = nil; !reflect.DeepEqual(stamp(got), stamp(r.facts())) {
			t.Errorf("%s: observed %+v, want %+v", name, got, r.facts())
		}
		want := Analyse(obs)
		want.Took = out.Took
		if !reflect.DeepEqual(out, want) || verdict(out) != r.verdict || out.TimeoutPhase != r.phase ||
			r.slack == 0 && (out.Took != r.took || out.Detected != r.detected) || r.slack > 0 && (out.Took < r.took || out.Took > r.took+r.slack) {
			t.Errorf("%s: Measure = %+v, Analyse = %+v; want %q phase %q, took %v (+%v), detected %v",
				name, out, want, r.verdict, r.phase, r.took, r.slack, r.detected)
		}
		var responses []string
		for _, e := range sink.Records()[0].Lanes[0].Events {
			if e.Layer == "http" && e.Name == "response" {
				responses = append(responses, e.Detail)
			}
		}
		if obs.Response == nil && responses != nil || obs.Response != nil && fmt.Sprint(responses) != fmt.Sprintf("[%d]", obs.Response.StatusCode) {
			t.Errorf("%s: lane responses %v, want the direct one alone", name, responses)
		}
	}
}

func TestCleanURL(t *testing.T) { onTheWire(t, "clean") }

func TestDNSModesDetected(t *testing.T) {
	for _, mode := range []string{"nxdomain", "refused", "servfail", "no-response"} {
		t.Run(mode, func(t *testing.T) { onTheWire(t, "dns "+mode) })
	}
}

func TestIPReset(t *testing.T)                     { onTheWire(t, "ip reset") }
func TestIPDropTakesConnectTimeout(t *testing.T)   { onTheWire(t, "ip drop") }
func TestMultiStageDNSPlusTCP(t *testing.T)        { onTheWire(t, "dns drop + ip drop") }
func TestHTTPBlockPagePhase1(t *testing.T)         { onTheWire(t, "http blockpage") }
func TestHTTPRedirectBlockPage(t *testing.T)       { onTheWire(t, "http redirect") }
func TestRedirectHopStaysOffTheLane(t *testing.T)  { onTheWire(t, "http redirect") }
func TestHTTPIframeBlockPage(t *testing.T)         { onTheWire(t, "http iframe") }
func TestHTTPDropTimesOut(t *testing.T)            { onTheWire(t, "http drop") }
func TestHTTPResetFast(t *testing.T)               { onTheWire(t, "http reset", "dns nxdomain + http reset") }
func TestDNSRedirectToBlockPageHost(t *testing.T)  { onTheWire(t, "dns redirect + block page") }
func TestSNIBlockingDetected(t *testing.T)         { onTheWire(t, "sni reset", "sni drop") }
func TestHTTPSCleanThroughInspector(t *testing.T)  { onTheWire(t, "clean https") }
func TestUnresolvableIsNotCensorship(t *testing.T) { onTheWire(t, "dead name") }
func TestDeadPortIsNotCensorship(t *testing.T)     { onTheWire(t, "dead port", "dns redirect") }
func TestIPLiteralSkipsDNS(t *testing.T)           { onTheWire(t, "ip literal") }

func TestStageSummary(t *testing.T) {
	o := Outcome{Stages: []localdb.Stage{{Type: localdb.BlockDNS, Detail: "nxdomain"}, {Type: localdb.BlockHTTP}}}
	if s, none := o.StageSummary(), (&Outcome{}).StageSummary(); s != "dns(nxdomain)+http" || none != "none" {
		t.Fatalf("summaries = %q, %q", s, none)
	}
}

// TestCancelUnblocksStalledExchange: a measurement stalled on a censor that
// swallowed its request — in stage 3, or on the redirect hop — ends with its
// context, as no verdict, long before the HTTP timeout would have ended it.
func TestCancelUnblocksStalledExchange(t *testing.T) {
	p := symptomPolicy() // and the ISP's block page swallowed too
	p.HTTP = append(p.HTTP, censor.HTTPRule{Host: "block.isp.pk", Action: censor.HTTPDrop})
	det, cen := detWorld(vtime.New(500), p)
	det.HTTPTimeout = 100 * time.Hour // 12 min real at this scale
	for _, c := range []struct{ name, url string }{{"stage 3", "httpdrop.example/"}, {"redirect hop", "302.example/"}} {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			dropped := cen.Counters.Get(censor.HTTPDrop.String())
			done := make(chan Outcome, 1)
			go func() { done <- det.Measure(ctx, c.url, HTTP) }()
			for cen.Counters.Get(censor.HTTPDrop.String()) == dropped {
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

// TestMeasureAllocs pins the allocations of one verdict, the world's own
// included, on the event clock.
func TestMeasureAllocs(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("allocation counts are not exact under the race detector")
	}
	det := eventWorld()
	for i, url := range strings.Fields("clean.example/ blockpage.example/ ipreset.example/ nxdomain.example/") {
		measure := func() { det.Measure(context.Background(), url, HTTP) }
		for range 20 {
			measure()
		}
		if n, budget := testing.AllocsPerRun(200, measure), []float64{34, 49, 23, 54}[i]; n > budget {
			t.Errorf("%s: %.0f allocations per measurement, budget %.0f", url, n, budget)
		}
	}
}
