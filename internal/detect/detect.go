// Package detect implements C-Saw's in-line blocking detection for the
// direct path: the flowchart of Figure 4 in the paper. One measurement
// walks the protocol stack the way a censor can interfere with it:
//
//	local DNS → (on failure) global DNS → TCP connect → HTTP/S request
//	→ block-page classification (phase 1)
//
// recording the mechanism at each stage (supporting multi-stage blocking,
// e.g. ISP-B's DNS + HTTP/HTTPS in Table 1) and how long detection took —
// the quantity Table 5 reports per mechanism. A block page found after a
// suspicious DNS answer is attributed to "HTTP/S blocking + possible DNS",
// exactly the combined box in Figure 4, by comparing the local and global
// resolutions.
package detect

import (
	"cmp"
	"context"
	"errors"
	"net"
	"strings"
	"time"

	"csaw/internal/blockpage"
	"csaw/internal/dnsx"
	"csaw/internal/httpx"
	"csaw/internal/localdb"
	"csaw/internal/netem"
	"csaw/internal/tlsx"
	"csaw/internal/trace"
	"csaw/internal/vtime"
)

// Default stage timeouts, tuned to the client behaviours behind Table 5:
// a blackholed SYN surfaces after ~21 s of connect retries, a swallowed GET
// after the HTTP read timeout.
const (
	DefaultConnectTimeout = 21 * time.Second
	DefaultHTTPTimeout    = 18 * time.Second
)

// Scheme selects the protocol measured on the direct path.
type Scheme int

// Schemes.
const (
	HTTP Scheme = iota
	HTTPS
)

// String returns the scheme name.
func (s Scheme) String() string {
	if s == HTTPS {
		return "https"
	}
	return "http"
}

// Outcome is one direct-path measurement.
type Outcome struct {
	URL    string
	Scheme Scheme
	Status localdb.Status
	Stages []localdb.Stage
	// Suspected marks a phase-1 block-page verdict that phase 2 (size
	// comparison against a circumvented copy) should confirm (§4.3.1).
	Suspected bool
	// Response is the direct-path response, if any — served to the user
	// when the page is clean.
	Response *httpx.Response
	// Took is the total virtual time of the measurement, including any
	// post-verdict continuation (e.g. fetching via GDNS after DNS blocking
	// was established).
	Took time.Duration
	// Detected is the virtual time at which the (last) blocking verdict
	// was reached — Table 5's detection-time metric. Zero when clean.
	Detected time.Duration
	// TimeoutPhase names the protocol phase whose timeout produced a
	// timeout-derived blocking verdict ("dns", "connect", "tls", "http").
	// Empty when the verdict did not come from a timeout — needed to
	// attribute the burnt detection time to the right PLT phase.
	TimeoutPhase string
	// Err is the underlying failure for diagnostics.
	Err error
}

// Blocked reports whether the outcome concluded blocking.
func (o *Outcome) Blocked() bool { return o.Status == localdb.Blocked }

// StageSummary renders the stages as "dns(nxdomain)+http(blockpage)".
func (o *Outcome) StageSummary() string {
	parts := make([]string, len(o.Stages))
	for i, s := range o.Stages {
		if parts[i] = s.Type.String(); s.Detail != "" {
			parts[i] += "(" + s.Detail + ")"
		}
	}
	return cmp.Or(strings.Join(parts, "+"), "none")
}

// Detector measures the direct path.
type Detector struct {
	Clock *vtime.Clock
	// Dial is the direct-path dialer.
	Dial netem.DialFunc
	// LDNS is the stub resolver pointed at the ISP resolver; GDNS at a
	// public resolver outside the ISP (Figure 4's "Global DNS Query").
	LDNS, GDNS *dnsx.Client
	// Classifier is the phase-1 block-page heuristic.
	Classifier *blockpage.Classifier
	// ConnectTimeout and HTTPTimeout override the defaults when positive.
	ConnectTimeout time.Duration
	HTTPTimeout    time.Duration
}

// orDefault is d when positive, else def.
func orDefault(d, def time.Duration) time.Duration {
	if d > 0 {
		return d
	}
	return def
}

// Observations are what one measurement saw, and no verdict.
type Observations struct {
	URL, Host string
	Scheme    Scheme
	// The local lookup, the global one after its failure, and the global one
	// that checks a local answer the exchange failed or met a block page on.
	LDNS, GDNS, Cross Result
	Addr              string // dialled: the host's own, or the first answer
	// The exchange's steps; each ran only if the one before succeeded.
	Connect, TLS, Write, Read Result
	Response                  *httpx.Response
	// Redirected: the page was a redirect hop's. HopCut: the caller ended first.
	Redirected, HopCut bool
	BlockPage          bool          // phase 1's verdict on the page
	PageAt             time.Duration // when it was reached
	CallerErr          error         // the caller's context's, when the stages ended
}

// Result is what one stage saw, and when (from the start) it ended.
type Result struct {
	Class Class
	IPs   []string // a resolver's answer
	Err   error
	At    time.Duration
}

// Measure runs the Figure-4 flowchart for url ("host/path") over the given
// scheme and returns the verdict.
func (d *Detector) Measure(ctx context.Context, url string, scheme Scheme) Outcome {
	out, _ := d.measure(ctx, url, scheme)
	return out
}

// measure is Measure, returning what the stages observed too.
func (d *Detector) measure(ctx context.Context, url string, scheme Scheme) (Outcome, Observations) {
	start := d.Clock.Now()
	obs := d.observe(ctx, start, url, scheme)
	out := Analyse(obs)
	out.Took = d.Clock.Since(start)
	if lane := trace.FromContext(ctx); lane != nil {
		if out.TimeoutPhase != "" {
			lane.Event("detect", "timeout-phase", out.TimeoutPhase)
		}
		lane.Event("detect", "verdict", out.Status.String()+" "+out.StageSummary())
	}
	return out, obs
}

// observe runs the stages as a censor can interfere with them, recording
// what each saw; every event lands on the context's lane.
func (d *Detector) observe(ctx context.Context, start time.Time, url string, scheme Scheme) (o Observations) {
	lane := trace.FromContext(ctx)
	if lane != nil {
		lane.Event("detect", "measure", scheme.String()+" "+url)
	}
	since := func() time.Duration { return d.Clock.Since(start) }
	// Figure 4's "possible DNS": the global answer for a host the local
	// resolver answered.
	crossCheck := func() {
		if o.LDNS.Class == Answered {
			o.Cross = lookup(d.GDNS.Lookup(ctx, o.Host), since())
		}
	}
	defer func() { o.CallerErr = ctx.Err() }() // registered first, so run last
	host, path := localdb.SplitURL(url)
	o.URL, o.Scheme, o.Host = url, scheme, host

	// Stage 1: DNS, none for an IP-literal host (the "IP as hostname" fix). A
	// failed local lookup is followed by the global one; if both fail, stop.
	if netem.IsIPLiteral(host) {
		o.Addr = host
	} else {
		res := d.LDNS.Lookup(ctx, host)
		if o.LDNS = lookup(res, since()); !res.OK() {
			res = d.GDNS.Lookup(ctx, host)
			if o.GDNS = lookup(res, since()); !res.OK() {
				return o
			}
		}
		o.Addr = res.IPs[0]
	}

	// Stage 2: TCP connect.
	port := 80
	if scheme == HTTPS {
		port = tlsx.Port
	}
	cctx, cancel := d.Clock.WithTimeout(ctx, orDefault(d.ConnectTimeout, DefaultConnectTimeout))
	mark := lane.Begin(trace.PhaseConnect)
	conn, err := d.Dial(cctx, netem.Addr{IP: o.Addr, Port: port}.String())
	mark.End()
	cancel()
	if o.Connect = step(err, 0, nil, since()); err != nil {
		if o.Connect.Class == Refused {
			crossCheck()
		}
		return o
	}
	defer conn.Close()

	// Stage 3: the HTTP/S exchange, bounded as a whole: a censor that
	// swallows the request shows only as this timeout.
	hctx, cancel := d.Clock.WithTimeout(ctx, orDefault(d.HTTPTimeout, DefaultHTTPTimeout))
	defer cancel()
	defer netem.Bind(hctx, conn).Release()
	var stream net.Conn = conn
	if scheme == HTTPS {
		tc, err := tlsx.ClientCtx(ctx, conn, host, "")
		if o.TLS = step(err, 0, nil, since()); err != nil {
			return o
		}
		stream = tc
	}
	req := httpx.NewRequest("GET", host, path)
	req.Header.Set("Connection", "close")
	if o.Write = step(httpx.WriteRequest(stream, req), 0, nil, since()); o.Write.Err != nil {
		return o
	}
	br := httpx.GetReader(stream)
	resp, err := httpx.ReadResponseCtx(ctx, br, stream)
	httpx.PutReader(br)
	if o.Read = step(err, 0, nil, since()); err != nil {
		crossCheck()
		return o
	}
	o.Response = resp

	// Stage 4: block-page detection (phase 1), including one redirect hop —
	// censors commonly 302 to an in-ISP block-page host (Table 1, ISP-A).
	body := resp.Body
	if resp.StatusCode == 301 || resp.StatusCode == 302 {
		if loc := resp.Header.Get("Location"); loc != "" {
			fetched := d.fetchRedirect(ctx, loc)
			if o.HopCut = ctx.Err() != nil; o.HopCut {
				return o
			}
			if fetched != nil {
				body, o.Redirected = fetched, true
			}
		}
	}
	o.BlockPage = d.Classifier != nil && blockpage.Phase1MaxLen >= len(body) && d.Classifier.Phase1(body).Suspected
	if o.PageAt = since(); o.BlockPage {
		lane.Event("http", "blockpage-match", blockPageDetail(o.Redirected))
		crossCheck()
	}
	return o
}

func lookup(r dnsx.Result, at time.Duration) Result { return step(r.Err, r.RCode, r.IPs, at) }

// step classifies what a stage saw by its error and, for a lookup, the
// resolver's RCODE and answer.
func step(err error, rcode int, ips []string, at time.Duration) Result {
	r := Result{Class: Failed, Err: err, At: at}
	switch {
	case err == nil && len(ips) > 0:
		r.Class, r.IPs = Answered, ips
	case err == nil:
		r.Class = ""
	case errors.Is(err, dnsx.ErrNoResponse):
		r.Class = NoResponse
	case errors.Is(err, context.DeadlineExceeded):
		r.Class = Timeout // for a lookup, the caller's deadline expired mid-lookup
	case rcode != dnsx.RCodeNoError:
		r.Class = Class(strings.ToLower(dnsx.RCodeName(rcode)))
	case netem.IsReset(err):
		r.Class = Reset
	case netem.IsTimeout(err):
		r.Class = Timeout
	case netem.IsRefused(err):
		r.Class = Refused
	}
	return r
}

// fetchRedirect retrieves a redirect target over the direct path for
// classification only.
func (d *Detector) fetchRedirect(ctx context.Context, loc string) []byte {
	host, path := localdb.SplitURL(loc)
	ip := host
	if !netem.IsIPLiteral(host) {
		res := d.LDNS.Lookup(ctx, host)
		if !res.OK() {
			return nil
		}
		ip = res.IPs[0]
	}
	cctx, cancel := d.Clock.WithTimeout(ctx, orDefault(d.HTTPTimeout, DefaultHTTPTimeout))
	defer cancel()
	conn, err := d.Dial(cctx, ip+":80")
	if err != nil {
		return nil
	}
	defer conn.Close()
	defer netem.Bind(cctx, conn).Release()
	// Off the lane: the hop is fetched for classification only, so its wait
	// stays out of the measured fetch's TTFB/body phases.
	resp, err := httpx.RoundTrip(context.Background(), conn, httpx.NewRequest("GET", host, path))
	if err != nil {
		return nil
	}
	return resp.Body
}
