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
	"context"
	"errors"
	"fmt"
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
	// ResolvedIP is the address the direct path used.
	ResolvedIP string
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

// PrimaryType returns the first detected mechanism.
func (o *Outcome) PrimaryType() localdb.BlockType {
	if len(o.Stages) == 0 {
		return localdb.BlockNone
	}
	return o.Stages[0].Type
}

// StageSummary renders the stages as "dns(nxdomain)+http(blockpage)".
func (o *Outcome) StageSummary() string {
	if len(o.Stages) == 0 {
		return "none"
	}
	parts := make([]string, len(o.Stages))
	for i, s := range o.Stages {
		if s.Detail != "" {
			parts[i] = fmt.Sprintf("%s(%s)", s.Type, s.Detail)
		} else {
			parts[i] = s.Type.String()
		}
	}
	return strings.Join(parts, "+")
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

func (d *Detector) connectTimeout() time.Duration {
	if d.ConnectTimeout > 0 {
		return d.ConnectTimeout
	}
	return DefaultConnectTimeout
}

func (d *Detector) httpTimeout() time.Duration {
	if d.HTTPTimeout > 0 {
		return d.HTTPTimeout
	}
	return DefaultHTTPTimeout
}

// Measure runs the Figure-4 flowchart for url ("host/path") over the given
// scheme and returns the verdict.
func (d *Detector) Measure(ctx context.Context, url string, scheme Scheme) (out Outcome) {
	start := d.Clock.Now()
	out = Outcome{URL: url, Scheme: scheme, Status: localdb.NotBlocked}
	defer func() { out.Took = d.Clock.Since(start) }()

	// Flight recorder: every stage verdict lands on the context's lane; the
	// summary verdict (status + stages + timed-out phase) is recorded once,
	// whichever return path runs.
	lane := trace.FromContext(ctx)
	if lane != nil {
		lane.Event("detect", "measure", scheme.String()+" "+url)
		defer func() {
			if out.TimeoutPhase != "" {
				lane.Event("detect", "timeout-phase", out.TimeoutPhase)
			}
			lane.Event("detect", "verdict", out.Status.String()+" "+out.StageSummary())
		}()
	}
	// A blocking verdict reached only because the *caller's* context expired
	// or was cancelled mid-measurement describes the caller — a failover
	// deadline budget, a client shutdown — not the censor, and must never be
	// recorded as a verdict. (Registered after the lane defer so the trace
	// records the rewritten verdict.)
	defer func() {
		if ctx.Err() != nil && out.Status == localdb.Blocked {
			out.Status = localdb.NotMeasured
			out.Suspected = false
			out.Stages = nil
			out.Detected = 0
			out.TimeoutPhase = ""
			if out.Err == nil {
				out.Err = ctx.Err()
			}
		}
	}()

	host, path := localdb.SplitURL(url)

	// Stage 1: DNS. IP-literal hosts skip resolution (the "IP as hostname"
	// fix measures no DNS stage).
	ip := host
	var dnsStage *localdb.Stage
	if !netem.IsIPLiteral(host) {
		res := d.LDNS.Lookup(ctx, host)
		switch {
		case res.OK():
			ip = res.IPs[0]
		default:
			// LDNS failed or was tampered with: blocking is detectable
			// right here (Table 5 clocks REFUSED at one RTT); the global
			// query that follows is the continuation, not the detection.
			out.Detected = d.Clock.Since(start)
			detail := dnsDetail(res)
			gres := d.GDNS.Lookup(ctx, host)
			if !gres.OK() {
				gdetail := dnsDetail(gres)
				if silentDNS(detail) && silentDNS(gdetail) && ctx.Err() == nil {
					// Both resolvers went *silent*. Dead names answer with
					// NXDOMAIN; dropped queries on both the ISP and the
					// global path mean on-path DNS interception (a censor
					// poisoning/dropping foreign resolver traffic — the
					// counter-circumvention escalation). That is a verdict,
					// not an unresolvable name.
					out.TimeoutPhase = "dns"
					out.Stages = append(out.Stages, localdb.Stage{Type: localdb.BlockDNS, Detail: detail})
					out.Status = localdb.Blocked
					out.Detected = d.Clock.Since(start)
					out.Err = fmt.Errorf("detect: %s: DNS silent on local and global paths: local %v, global %v", host, res.Err, gres.Err)
					return out
				}
				// Not resolvable anywhere: a dead name, not censorship.
				out.Detected = 0
				out.Err = fmt.Errorf("detect: %s unresolvable: local %v, global %v", host, res.Err, gres.Err)
				return out
			}
			ip = gres.IPs[0]
			if detail == "no-response" || detail == "timeout" {
				out.TimeoutPhase = "dns"
			}
			dnsStage = &localdb.Stage{Type: localdb.BlockDNS, Detail: detail}
			out.Stages = append(out.Stages, *dnsStage)
			out.Status = localdb.Blocked
		}
	}
	out.ResolvedIP = ip

	// Stage 2: TCP connect.
	port := 80
	if scheme == HTTPS {
		port = tlsx.Port
	}
	cctx, cancel := d.Clock.WithTimeout(ctx, d.connectTimeout())
	mark := lane.Begin(trace.PhaseConnect)
	conn, err := d.Dial(cctx, netem.Addr{IP: ip, Port: port}.String())
	mark.End()
	cancel()
	if err != nil {
		out.Status = localdb.Blocked
		out.Err = err
		out.Detected = d.Clock.Since(start)
		switch {
		case netem.IsReset(err):
			out.Stages = append(out.Stages, localdb.Stage{Type: localdb.BlockIP, Detail: "rst"})
		case netem.IsTimeout(err):
			out.TimeoutPhase = "connect"
			out.Stages = append(out.Stages, localdb.Stage{Type: localdb.BlockTCPTimeout, Detail: "connect-timeout"})
		case netem.IsRefused(err) && dnsStage != nil:
			// Redirected to a host that refuses the port: DNS blocking
			// already established; nothing to add.
		case netem.IsRefused(err):
			// Refused: either the real service is down, or a clean-looking
			// DNS answer silently redirected us to a host that does not
			// serve this port (ISP-B's HTTPS behaviour in Table 1). The
			// global resolver disambiguates.
			if !netem.IsIPLiteral(host) {
				if g := d.GDNS.Lookup(ctx, host); g.OK() && !containsStr(g.IPs, ip) {
					out.Stages = append(out.Stages, localdb.Stage{Type: localdb.BlockDNS, Detail: "redirect"})
					out.Detected = d.Clock.Since(start)
					break
				}
			}
			out.Status = localdb.NotBlocked
			out.Stages = nil
			out.Detected = 0
		default:
			out.Stages = append(out.Stages, localdb.Stage{Type: localdb.BlockTCPTimeout, Detail: "connect-failed"})
		}
		return out
	}
	defer conn.Close()

	// Stage 3: the HTTP/S exchange, bounded as a whole: a censor that
	// swallows the request shows only as this timeout.
	hctx, cancel := d.Clock.WithTimeout(ctx, d.httpTimeout())
	defer cancel()
	defer netem.Bind(hctx, conn).Release()
	var stream net.Conn = conn
	if scheme == HTTPS {
		tc, err := tlsx.ClientCtx(ctx, conn, host, "")
		if err != nil {
			out.Status = localdb.Blocked
			out.Err = err
			detail := "handshake-failed"
			if netem.IsReset(err) {
				detail = "rst"
			} else if netem.IsTimeout(err) {
				detail = "handshake-timeout"
				out.TimeoutPhase = "tls"
			}
			out.Stages = append(out.Stages, localdb.Stage{Type: localdb.BlockSNI, Detail: detail})
			out.Detected = d.Clock.Since(start)
			return out
		}
		stream = tc
	}

	req := httpx.NewRequest("GET", host, path)
	req.Header.Set("Connection", "close")
	if err := httpx.WriteRequest(stream, req); err != nil {
		out.Status = localdb.Blocked
		out.Err = err
		out.Stages = append(out.Stages, localdb.Stage{Type: httpBlockFor(scheme), Detail: "write-failed"})
		out.Detected = d.Clock.Since(start)
		return out
	}
	br := httpx.GetReader(stream)
	resp, err := httpx.ReadResponseCtx(ctx, br, stream)
	httpx.PutReader(br)
	if err != nil {
		out.Status = localdb.Blocked
		out.Err = err
		detail := "no-response"
		if netem.IsReset(err) {
			detail = "rst"
		} else if errors.Is(err, context.DeadlineExceeded) || netem.IsTimeout(err) {
			detail = "get-timeout"
			out.TimeoutPhase = "http"
		}
		out.Stages = append(out.Stages, localdb.Stage{Type: httpBlockFor(scheme), Detail: detail})
		out.Detected = d.Clock.Since(start)
		// The HTTP failure may have happened on a DNS-redirected host
		// (multi-stage blocking, Table 1's ISP-B): cross-check the local
		// resolution against the global one.
		out.appendDNSRedirect(d, ctx, host, ip, dnsStage)
		return out
	}
	out.Response = resp

	// Stage 4: block-page detection (phase 1), including one redirect hop —
	// censors commonly 302 to an in-ISP block-page host (Table 1, ISP-A).
	body := resp.Body
	redirected := false
	if resp.StatusCode == 301 || resp.StatusCode == 302 {
		if loc := resp.Header.Get("Location"); loc != "" {
			fetched := d.fetchRedirect(ctx, loc)
			if ctx.Err() != nil {
				// The hop ended with the caller, not with an answer: the
				// page was never classified, so there is no verdict.
				out.Status = localdb.NotMeasured
				out.Err = ctx.Err()
				return out
			}
			if fetched != nil {
				body = fetched
				redirected = true
			}
		}
	}
	if d.Classifier != nil && blockpage.Phase1MaxLen >= len(body) {
		if v := d.Classifier.Phase1(body); v.Suspected {
			out.Status = localdb.Blocked
			out.Suspected = true
			detail := "blockpage"
			if redirected {
				detail = "blockpage-redirect"
			}
			lane.Event("http", "blockpage-match", detail)
			out.Stages = append(out.Stages, localdb.Stage{Type: httpBlockFor(scheme), Detail: detail})
			out.Detected = d.Clock.Since(start)
			// "+ Possible DNS" (Figure 4): if the local answer differs from
			// the global one, the block page came via a DNS redirect.
			out.appendDNSRedirect(d, ctx, host, ip, dnsStage)
			return out
		}
	}
	// Clean page. A tampered DNS stage may still have been recorded
	// (multi-stage detection found only the DNS stage blocking).
	return out
}

// appendDNSRedirect adds a dns(redirect) stage when the local resolution
// disagrees with the global one and no DNS stage was recorded yet.
func (o *Outcome) appendDNSRedirect(d *Detector, ctx context.Context, host, usedIP string, dnsStage *localdb.Stage) {
	if dnsStage != nil || netem.IsIPLiteral(host) {
		return
	}
	if g := d.GDNS.Lookup(ctx, host); g.OK() && !containsStr(g.IPs, usedIP) {
		o.Stages = append(o.Stages, localdb.Stage{Type: localdb.BlockDNS, Detail: "redirect"})
	}
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
	cctx, cancel := d.Clock.WithTimeout(ctx, d.httpTimeout())
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

func httpBlockFor(s Scheme) localdb.BlockType {
	if s == HTTPS {
		return localdb.BlockSNI
	}
	return localdb.BlockHTTP
}

// silentDNS reports whether a DNS failure detail means "no usable answer
// ever arrived" — the signature of dropped/intercepted queries, as opposed
// to an authoritative NXDOMAIN/SERVFAIL which proves a resolver was heard.
func silentDNS(detail string) bool {
	return detail == "no-response" || detail == "timeout"
}

func dnsDetail(res dnsx.Result) string {
	switch {
	case errors.Is(res.Err, dnsx.ErrNoResponse):
		return "no-response"
	case errors.Is(res.Err, context.DeadlineExceeded):
		// The caller's deadline expired mid-lookup: a DNS-phase timeout,
		// not a generic failure.
		return "timeout"
	case res.RCode != dnsx.RCodeNoError:
		return strings.ToLower(dnsx.RCodeName(res.RCode))
	default:
		return "failed"
	}
}

func containsStr(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
