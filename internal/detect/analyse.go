package detect

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"csaw/internal/localdb"
)

// Class is what one stage saw: the zero Class for a step that succeeded or
// a stage that did not run. A failed lookup's class (its RCODE's name, when
// the resolver answered with one) is the detail of the DNS stage it makes.
type Class string

// Classes.
const (
	Answered   Class = "answered"
	Refused    Class = "refused"
	NoResponse Class = "no-response"
	Timeout    Class = "timeout"
	Reset      Class = "reset"
	Failed     Class = "failed"
)

// silent reports whether no answer ever arrived — the signature of dropped
// queries, where an NXDOMAIN or SERVFAIL proves a resolver was heard.
func (c Class) silent() bool { return c == NoResponse || c == Timeout }

// Analyse is Figure 4's verdict on what one measurement observed: the
// mechanism at each stage and when blocking was established, from o alone.
func Analyse(o Observations) Outcome {
	out := Outcome{URL: o.URL, Scheme: o.Scheme, Status: localdb.NotBlocked, Response: o.Response}
	out.judge(&o)
	// A blocking verdict reached only because the *caller's* context expired
	// or was cancelled mid-measurement describes the caller — a failover
	// deadline budget, a client shutdown — not the censor, and must never be
	// recorded as a verdict; nor is a page the caller left unclassified.
	if o.CallerErr != nil && (out.Status == localdb.Blocked || o.HopCut) {
		return Outcome{URL: o.URL, Scheme: o.Scheme, Status: localdb.NotMeasured, Response: o.Response, Err: cmp.Or(out.Err, o.CallerErr)}
	}
	return out
}

func (out *Outcome) judge(o *Observations) {
	dns := o.LDNS.Class != "" && o.LDNS.Class != Answered
	if dns && o.GDNS.Class != Answered {
		if o.LDNS.Class.silent() && o.GDNS.Class.silent() && o.CallerErr == nil {
			// Both resolvers went *silent*. Dead names answer with NXDOMAIN;
			// queries dropped on the ISP and the global path alike mean
			// on-path DNS interception, a verdict and not a dead name.
			out.TimeoutPhase = "dns"
			out.block(localdb.BlockDNS, string(o.LDNS.Class), o.GDNS.At)
			out.Err = fmt.Errorf("detect: %s: DNS silent on local and global paths: local %v, global %v", o.Host, o.LDNS.Err, o.GDNS.Err)
			return
		}
		// Not resolvable anywhere: a dead name, not censorship.
		out.Err = fmt.Errorf("detect: %s unresolvable: local %v, global %v", o.Host, o.LDNS.Err, o.GDNS.Err)
		return
	}
	if dns {
		// Detectable the moment LDNS returned (Table 5 clocks REFUSED at one
		// RTT); the global query that followed is the continuation.
		if o.LDNS.Class.silent() {
			out.TimeoutPhase = "dns"
		}
		out.block(localdb.BlockDNS, string(o.LDNS.Class), o.LDNS.At)
	}

	httpBlock := localdb.BlockHTTP
	if o.Scheme == HTTPS {
		httpBlock = localdb.BlockSNI
	}
	out.Err = cmp.Or(o.Connect.Err, o.TLS.Err, o.Write.Err, o.Read.Err) // the step the stages stopped at
	switch c, t, r := o.Connect, o.TLS, o.Read; {
	case c.Class == Reset:
		out.block(localdb.BlockIP, "rst", c.At)
	case c.Class == Timeout:
		out.TimeoutPhase = "connect"
		out.block(localdb.BlockTCPTimeout, "connect-timeout", c.At)
	case c.Class == Refused && dns:
		// Redirected to a host that refuses the port: DNS blocking already
		// established; nothing to add.
		out.Detected = c.At
	case c.Class == Refused:
		// The service is down, or a clean-looking DNS answer sent us to a host
		// without this port (ISP-B's HTTPS in Table 1): the global one tells.
		out.dnsRedirect(o, o.Cross.At)
	case c.Class != "":
		out.block(localdb.BlockTCPTimeout, "connect-failed", c.At)
	case t.Class != "":
		out.block(localdb.BlockSNI, out.failDetail(t.Class, "tls", "handshake-timeout", "handshake-failed"), t.At)
	case o.Write.Class != "":
		out.block(httpBlock, "write-failed", o.Write.At)
	case r.Class != "":
		// Perhaps on a DNS-redirected host (multi-stage blocking, ISP-B in
		// Table 1): the global answer tells.
		out.block(httpBlock, out.failDetail(r.Class, "http", "get-timeout", "no-response"), r.At)
		out.dnsRedirect(o, r.At)
	case o.BlockPage:
		// "+ Possible DNS" (Figure 4): if the local answer differs from the
		// global one, the block page came via a DNS redirect.
		out.Suspected = true
		out.block(httpBlock, blockPageDetail(o.Redirected), o.PageAt)
		out.dnsRedirect(o, o.PageAt)
	}
	// Otherwise a clean page, though a tampered DNS stage may still stand.
}

// block records a blocking stage, established at offset at.
func (out *Outcome) block(t localdb.BlockType, detail string, at time.Duration) {
	out.Status = localdb.Blocked
	out.Stages = append(out.Stages, localdb.Stage{Type: t, Detail: detail})
	out.Detected = at
}

// dnsRedirect adds a dns(redirect) stage, established at offset at, when the
// global answer does not hold the address the direct path used.
func (out *Outcome) dnsRedirect(o *Observations, at time.Duration) {
	if o.Cross.Class == Answered && !slices.Contains(o.Cross.IPs, o.Addr) {
		out.block(localdb.BlockDNS, "redirect", at)
	}
}

// failDetail names a failed TLS or HTTP step, charging a timeout to phase.
func (out *Outcome) failDetail(c Class, phase, timeout, other string) string {
	switch c {
	case Reset:
		return "rst"
	case Timeout:
		out.TimeoutPhase = phase
		return timeout
	}
	return other
}

func blockPageDetail(redirected bool) string {
	if redirected {
		return "blockpage-redirect"
	}
	return "blockpage"
}
