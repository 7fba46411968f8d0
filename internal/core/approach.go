// Package core implements the C-Saw client: the local proxy of §4.3 with
// its measurement module (Algorithm 1, redundant requests, the two-phase
// block-page check) and circumvention module (local fixes before relays,
// EWMA-based approach selection with periodic exploration), plus the
// supporting machinery of §4.4 — URL aggregation via localdb, churn
// handling, multihoming detection — and the global-DB synchronization and
// privacy plumbing of §5.
package core

import (
	"context"
	"fmt"

	"csaw/internal/dnsx"
	"csaw/internal/lantern"
	"csaw/internal/localdb"
	"csaw/internal/netem"
	"csaw/internal/tor"
	"csaw/internal/vtime"
	"csaw/internal/web"
)

// Kind distinguishes local fixes from relay-based approaches; §4.3.2:
// "we always prefer local-fixes over relay-based approaches".
type Kind int

// Approach kinds.
const (
	KindLocalFix Kind = iota
	KindRelay
)

// Approach is one circumvention method the client can dispatch a URL over.
// It holds only what every client holds alike, so one approach set serves a
// whole world: a client fetches through it with its own host's dial under
// its own connection budget and with its own resolvers (Client.roundTrip).
// Only an approach with a dialer of its own (Tor, Lantern) belongs to one
// client.
type Approach struct {
	Name string
	Kind Kind
	// Anonymous marks approaches that hide the user (Tor); the
	// PreferAnonymity user preference restricts selection to these (§4.4).
	Anonymous bool
	// Transport is how the approach reaches a site: TLS, SNI, Host header,
	// proxy and timeout, and a Dialer only when the approach has its own.
	Transport *web.Transport
	// Resolve names the client resolver that looks site names up, unless
	// the transport has a Lookup of its own.
	Resolve Resolve
	// Handles reports whether the approach can defeat the given blocking
	// stages for the given URL. Relay approaches handle everything.
	Handles func(url string, stages []localdb.Stage) bool
}

// Resolve names which of the fetching client's resolvers an approach uses.
type Resolve int

// Resolvers an approach can name.
const (
	// ResolveAtRelay looks nothing up: "host:port" goes to the dial, and
	// the relay at its far end resolves.
	ResolveAtRelay Resolve = iota
	// ResolveGlobal asks the global resolver only (fixes for DNS-tampered
	// names).
	ResolveGlobal
	// ResolveLocalThenGlobal asks the local resolver and falls back to the
	// global one — what a local fix uses when only part of the stack is
	// tampered with.
	ResolveLocalThenGlobal
)

// String returns the approach name.
func (a *Approach) String() string { return a.Name }

// handlesAll is the relay predicate.
func handlesAll(string, []localdb.Stage) bool { return true }

// stagesWithin reports whether every stage's mechanism is in allowed.
func stagesWithin(stages []localdb.Stage, allowed ...localdb.BlockType) bool {
	if len(stages) == 0 {
		return false
	}
	for _, s := range stages {
		ok := false
		for _, a := range allowed {
			if s.Type == a {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// CombinedLookup resolves via the local resolver and falls back to the
// global one (ResolveLocalThenGlobal).
func CombinedLookup(ldns, gdns *dnsx.Client) func(context.Context, string) (string, error) {
	return func(ctx context.Context, host string) (string, error) {
		return lookupLocalThenGlobal(ctx, ldns, gdns, host)
	}
}

// GDNSLookup resolves only via the global resolver (ResolveGlobal).
func GDNSLookup(gdns *dnsx.Client) func(context.Context, string) (string, error) {
	return func(ctx context.Context, host string) (string, error) {
		return lookupGlobal(ctx, gdns, host)
	}
}

func lookupLocalThenGlobal(ctx context.Context, ldns, gdns *dnsx.Client, host string) (string, error) {
	if res := ldns.Lookup(ctx, host); res.OK() {
		return res.IPs[0], nil
	}
	if res := gdns.Lookup(ctx, host); res.OK() {
		return res.IPs[0], nil
	}
	return "", fmt.Errorf("core: cannot resolve %q on any path", host)
}

func lookupGlobal(ctx context.Context, gdns *dnsx.Client, host string) (string, error) {
	if res := gdns.Lookup(ctx, host); res.OK() {
		return res.IPs[0], nil
	}
	return "", fmt.Errorf("core: global DNS cannot resolve %q", host)
}

// The local fixes and the static proxy below hold nothing of a client's:
// their host and resolver arguments are not kept, and each client that
// fetches through them dials and resolves with its own (see Approach).

// PublicDNSFix builds the local fix for pure DNS blocking: resolve via the
// public resolver and fetch directly (§4.3.2).
func PublicDNSFix(_ *netem.Host, clock *vtime.Clock, _ *dnsx.Client) *Approach {
	return &Approach{
		Name:      "public-dns",
		Kind:      KindLocalFix,
		Transport: &web.Transport{Label: "public-dns", Clock: clock},
		Resolve:   ResolveGlobal,
		Handles: func(_ string, stages []localdb.Stage) bool {
			return stagesWithin(stages, localdb.BlockDNS)
		},
	}
}

// HTTPSFix builds the local fix for HTTP-level blocking: fetch the same
// content over TLS so the URL/keyword filter on port 80 sees nothing
// (§4.3.2: "in case of HTTP blocking, HTTPS is used as a local-fix").
// DNS-tampered names resolve via the global resolver.
func HTTPSFix(_ *netem.Host, clock *vtime.Clock, _, _ *dnsx.Client) *Approach {
	return &Approach{
		Name:      "https",
		Kind:      KindLocalFix,
		Transport: &web.Transport{Label: "https", TLS: true, Clock: clock},
		Resolve:   ResolveLocalThenGlobal,
		Handles: func(_ string, stages []localdb.Stage) bool {
			return stagesWithin(stages, localdb.BlockHTTP, localdb.BlockDNS)
		},
	}
}

// NewFrontingFix builds the domain-fronting local fix: connect to the front
// host's address with the front's name in the SNI; the encrypted Host header
// names the blocked site (§2.2). frontable limits it to sites the front
// actually serves ("if supported by the destination server").
func NewFrontingFix(_ *netem.Host, clock *vtime.Clock, frontHost, frontIP string, frontable func(host string) bool) *Approach {
	return &Approach{
		Name: "domain-fronting",
		Kind: KindLocalFix,
		Transport: &web.Transport{
			Label:  "domain-fronting",
			Lookup: func(context.Context, string) (string, error) { return frontIP, nil },
			TLS:    true,
			SNI:    func(string) string { return frontHost },
			Clock:  clock,
		},
		Handles: func(url string, stages []localdb.Stage) bool {
			h, _ := localdb.SplitURL(url)
			if !frontable(h) {
				return false
			}
			// Fronting defeats every mechanism aimed at the blocked site:
			// the censor only ever sees the front's name and address.
			return len(stages) > 0
		},
	}
}

// IPAsHostnameFix fetches the blocked site by raw IP with the IP in the
// Host header, evading hostname/keyword filters and tampered DNS (§2.3,
// Figure 1c).
func IPAsHostnameFix(_ *netem.Host, clock *vtime.Clock, _ *dnsx.Client) *Approach {
	return &Approach{
		Name:      "ip-as-hostname",
		Kind:      KindLocalFix,
		Transport: &web.Transport{Label: "ip-as-hostname", HostHeaderFromAddr: true, Clock: clock},
		Resolve:   ResolveGlobal,
		Handles: func(_ string, stages []localdb.Stage) bool {
			return stagesWithin(stages, localdb.BlockHTTP, localdb.BlockDNS)
		},
	}
}

// StaticProxyApproach tunnels through a fixed CONNECT proxy outside the
// censored region (the Figure 1a comparators).
func StaticProxyApproach(name string, _ *netem.Host, clock *vtime.Clock, proxyAddr string) *Approach {
	return &Approach{
		Name:      name,
		Kind:      KindRelay,
		Transport: &web.Transport{Label: name, Proxy: proxyAddr, Clock: clock},
		Handles:   handlesAll,
	}
}

// TorApproach tunnels through a simulated Tor client.
func TorApproach(tc *tor.Client, clock *vtime.Clock) *Approach {
	return &Approach{
		Name:      "tor",
		Kind:      KindRelay,
		Anonymous: true,
		Transport: &web.Transport{Label: "tor", Dialer: tc.Dial, Clock: clock},
		Handles:   handlesAll,
	}
}

// TorBridgeApproach is Tor entered through unlisted bridges — the fallback
// for censors that blacklist the public relay list (§8: "using Tor bridges
// and pluggable transports makes it more challenging to block Tor"). It
// ranks behind plain Tor by construction: the approach-selection EWMA only
// routes traffic here once the public entries start failing.
func TorBridgeApproach(tc *tor.Client, clock *vtime.Clock) *Approach {
	tc.UseBridge = true
	return &Approach{
		Name:      "tor-bridge",
		Kind:      KindRelay,
		Anonymous: true,
		Transport: &web.Transport{Label: "tor-bridge", Dialer: tc.Dial, Clock: clock},
		Handles:   handlesAll,
	}
}

// LanternApproach tunnels through a simulated Lantern client.
func LanternApproach(lc *lantern.Client, clock *vtime.Clock) *Approach {
	return &Approach{
		Name:      "lantern",
		Kind:      KindRelay,
		Transport: &web.Transport{Label: "lantern", Dialer: lc.Dial, Clock: clock},
		Handles:   handlesAll,
	}
}
