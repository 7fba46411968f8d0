package worldgen

import (
	"fmt"
	"time"

	"csaw/internal/censor"
	"csaw/internal/core"
	"csaw/internal/netem"
	"csaw/internal/web"
)

// EventFleetSlack is the virtual-time headroom fleet runs grant every
// deadline that is not itself a blocking signal: approach transports, the
// static proxies' idle timeout, DNS attempts, global-DB API calls, and the
// driver's detector deadlines. Fleet runs use the discrete-event clock,
// where virtual time is shared and every concurrent worker's sleep advances
// it, so an op's deadline must outlast not its own latency but the total
// virtual distance the whole fleet covers while the op is in flight —
// potentially the rest of the run. A 100k-client run advances a few
// thousand virtual hours; this bound exceeds that by orders of magnitude
// while staying far from time.Duration overflow. Nothing in the fleet
// scenario blocks by timing out, so the slack costs nothing: no fleet
// verdict comes from a timeout.
const EventFleetSlack = 200_000 * time.Hour

// Fleet scenario: the population-scale world behind internal/fleet and
// cmd/csaw-fleet. It differs from the evaluation scenarios in two ways that
// only matter at O(10k) clients:
//
//   - Every blocking mechanism gives an *affirmative* signal (block page,
//     RST, DNS redirect onto an in-ISP block-page host) — nothing relies on
//     a timeout verdict. Same-seed fleet runs must produce the same global-DB
//     contents, and timeout verdicts are the one detector outcome a loaded
//     scheduler can flip (a stalled-but-alive direct path classifies as
//     tcp-timeout). With affirmative signals, raised detector deadlines
//     (core.Config.DetectConnectTimeout/DetectHTTPTimeout) are pure slack.
//
//   - Pages are single-object and a few KB: one emulated connection per page
//     load, and clearly larger than the block page so the phase-2 size
//     comparison never overturns a correct block verdict.
const (
	// FleetBaseASN numbers the fleet ISPs FleetBaseASN, FleetBaseASN+1, ...
	FleetBaseASN = 60000
	// fleetOriginBatch bounds sites per origin host (one listener each).
	fleetOriginBatch = 120
)

// FleetSiteHost names site i of the fleet catalog.
func FleetSiteHost(i int) string { return fmt.Sprintf("fleet%03d.example.pk", i) }

// FleetSiteURL is the URL fleet clients fetch for site i.
func FleetSiteURL(i int) string { return FleetSiteHost(i) + "/" }

// FleetScenario is the built fleet world: the censoring ISPs and, per AS,
// the exact URL set its policy blocks — the ground truth the fleet summary
// checks the global DB against.
type FleetScenario struct {
	ISPs  []*ISP
	Sites []string // URL per catalog index
	// Blocked maps ASN → the URLs that AS blocks (affirmative mechanisms).
	Blocked map[int]map[string]bool
	// Mechanism maps ASN → URL → "blockpage" | "rst" | "dns-redirect".
	Mechanism map[int]map[string]string
}

// BuildFleetScenario populates the world with nSites single-page sites and
// nISPs censoring ISPs. Each ISP blocks a rotated window of ~blockedFrac of
// the catalog, cycling mechanisms over {block page, RST, DNS redirect}, so
// AS blocklists overlap without coinciding — the cross-AS structure the
// global DB's per-AS snapshots are built for. Sites are frontable
// (domain fronting works) and reachable via the static proxies, so every
// blocked fetch has a working approach.
func (w *World) BuildFleetScenario(nSites, nISPs int, blockedFrac float64) (*FleetScenario, error) {
	if nSites <= 0 || nISPs <= 0 {
		return nil, fmt.Errorf("worldgen: fleet scenario needs sites and ISPs (got %d, %d)", nSites, nISPs)
	}
	if blockedFrac < 0 || blockedFrac > 1 {
		return nil, fmt.Errorf("worldgen: blockedFrac %v out of [0,1]", blockedFrac)
	}
	sc := &FleetScenario{
		Blocked:   make(map[int]map[string]bool, nISPs),
		Mechanism: make(map[int]map[string]string, nISPs),
	}

	// Sites: one page each, sizes varied a little for non-uniform PLTs but
	// always well above the block page's ~300 bytes.
	var batch []*web.Site
	for i := 0; i < nSites; i++ {
		s := web.NewSite(FleetSiteHost(i))
		s.AddPage("/", fmt.Sprintf("Fleet site %d", i), 2<<10+(i%13)*512)
		sc.Sites = append(sc.Sites, FleetSiteURL(i))
		batch = append(batch, s)
		if len(batch) == fleetOriginBatch || i == nSites-1 {
			name := fmt.Sprintf("origin-fleet-%d", i/fleetOriginBatch)
			if _, err := w.AddOrigin(name, true, batch...); err != nil {
				return nil, err
			}
			batch = nil
		}
	}

	nBlocked := int(blockedFrac * float64(nSites))
	// Rotate each ISP's blocked window by a stride coprime-ish with the
	// catalog so windows overlap partially rather than nesting.
	stride := nSites/nISPs + 1
	mechs := []string{"blockpage", "rst", "dns-redirect"}
	for j := 0; j < nISPs; j++ {
		asn := FleetBaseASN + j
		isp, err := w.AddISP(asn, fmt.Sprintf("fleet-isp-%02d", j), &censor.Policy{})
		if err != nil {
			return nil, err
		}
		bpHost := fmt.Sprintf("block.fleet-isp-%02d.pk", j)
		bp, err := w.AddBlockPageHost(isp, bpHost)
		if err != nil {
			return nil, err
		}
		p := &censor.Policy{
			Name:         fmt.Sprintf("fleet-AS%d", asn),
			DNS:          map[string]censor.DNSAction{},
			RedirectIP:   bp.IP(),
			BlockPageURL: bpHost + "/blocked.html",
		}
		sc.Blocked[asn] = make(map[string]bool, nBlocked)
		sc.Mechanism[asn] = make(map[string]string, nBlocked)
		for k := 0; k < nBlocked; k++ {
			i := (j*stride + k) % nSites
			host := FleetSiteHost(i)
			mech := mechs[(i+j)%len(mechs)]
			switch mech {
			case "blockpage":
				p.HTTP = append(p.HTTP, censor.HTTPRule{Host: host, Action: censor.HTTPBlockPage})
			case "rst":
				p.HTTP = append(p.HTTP, censor.HTTPRule{Host: host, Action: censor.HTTPReset})
			case "dns-redirect":
				p.DNS[host] = censor.DNSRedirect
			}
			sc.Blocked[asn][FleetSiteURL(i)] = true
			sc.Mechanism[asn][FleetSiteURL(i)] = mech
		}
		isp.Censor.SetPolicy(p)
		sc.ISPs = append(sc.ISPs, isp)
	}
	w.RelaxProxyTimeouts(EventFleetSlack)
	return sc, nil
}

// LightApproaches is the fleet client's circumvention toolbox: the three
// cheap fixes that cover the fleet scenario's mechanisms (public DNS beats
// the DNS redirect; fronting and the static proxy beat HTTP interception).
// No per-client Tor or Lantern: multi-hop circuit emulation per client is
// what makes O(10k) populations unaffordable, and the fleet benchmark
// measures the crowdsourcing plane, not exotic transports. The set is the
// world's: every fleet client fetches through the same three approaches.
func (w *World) LightApproaches() []*core.Approach {
	w.lightOnce.Do(func() {
		w.light = []*core.Approach{
			core.PublicDNSFix(nil, w.Clock, nil),
			core.NewFrontingFix(nil, w.Clock, FrontHost, FrontIP, w.Frontable),
		}
		if addr, ok := w.StaticProxies["Netherlands"]; ok {
			w.light = append(w.light, core.StaticProxyApproach("proxy-Netherlands", nil, w.Clock, addr))
		}
		for _, a := range w.light {
			a.Transport.Timeout = EventFleetSlack
		}
	})
	return w.light
}

// LightClientConfig is ClientConfig stripped to fleet weight: light
// approaches, reports over the direct path instead of a per-client Tor
// circuit, no multihoming probe loop, and a generous API timeout (one
// server host absorbs the whole population's sync traffic).
func (w *World) LightClientConfig(host *netem.Host, seed int64) core.Config {
	gdb := w.GlobalDBClient(host, host.Dial, EventFleetSlack)
	gdb.ReportDial = gdb.FetchDial // both go out on the host's dial: one func value
	return core.Config{
		Host:         host,
		Clock:        w.Clock,
		LDNS:         w.sharedLDNS(host),
		GDNS:         []string{w.PublicDNSAddr},
		Approaches:   w.LightApproaches(),
		GlobalDB:     gdb,
		CaptchaToken: "human-" + host.Name(),
		Seed:         seed,
	}
}

// sharedLDNS is LDNSAddrs(host), one slice for every singly homed light
// client of an AS: clients only read it.
func (w *World) sharedLDNS(host *netem.Host) []string {
	if host.NumASes() != 1 {
		return w.LDNSAddrs(host)
	}
	asn := host.ASNumber(0)
	w.ldnsMu.Lock()
	defer w.ldnsMu.Unlock()
	addrs, ok := w.ldnsByASN[asn]
	if !ok {
		addrs = w.LDNSAddrs(host)
		if w.ldnsByASN == nil {
			w.ldnsByASN = make(map[int][]string)
		}
		w.ldnsByASN[asn] = addrs
	}
	return addrs
}
