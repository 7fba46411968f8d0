// Package worldgen builds the emulated internets the paper's evaluation
// runs on: a censored client region (Pakistan in the case study), the
// global infrastructure C-Saw depends on (public DNS, the global DB, an
// ASN-echo service, a CDN front), the circumvention ecosystems (Tor relays
// across the exit countries of Figure 1b, a Lantern trust graph, the static
// proxies of Table 2 at their measured latencies), and per-experiment ISP
// censor policies (Table 1's ISP-A/ISP-B, Figure 2's eight ASes).
package worldgen

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"csaw/internal/censor"
	"csaw/internal/core"
	"csaw/internal/dnsx"
	"csaw/internal/globaldb"
	"csaw/internal/globaldb/replica"
	"csaw/internal/httpx"
	"csaw/internal/lantern"
	"csaw/internal/netem"
	"csaw/internal/proxynet"
	"csaw/internal/tor"
	"csaw/internal/vtime"
	"csaw/internal/web"
)

// Addresses of the fixed infrastructure.
const (
	PublicDNSIP  = "8.8.8.8"
	GlobalDBIP   = "40.0.0.1"
	ASNEchoIP    = "40.0.0.2"
	FrontIP      = "40.0.0.3"
	FrontHost    = "front.cdn.example"
	GlobalDBHost = "globaldb.example"
)

// StaticProxyLatencies are Table 2's measured ping latencies (RTT) from the
// censored vantage point.
var StaticProxyLatencies = map[string]time.Duration{
	"UK":          228 * time.Millisecond,
	"Netherlands": 172 * time.Millisecond,
	"Japan":       387 * time.Millisecond,
	"US-1":        329 * time.Millisecond,
	"US-2":        429 * time.Millisecond,
	"US-3":        160 * time.Millisecond,
	"Germany-1":   309 * time.Millisecond,
	"Germany-2":   174 * time.Millisecond,
}

// DirectRTT is the censored-region-to-content RTT; the paper measured
// 186 ms ping latency to YouTube from the same location as Table 2.
const DirectRTT = 186 * time.Millisecond

// TorExitCountries hosts relays in the countries Figure 1b observed exits
// in.
var TorExitCountries = []string{"de", "fr", "nl", "ch", "cz", "ca", "jp", "us"}

// ISP is a censoring provider in the client region.
type ISP struct {
	AS           *netem.AS
	Censor       *censor.Censor
	Resolver     *netem.Host
	ResolverAddr string
}

// Options configures world construction.
type Options struct {
	// Scale is the virtual clock scale (default 300). Ignored when
	// EventDriven is set.
	Scale float64
	// EventDriven selects the discrete-event clock (vtime.NewEventDriven):
	// virtual time jumps between events instead of elapsing as scaled real
	// time, so a run executes at pure compute speed. Population-scale fleet
	// runs use this mode.
	EventDriven bool
	// Seed drives all randomness (default 1).
	Seed int64
	// Bandwidth is per-connection bytes/sec (default 512 KiB/s — a
	// developing-region broadband link).
	Bandwidth float64

	// GlobalDBWALDir, when set, backs the global DB with the WAL+snapshot
	// store in that directory (one subdirectory per node when the world runs
	// replicas): kill the process and a new world over the same directory
	// recovers byte-identical bodies and tags.
	GlobalDBWALDir string
	// GlobalDBSnapshotEvery is a single server's WAL compaction cadence
	// (records between snapshots); 0 selects the globaldb default, negative
	// disables. A replica set never compacts — its WAL is the full history
	// that pull offsets and push reconciliation index into.
	GlobalDBSnapshotEvery int
	// GlobalDBReplicas runs the global DB as a replica set (replica.NewSet)
	// of this many nodes beside the founding primary, on cloud hosts in
	// other regions. Clients built by ClientConfig/LightClientConfig get the
	// full endpoint set and fail over when the censor blackholes the
	// primary; experiments pump the set with ReplicaSet.SyncAll or Tick.
	GlobalDBReplicas int
	// GlobalDBMissedThreshold is how many consecutive missed pulls declare
	// the leader dead (default 3).
	GlobalDBMissedThreshold int
}

// World is a built emulated internet.
type World struct {
	Clock    *vtime.Clock
	Net      *netem.Network
	Registry *dnsx.Registry

	PublicDNSAddr string
	GlobalDB      *globaldb.Server
	// GlobalDBEndpoints is the client-facing endpoint list in preference
	// order: the founding primary first, then each other replica-set node.
	// One entry when the world runs without replicas.
	GlobalDBEndpoints []string
	// ReplicaSet is the served replica set, founding primary first (nil
	// without GlobalDBReplicas); GlobalDB is then its node 0's server.
	ReplicaSet  *replica.Set
	ASNEchoAddr string
	gdbLists    globaldb.ListTable // shared by every GlobalDBClient

	TorDir  *tor.Directory
	Lantern *lantern.Network
	// StaticProxies maps Table-2 proxy names to dial addresses.
	StaticProxies map[string]string
	proxySrvs     map[string]*proxynet.Server

	Front *web.Origin // the CDN/front origin (FrontHost + frontable sites)

	ISPs map[string]*ISP

	ipMu     sync.Mutex
	ipSeq    int
	relaySeq int

	// The approaches every client of the world shares (see core.Approach),
	// built at first use: the full toolbox's local fixes and static proxy,
	// and the fleet's light set.
	sharedOnce sync.Once
	fixes      []*core.Approach
	proxy      *core.Approach // nil without a Netherlands proxy
	lightOnce  sync.Once
	light      []*core.Approach
	// ldnsByASN is the resolver list light clients share per AS (see
	// sharedLDNS).
	ldnsMu    sync.Mutex
	ldnsByASN map[int][]string
}

// New builds the fixed infrastructure of a world.
func New(o Options) (*World, error) {
	if o.Scale <= 0 {
		o.Scale = 300
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Bandwidth <= 0 {
		o.Bandwidth = 512 << 10
	}
	clock := vtime.New(o.Scale)
	if o.EventDriven {
		clock = vtime.NewEventDriven()
	}
	n := netem.New(clock, netem.WithSeed(o.Seed), netem.WithBandwidth(o.Bandwidth))
	w := &World{
		Clock:         clock,
		Net:           n,
		Registry:      dnsx.NewRegistry(),
		ISPs:          make(map[string]*ISP),
		StaticProxies: make(map[string]string),
		proxySrvs:     make(map[string]*proxynet.Server),
	}

	// Latency matrix. "pk" is the censored client region; "us" hosts the
	// content origins; proxies sit at Table 2 distances from pk.
	n.SetRTT("pk", "us", DirectRTT)
	n.SetRTT("pk", "cloud", DirectRTT)
	proxyLocs := map[string]string{}
	for name, rtt := range StaticProxyLatencies {
		loc := "proxy-" + name
		proxyLocs[name] = loc
		n.SetRTT("pk", loc, rtt)
		n.SetRTT(loc, "us", 90*time.Millisecond)
		n.SetRTT(loc, "cloud", 90*time.Millisecond)
	}
	// Tor relay geography is deliberately heterogeneous: real circuits vary
	// widely in PLT, which is what makes racing redundant copies over
	// separate circuits pay off (Figure 6a).
	torPK := map[string]time.Duration{
		"de": 150 * time.Millisecond, "fr": 170 * time.Millisecond,
		"nl": 140 * time.Millisecond, "ch": 210 * time.Millisecond,
		"cz": 270 * time.Millisecond, "ca": 330 * time.Millisecond,
		"jp": 390 * time.Millisecond, "us": 280 * time.Millisecond,
	}
	torUS := map[string]time.Duration{
		"de": 95 * time.Millisecond, "fr": 105 * time.Millisecond,
		"nl": 90 * time.Millisecond, "ch": 115 * time.Millisecond,
		"cz": 150 * time.Millisecond, "ca": 55 * time.Millisecond,
		"jp": 170 * time.Millisecond, "us": 35 * time.Millisecond,
	}
	for i, cc := range TorExitCountries {
		loc := "tor-" + cc
		n.SetRTT("pk", loc, torPK[cc])
		n.SetRTT(loc, "us", torUS[cc])
		for j, cc2 := range TorExitCountries {
			if cc != cc2 {
				d := 40 + 35*absInt(i-j)
				n.SetRTT("tor-"+cc, "tor-"+cc2, time.Duration(d)*time.Millisecond)
			}
		}
	}
	// Lantern volunteers are scattered; a representative detour distance.
	n.SetRTT("pk", "lantern", 220*time.Millisecond)
	n.SetRTT("lantern", "us", 110*time.Millisecond)
	n.SetRTT("lantern", "cloud", 110*time.Millisecond)

	cloud := n.AddAS(900, "CloudProvider", "US")

	// Public DNS.
	pub := n.MustAddHost("public-dns", PublicDNSIP, "us", cloud)
	if _, err := dnsx.NewServer(pub, dnsx.AuthHandler(w.Registry, 300)); err != nil {
		return nil, err
	}
	w.PublicDNSAddr = PublicDNSIP + ":53"

	// Global DB (MongoLab/Heroku stand-in) on the cloud: a bare server, or
	// with GlobalDBReplicas a replica set whose other nodes sit on cloud
	// hosts in other regions — the censor must blackhole several distinct IPs
	// (§5: blocking the DB is countered by moving it).
	gh := n.MustAddHost("globaldb", GlobalDBIP, "cloud", cloud)
	w.GlobalDBEndpoints = []string{GlobalDBIP + ":80"}
	w.Registry.Set(GlobalDBHost, GlobalDBIP)
	if o.GlobalDBReplicas > 0 {
		regions := []string{"us", "proxy-Netherlands", "proxy-Germany-2"}
		hosts := []*netem.Host{gh}
		for i := 0; i < o.GlobalDBReplicas; i++ {
			hosts = append(hosts, n.MustAddHost(fmt.Sprintf("globaldb-replica-%d", i),
				fmt.Sprintf("40.0.1.%d", i+1), regions[i%len(regions)], cloud))
		}
		set, err := replica.NewSet(replica.Config{
			Clock:           clock,
			Hosts:           hosts,
			Dir:             o.GlobalDBWALDir,
			HostHeader:      GlobalDBHost,
			MissedThreshold: o.GlobalDBMissedThreshold,
		})
		if err != nil {
			return nil, err
		}
		w.ReplicaSet, w.GlobalDB, w.GlobalDBEndpoints = set, set.Nodes[0].Server, set.Addrs
	} else {
		srv, err := globaldb.NewDurableServer(clock, nil, globaldb.StoreOptions{
			Dir:           o.GlobalDBWALDir,
			SnapshotEvery: o.GlobalDBSnapshotEvery,
		})
		if err != nil {
			return nil, err
		}
		w.GlobalDB = srv
		if err := w.GlobalDB.Attach(gh, 80); err != nil {
			return nil, err
		}
	}

	// ASN echo service.
	eh := n.MustAddHost("asn-echo", ASNEchoIP, "cloud", cloud)
	if err := web.ServeASNEcho(eh); err != nil {
		return nil, err
	}
	w.ASNEchoAddr = ASNEchoIP + ":80"
	w.Registry.Set("asn.echo", ASNEchoIP)

	// CDN front: hosts FrontHost plus any site added with frontable=true.
	fh := n.MustAddHost("cdn-front", FrontIP, "us", cloud)
	frontSite := web.NewSite(FrontHost)
	frontSite.AddPage("/", "CDN front", 1024)
	front, err := web.NewOrigin(fh, frontSite)
	if err != nil {
		return nil, err
	}
	w.Front = front
	w.Registry.Set(FrontHost, FrontIP)

	// Tor: two relays per exit country, one guard+exit and one middle,
	// plus two unlisted bridges (the §8 fallback for blacklisted entries).
	lookup := w.RegistryLookup()
	w.TorDir = tor.NewDirectory(clock, lookup)
	for _, cc := range TorExitCountries {
		for i := 0; i < 2; i++ {
			h := n.MustAddHost(fmt.Sprintf("tor-%s-%d", cc, i), w.nextIP("20.1"), "tor-"+cc, cloud)
			if _, err := w.TorDir.AddRelay(h, 10+float64(i)*5, i == 0, i == 0, false); err != nil {
				return nil, err
			}
		}
	}
	for i, cc := range []string{"nl", "de"} {
		h := n.MustAddHost(fmt.Sprintf("tor-bridge-%d", i), w.nextIP("20.4"), "tor-"+cc, cloud)
		if _, err := w.TorDir.AddRelay(h, 10, true, false, true); err != nil {
			return nil, err
		}
	}

	// Lantern: a small trust community running proxies outside the region.
	w.Lantern = lantern.New(lookup)
	for i := 0; i < 3; i++ {
		owner := fmt.Sprintf("volunteer-%d", i)
		h := n.MustAddHost("lantern-"+owner, w.nextIP("20.2"), "lantern", cloud)
		if _, err := w.Lantern.RunProxy(owner, h); err != nil {
			return nil, err
		}
		w.Lantern.Befriend("user", owner)
	}

	// Static proxies at Table-2 latencies.
	for name := range StaticProxyLatencies {
		h := n.MustAddHost("proxy-"+name, w.nextIP("20.3"), proxyLocs[name], cloud)
		srv, err := proxynet.Serve(h, proxynet.Port, lookup)
		if err != nil {
			return nil, err
		}
		w.StaticProxies[name] = srv.Addr()
		w.proxySrvs[name] = srv
	}

	return w, nil
}

// Close closes every listener the world's servers opened — HTTP, DNS,
// proxy, Tor relay and TLS origin alike: nothing new is served, and
// exchanges already accepted run to their end. A world needs no Close to
// be collected: its servers keep no goroutine waiting on an idle listener
// (netem.Listener.Serve), so once nothing references the world, and its
// clients are closed, it is garbage.
func (w *World) Close() { w.Net.CloseListeners() }

// RelaxProxyTimeouts raises every static proxy's idle timeout. Population-
// scale scenarios call it before driving traffic: at high clock scales the
// default 30 virtual seconds is milliseconds of real slack, and a scheduler
// stall would sever healthy tunnels mid-fetch.
func (w *World) RelaxProxyTimeouts(d time.Duration) {
	for _, srv := range w.proxySrvs {
		srv.SetTimeout(d)
	}
}

// nextIP allocates addresses under a /16-style prefix. Deployment-scale
// experiments create client hosts from many goroutines.
func (w *World) nextIP(prefix string) string {
	w.ipMu.Lock()
	defer w.ipMu.Unlock()
	w.ipSeq++
	return fmt.Sprintf("%s.%d.%d", prefix, w.ipSeq/200, 1+w.ipSeq%200)
}

// RegistryLookup resolves via the honest registry — the view of resolvers
// and exits outside the censored region.
func (w *World) RegistryLookup() proxynet.Lookup {
	return func(_ context.Context, host string) (string, error) {
		if ips := w.Registry.Lookup(host); len(ips) > 0 {
			return ips[0], nil
		}
		return "", fmt.Errorf("worldgen: unknown host %q", host)
	}
}

// AddISP creates a censoring provider in the client region: an AS with the
// censor attached and an in-ISP resolver enforcing the DNS policy.
func (w *World) AddISP(asn int, name string, policy *censor.Policy) (*ISP, error) {
	as := w.Net.AddAS(asn, name, "PK")
	cen := censor.New(policy)
	cen.Attach(as)
	resolver := w.Net.MustAddHost(
		fmt.Sprintf("resolver-%s", name), w.nextIP("10.53"), "pk", as)
	if _, err := dnsx.NewServer(resolver, cen.ResolverHandler(w.Registry, 300)); err != nil {
		return nil, err
	}
	isp := &ISP{AS: as, Censor: cen, Resolver: resolver, ResolverAddr: resolver.IP() + ":53"}
	w.ISPs[name] = isp
	return isp, nil
}

// InjectLinkFault wraps an ISP's egress with a netem.FaultInjector chained
// in front of its censor, targeted at the given destination IPs (none = all
// egress traffic). The returned injector flaps the link at runtime —
// experiments use it to make the path to the global DB (or anything else)
// come and go.
func (w *World) InjectLinkFault(isp *ISP, ips ...string) *netem.FaultInjector {
	fi := netem.NewFaultInjector(isp.AS.Interceptor())
	if len(ips) > 0 {
		fi.Target(ips...)
	}
	isp.AS.SetInterceptor(fi)
	return fi
}

// AddOrigin creates an origin host in "us" serving the given sites and
// registers their DNS. frontable also mounts the sites on the CDN front so
// domain fronting can reach them.
func (w *World) AddOrigin(name string, frontable bool, sites ...*web.Site) (*web.Origin, error) {
	h := w.Net.MustAddHost(name, w.nextIP("93.184"), "us", w.Net.AS(900))
	origin, err := web.NewOrigin(h, sites...)
	if err != nil {
		return nil, err
	}
	for _, s := range sites {
		w.Registry.Set(s.Host, h.IP())
		if frontable {
			w.Front.AddSite(s)
		}
	}
	return origin, nil
}

// AddBlockPageHost runs an in-ISP block-page server and returns its host.
// The policy's BlockPageURL should point at it. Like real filter portals,
// it answers *every* request (any Host, any path) with the block page — a
// DNS-redirected request for an arbitrary URL must still land on the
// notice.
func (w *World) AddBlockPageHost(isp *ISP, hostname string) (*netem.Host, error) {
	h := w.Net.MustAddHost(hostname, w.nextIP("10.9"), "pk", isp.AS)
	w.Registry.Set(hostname, h.IP())
	l, err := h.Listen(80)
	if err != nil {
		return nil, err
	}
	httpx.Serve(l, httpx.HandlerFunc(func(*httpx.Request, netem.Flow) *httpx.Response {
		resp := httpx.NewResponse(200, []byte(censor.DefaultBlockPageHTML))
		resp.Header.Set("Content-Type", "text/html")
		return resp
	}))
	return h, nil
}

// NewClientHost adds a client machine in the censored region behind the
// given ISPs (more than one = multihomed).
func (w *World) NewClientHost(name string, isps ...*ISP) *netem.Host {
	ases := make([]*netem.AS, len(isps))
	for i, isp := range isps {
		ases[i] = isp.AS
	}
	return w.Net.MustAddHost(name, w.nextIP("10.0"), "pk", ases...)
}

// Frontable reports whether the CDN front serves a host.
func (w *World) Frontable(host string) bool { return w.Front.Serves(host) }

// Approaches assembles the full circumvention toolbox for a client host:
// all four local fixes plus Tor, Lantern, and one static proxy. The fixes
// and the proxy are the world's, shared by every client; the Tor and
// Lantern clients are the host's own.
func (w *World) Approaches(host *netem.Host, torSeed int64) []*core.Approach {
	w.sharedOnce.Do(func() {
		w.fixes = []*core.Approach{
			core.PublicDNSFix(nil, w.Clock, nil),
			core.HTTPSFix(nil, w.Clock, nil, nil),
			core.NewFrontingFix(nil, w.Clock, FrontHost, FrontIP, w.Frontable),
			core.IPAsHostnameFix(nil, w.Clock, nil),
		}
		if addr, ok := w.StaticProxies["Netherlands"]; ok {
			w.proxy = core.StaticProxyApproach("proxy-Netherlands", nil, w.Clock, addr)
		}
	})
	tc := tor.NewClient(host, w.TorDir, torSeed)
	tcBridge := tor.NewClient(host, w.TorDir, torSeed+101)
	lc := lantern.NewClient(host, w.Lantern, "user")
	apps := append(w.fixes[:len(w.fixes):len(w.fixes)],
		core.TorApproach(tc, w.Clock),
		core.TorBridgeApproach(tcBridge, w.Clock),
		core.LanternApproach(lc, w.Clock),
	)
	if w.proxy != nil {
		apps = append(apps, w.proxy)
	}
	return apps
}

// Resolvers builds the LDNS (first ISP's resolver) and GDNS stub clients
// for a client host.
func (w *World) Resolvers(host *netem.Host) (ldns, gdns *dnsx.Client) {
	ldnsAddrs := w.LDNSAddrs(host)
	ldns = &dnsx.Client{Dial: host.Dial, Clock: w.Clock, Servers: ldnsAddrs}
	gdns = &dnsx.Client{Dial: host.Dial, Clock: w.Clock, Servers: []string{w.PublicDNSAddr}}
	return ldns, gdns
}

// LDNSAddrs returns the resolver addresses of the host's ISPs.
func (w *World) LDNSAddrs(host *netem.Host) []string {
	var addrs []string
	for _, as := range host.ASes() {
		for _, isp := range w.ISPs {
			if isp.AS == as {
				addrs = append(addrs, isp.ResolverAddr)
			}
		}
	}
	// w.ISPs is a map: without a sort, a multihomed host's resolver
	// preference order would vary run to run.
	sort.Strings(addrs)
	return addrs
}

// GlobalDBClient builds a host's client of the world's global DB: list
// downloads and registration dial from the host, reports through reportDial
// (the host's own dialer, or a Tor client's), each API call bounded by
// timeout (0 = the globaldb default). Every client the world builds shares
// one table of decoded lists (globaldb.ListTable), so an AS's list is held
// once per state rather than once per client.
func (w *World) GlobalDBClient(host *netem.Host, reportDial netem.DialFunc, timeout time.Duration) *globaldb.Client {
	return &globaldb.Client{
		Endpoints:  w.GlobalDBEndpoints,
		Host:       GlobalDBHost,
		Clock:      w.Clock,
		ReportDial: reportDial,
		FetchDial:  host.Dial,
		Timeout:    timeout,
		Lists:      &w.gdbLists,
	}
}

// ClientConfig assembles a core.Config with the world's full toolbox and
// global DB wiring. Callers adjust knobs (P, Serial, RedundantDelay, ...)
// before core.New.
func (w *World) ClientConfig(host *netem.Host, seed int64) core.Config {
	tc := tor.NewClient(host, w.TorDir, seed+7)
	// Censorship reports travel over Tor (§5). The timeout is generous:
	// deployment-scale experiments sync hundreds of clients against one
	// server host.
	gdb := w.GlobalDBClient(host, tc.Dial, 4*time.Minute)
	return core.Config{
		Host:         host,
		Clock:        w.Clock,
		LDNS:         w.LDNSAddrs(host),
		GDNS:         []string{w.PublicDNSAddr},
		Approaches:   w.Approaches(host, seed),
		GlobalDB:     gdb,
		CaptchaToken: "human-" + host.Name(),
		ASNProbeAddr: w.ASNEchoAddr,
		ASNProbeHost: "asn.echo",
		Seed:         seed,
	}
}

// absInt returns |x|.
func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
