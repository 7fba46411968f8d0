package experiments

import (
	"context"
	"fmt"
	"net"
	"sort"
	"time"

	"csaw/internal/blockpage"
	"csaw/internal/censor"
	"csaw/internal/core"
	"csaw/internal/detect"
	"csaw/internal/lantern"
	"csaw/internal/localdb"
	"csaw/internal/metrics"
	"csaw/internal/netem"
	"csaw/internal/proxynet"
	"csaw/internal/tor"
	"csaw/internal/web"
	"csaw/internal/worldgen"
)

// detector builds a Figure-4 detector for a client host.
func (r *rig) detector(host *netem.Host) *detect.Detector {
	ldns, gdns := r.w.Resolvers(host)
	return &detect.Detector{
		Clock:      r.w.Clock,
		Dial:       host.Dial,
		LDNS:       ldns,
		GDNS:       gdns,
		Classifier: blockpage.NewClassifier(),
	}
}

// Table1 probes YouTube and the other blocked categories through ISP-A and
// ISP-B and reports the observed mechanism matrix of Table 1.
var Table1 = experiment("table1", scenario{scale: 300, sites: caseStudy}, func(r *rig) *Result {
	// The social/political sites exist in DNS but as part of the main
	// origin they are not declared; register them so probes resolve.
	social := web.NewSite("social.example.org")
	social.AddPage("/", "Social", 9<<10, 20<<10)
	_, err := r.w.AddOrigin("origin-social", true, social)
	r.ok(err, "social origin")

	res := &Result{Title: "Filtering mechanisms used by ISP-A and ISP-B"}
	tbl := metrics.Table{Headers: []string{"Website/Category", "ISP-A", "ISP-B"}}

	probe := func(isp *worldgen.ISP, url string, scheme detect.Scheme, clientIP int) string {
		host := r.host(fmt.Sprintf("probe-%s-%d", isp.AS.Name, clientIP), isp)
		out := r.detector(host).Measure(context.Background(), url, scheme)
		if !out.Blocked() {
			return "no blocking"
		}
		return out.StageSummary()
	}

	rows := []struct {
		label string
		url   string
	}{
		{"YouTube", worldgen.YouTubeHost + "/"},
		{"YouTube (HTTPS)", worldgen.YouTubeHost + "/"},
		{"Rest (porn)", worldgen.PornHost + "/"},
		{"Rest (social)", "social.example.org/"},
	}
	for i, row := range rows {
		scheme := detect.HTTP
		if row.label == "YouTube (HTTPS)" {
			scheme = detect.HTTPS
		}
		a := probe(r.isps[0], row.url, scheme, i)
		b := probe(r.isps[1], row.url, scheme, i+100)
		tbl.AddRow(row.label, a, b)
		res.Metric("row."+row.label+".probed", 1)
	}
	res.Text = tbl.String()
	res.Note("paper: ISP-A = HTTP block-page redirects; ISP-B = DNS redirect + dropped HTTP/HTTPS for YouTube, iframe block pages for the rest")
	return res
})

// sortedProxies returns the Table-2 static proxy names in report order.
func sortedProxies(w *worldgen.World) []string {
	names := make([]string, 0, len(w.StaticProxies))
	for name := range w.StaticProxies {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Table2 measures ping latency from the censored region to each static
// proxy and to the content origin, reproducing Table 2.
var Table2 = experiment("table2", scenario{scale: 300, sites: standardSites, isps: []ispRow{
	{17557, "ISP-A", worldgen.ISPAPolicy("", "nothing.example")},
}}, func(r *rig) *Result {
	w, client := r.w, r.host("pinger")
	res := &Result{Title: "Ping latencies to static proxies (paper Table 2)"}
	tbl := metrics.Table{Headers: []string{"Static proxy", "avg ping (ms)", "paper (ms)"}}
	paper := map[string]float64{
		"UK": 228, "Netherlands": 172, "Japan": 387,
		"US-1": 329, "US-2": 429, "US-3": 160,
		"Germany-1": 309, "Germany-2": 174,
	}
	const pings = 5
	for _, name := range sortedProxies(w) {
		ip, _, err := netem.SplitAddr(w.StaticProxies[name])
		r.ok(err, "proxy %s address", name)
		var sum time.Duration
		for i := 0; i < pings; i++ {
			rtt, err := w.Net.Ping(client, ip)
			r.ok(err, "ping %s", name)
			sum += rtt
		}
		avg := sum / pings
		tbl.AddRow(name, fmt.Sprintf("%.0f", avg.Seconds()*1000), fmt.Sprintf("%.0f", paper[name]))
		res.Metric("ping_ms."+name, avg.Seconds()*1000)
	}
	// Direct ping to the content origin ("YouTube" in the paper: 186 ms).
	rtt, err := w.Net.Ping(client, w.Registry.Lookup(worldgen.YouTubeHost)[0])
	r.ok(err, "ping the origin")
	tbl.AddRow("(direct to YouTube)", fmt.Sprintf("%.0f", rtt.Seconds()*1000), "186")
	res.Metric("ping_ms.direct", rtt.Seconds()*1000)
	res.Text = tbl.String()
	return res
})

// Figure1a compares HTTPS/domain-fronting against the Table-2 static
// proxies for fetching the ~360 KB YouTube home page, 200 runs per series.
var Figure1a = experiment("figure1a", scenario{scale: 300, sites: caseStudy}, func(r *rig) *Result {
	w, runs := r.w, r.runs(200)
	client := r.host("fig1a-client", r.isps[1])

	// HTTPS/DF: fronted TLS straight to the CDN front.
	list := []series{{name: "HTTPS/DF", key: "HTTPS-DF", fail: failFirst, raw: &web.Transport{
		Label:  "HTTPS/DF",
		Dialer: client.Dial,
		Lookup: func(context.Context, string) (string, error) { return worldgen.FrontIP, nil },
		TLS:    true,
		SNI:    func(string) string { return worldgen.FrontHost },
		Clock:  w.Clock,
	}}}
	for _, name := range sortedProxies(w) {
		list = append(list, series{name: "proxy-" + name, fail: failFirst, raw: &web.Transport{
			Label:  name,
			Dialer: proxynet.Via(client.Dial, w.StaticProxies[name]),
			Clock:  w.Clock,
		}})
	}
	curves := r.measure(worldgen.YouTubeHost, runs, list)
	res := &Result{Title: fmt.Sprintf("PLT CDFs, HTTPS/DF vs static proxies (%d runs)", runs)}
	cdfs(res, "PLT by approach", false, curves)
	worse := 0
	for _, c := range curves[1:] {
		if c.dist.Median() > curves[0].dist.Median() {
			worse++
		}
	}
	res.Metric("proxies_slower_than_df", float64(worse))
	res.Note("paper shape: the direct HTTPS/DF path beats static proxies in US/Europe/Asia")
	return res
})

// Figure1b compares direct HTTPS with Tor grouped by exit-relay country for
// the YouTube home page (ISP-A blocks only HTTP, so HTTPS is the local fix).
var Figure1b = experiment("figure1b", scenario{scale: 300, sites: caseStudy}, func(r *rig) *Result {
	w, runs := r.w, r.runs(200)
	client := r.host("fig1b-client")

	_, gdns := w.Resolvers(client)
	curves := r.measure(worldgen.YouTubeHost, runs, []series{{name: "HTTPS", fail: failFirst, raw: &web.Transport{
		Label:  "HTTPS",
		Dialer: client.Dial,
		Lookup: core.GDNSLookup(gdns),
		TLS:    true,
		Clock:  w.Clock,
	}}})
	https := curves[0].dist

	// Tor, isolating measurements per circuit and grouping by exit country
	// (§2.3: "we collected and isolated measurement results for every
	// unique circuit"). A circuit that fails its load is not a sample.
	tc := tor.NewClient(client, w.TorDir, r.seed+3)
	byExit := map[string]*metrics.Distribution{}
	for i := 0; i < runs; i++ {
		circ, err := tc.NewCircuit()
		if !r.ok(err, "tor circuit %d", i) {
			return nil
		}
		plt, err := r.load(&web.Transport{
			Label: "tor",
			Dialer: func(ctx context.Context, addr string) (net.Conn, error) {
				return tc.DialVia(ctx, circ, addr)
			},
			Clock: w.Clock,
		}, worldgen.YouTubeHost)
		if err != nil {
			continue
		}
		cc := circ.Exit.Country()
		if byExit[cc] == nil {
			byExit[cc] = metrics.NewDistribution()
		}
		byExit[cc].AddDuration(plt)
	}
	countries := make([]string, 0, len(byExit))
	for cc := range byExit {
		countries = append(countries, cc)
	}
	sort.Strings(countries)
	slower := 0
	for _, cc := range countries {
		curves = append(curves, curve{"Tor-exit-" + cc, "tor-" + cc, byExit[cc]})
		if byExit[cc].Median() > https.Median() {
			slower++
		}
	}
	res := &Result{Title: fmt.Sprintf("PLT CDFs, HTTPS vs Tor by exit country (%d runs)", runs)}
	cdfs(res, "PLT by approach/exit", false, curves)
	res.Metric("tor_exits_slower_than_https", float64(slower))
	res.Metric("tor_exit_countries", float64(len(byExit)))
	res.Note("paper shape: HTTPS beats Tor for nearly every exit location")
	return res
})

// Figure1c compares Lantern with the IP-as-hostname fix for a ~50 KB porn
// page behind a keyword filter.
var Figure1c = experiment("figure1c", scenario{scale: 300, sites: standardSites, isps: []ispRow{
	{17557, "ISP-K", &censor.Policy{
		Name:     "keyword-filter",
		Keywords: []censor.KeywordRule{{Keyword: "hot.example", Action: censor.HTTPReset}},
	}},
}}, func(r *rig) *Result {
	w, runs := r.w, r.runs(200)
	client := r.host("fig1c-client")

	pornIP := w.Registry.Lookup(worldgen.PornHost)[0]
	lc := lantern.NewClient(client, w.Lantern, "user")
	curves := r.measure(worldgen.PornHost, runs, []series{
		{name: "ip-as-hostname", fail: failFirst, raw: &web.Transport{
			Label:              "ip-as-hostname",
			Dialer:             client.Dial,
			Lookup:             func(context.Context, string) (string, error) { return pornIP, nil },
			HostHeaderFromAddr: true,
			Clock:              w.Clock,
		}},
		{name: "lantern", fail: failFirst, raw: &web.Transport{Label: "lantern", Dialer: lc.Dial, Clock: w.Clock}},
	})
	res := &Result{Title: fmt.Sprintf("PLT CDFs, Lantern vs IP-as-hostname (%d runs)", runs)}
	cdfs(res, "PLT by approach", false, curves)
	res.Metric("lantern_over_ip_ratio", curves[1].dist.Median()/curves[0].dist.Median())
	res.Note("paper shape: Lantern ≈1.5x the PLT of IP-as-hostname")
	return res
})

// Figure2 probes a blocked-site list through the eight surveyed ASes and
// reports the per-AS mechanism mix.
var Figure2 = experiment("figure2", scenario{scale: 300}, func(r *rig) *Result {
	// The probe list: blocked sites served from one origin (Options.Runs
	// scales the list for quick benchmark passes).
	var blocked []string
	var sites []*web.Site
	for i := 0; i < r.runs(20); i++ {
		host := fmt.Sprintf("banned%02d.example.org", i)
		s := web.NewSite(host)
		s.AddPage("/", fmt.Sprintf("Banned site %d", i), 6<<10, 10<<10)
		sites = append(sites, s)
		blocked = append(blocked, host)
	}
	_, err := r.w.AddOrigin("origin-banned", false, sites...)
	r.ok(err, "origin")

	res := &Result{Title: "Fraction of blocking types across ISPs (paper Figure 2)"}
	cats := []string{"NoDNS", "DNSRedir", "NoHTTPResp", "RST", "BlockPage"}
	tbl := metrics.Table{Headers: append([]string{"AS (country)"}, cats...)}

	for _, spec := range worldgen.Figure2ASes() {
		isp, _, err := r.w.BuildFigure2ISP(spec, blocked, "")
		if !r.ok(err, "AS%d", spec.ASN) {
			return nil
		}
		det := r.detector(r.host(fmt.Sprintf("probe-as%d", spec.ASN), isp))
		det.ConnectTimeout = 6 * time.Second // probes, not user traffic
		counts := map[string]int{}
		for _, host := range blocked {
			out := det.Measure(context.Background(), host+"/", detect.HTTP)
			counts[classifyFigure2(out)]++
		}
		row := []string{fmt.Sprintf("AS%d (%s)", spec.ASN, spec.Country)}
		for _, cat := range cats {
			frac := float64(counts[cat]) / float64(len(blocked))
			row = append(row, fmt.Sprintf("%.2f", frac))
			res.Metric(fmt.Sprintf("frac.as%d.%s", spec.ASN, cat), frac)
		}
		tbl.AddRow(row...)
	}
	res.Text = tbl.String()
	res.Note("mechanism mixes per AS follow the ONI-derived distribution (see worldgen.Figure2ASes)")
	return res
})

// classifyFigure2 maps a detection outcome to Figure 2's categories. DNS
// evidence takes precedence: a block page reached through a DNS redirect
// counts as "DNS Redir", matching the figure's attribution.
func classifyFigure2(out detect.Outcome) string {
	for _, s := range out.Stages {
		if s.Type == localdb.BlockDNS {
			if s.Detail == "redirect" {
				return "DNSRedir"
			}
			return "NoDNS"
		}
		if s.Type == localdb.BlockTCPTimeout {
			return "NoDNS" // unresolvable/unreachable bucket in the figure
		}
	}
	for _, s := range out.Stages {
		if s.Type == localdb.BlockHTTP || s.Type == localdb.BlockSNI {
			switch s.Detail {
			case "blockpage", "blockpage-redirect":
				return "BlockPage"
			case "rst":
				return "RST"
			default:
				return "NoHTTPResp"
			}
		}
	}
	if out.Blocked() {
		return "NoHTTPResp"
	}
	return "none"
}
