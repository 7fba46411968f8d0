package experiments

import (
	"context"
	"fmt"
	"net"
	"sort"
	"time"

	"csaw/internal/blockpage"
	"csaw/internal/censor"
	"csaw/internal/detect"
	"csaw/internal/dnsx"
	"csaw/internal/lantern"
	"csaw/internal/localdb"
	"csaw/internal/metrics"
	"csaw/internal/netem"
	"csaw/internal/proxynet"
	"csaw/internal/tor"
	"csaw/internal/web"
	"csaw/internal/worldgen"
)

// newDetector builds a Figure-4 detector for a client host in a world.
func newDetector(w *worldgen.World, host *netem.Host) *detect.Detector {
	ldns, gdns := w.Resolvers(host)
	return &detect.Detector{
		Clock:      w.Clock,
		Dial:       host.Dial,
		LDNS:       ldns,
		GDNS:       gdns,
		Classifier: blockpage.NewClassifier(),
	}
}

// Table1 probes YouTube and the other blocked categories through ISP-A and
// ISP-B and reports the observed mechanism matrix of Table 1.
func Table1(o Options) (*Result, error) {
	w, err := o.world(300)
	if err != nil {
		return nil, err
	}
	ispA, ispB, err := w.CaseStudy()
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "table1", Title: "Filtering mechanisms used by ISP-A and ISP-B"}
	tbl := metrics.Table{Headers: []string{"Website/Category", "ISP-A", "ISP-B"}}

	probe := func(isp *worldgen.ISP, url string, scheme detect.Scheme, clientIP int) string {
		host := w.NewClientHost(fmt.Sprintf("probe-%s-%d", isp.AS.Name, clientIP), isp)
		det := newDetector(w, host)
		out := det.Measure(context.Background(), url, scheme)
		if !out.Blocked() {
			return "no blocking"
		}
		return out.StageSummary()
	}

	seq := 0
	rows := []struct {
		label string
		url   string
	}{
		{"YouTube", worldgen.YouTubeHost + "/"},
		{"YouTube (HTTPS)", worldgen.YouTubeHost + "/"},
		{"Rest (porn)", worldgen.PornHost + "/"},
		{"Rest (social)", "social.example.org/"},
	}
	// The social/political sites exist in DNS but as part of the main
	// origin they are not declared; register them so probes resolve.
	social := web.NewSite("social.example.org")
	social.AddPage("/", "Social", 9<<10, 20<<10)
	if _, err := w.AddOrigin("origin-social", true, social); err != nil {
		return nil, err
	}

	for i, row := range rows {
		scheme := detect.HTTP
		if row.label == "YouTube (HTTPS)" {
			scheme = detect.HTTPS
		}
		seq = i
		a := probe(ispA, row.url, scheme, seq)
		b := probe(ispB, row.url, scheme, seq+100)
		tbl.AddRow(row.label, a, b)
		res.Metric("row."+row.label+".probed", 1)
	}
	res.Text = tbl.String()
	res.Note("paper: ISP-A = HTTP block-page redirects; ISP-B = DNS redirect + dropped HTTP/HTTPS for YouTube, iframe block pages for the rest")
	return res, nil
}

// Table2 measures ping latency from the censored region to each static
// proxy and to the content origin, reproducing Table 2.
func Table2(o Options) (*Result, error) {
	w, err := o.world(300)
	if err != nil {
		return nil, err
	}
	if err := w.StandardSites(); err != nil {
		return nil, err
	}
	isp, err := w.AddISP(17557, "ISP-A", nil)
	if err != nil {
		return nil, err
	}
	isp.Censor.SetPolicy(worldgen.ISPAPolicy("", "nothing.example"))
	client := w.NewClientHost("pinger", isp)

	res := &Result{ID: "table2", Title: "Ping latencies to static proxies (paper Table 2)"}
	tbl := metrics.Table{Headers: []string{"Static proxy", "avg ping (ms)", "paper (ms)"}}
	paper := map[string]float64{
		"UK": 228, "Netherlands": 172, "Japan": 387,
		"US-1": 329, "US-2": 429, "US-3": 160,
		"Germany-1": 309, "Germany-2": 174,
	}
	names := make([]string, 0, len(w.StaticProxies))
	for name := range w.StaticProxies {
		names = append(names, name)
	}
	sort.Strings(names)
	const pings = 5
	for _, name := range names {
		ip, _, err := netem.SplitAddr(w.StaticProxies[name])
		if err != nil {
			return nil, fmt.Errorf("table2: proxy %s address: %w", name, err)
		}
		var sum time.Duration
		for i := 0; i < pings; i++ {
			rtt, err := w.Net.Ping(client, ip)
			if err != nil {
				return nil, err
			}
			sum += rtt
		}
		avg := sum / pings
		tbl.AddRow(name, fmt.Sprintf("%.0f", avg.Seconds()*1000), fmt.Sprintf("%.0f", paper[name]))
		res.Metric("ping_ms."+name, avg.Seconds()*1000)
	}
	// Direct ping to the content origin ("YouTube" in the paper: 186 ms).
	originIP := w.Registry.Lookup(worldgen.YouTubeHost)[0]
	rtt, err := w.Net.Ping(client, originIP)
	if err != nil {
		return nil, err
	}
	tbl.AddRow("(direct to YouTube)", fmt.Sprintf("%.0f", rtt.Seconds()*1000), "186")
	res.Metric("ping_ms.direct", rtt.Seconds()*1000)
	res.Text = tbl.String()
	return res, nil
}

// Figure1a compares HTTPS/domain-fronting against the Table-2 static
// proxies for fetching the ~360 KB YouTube home page, 200 runs per series.
func Figure1a(o Options) (*Result, error) {
	w, err := o.world(300)
	if err != nil {
		return nil, err
	}
	_, ispB, err := w.CaseStudy()
	if err != nil {
		return nil, err
	}
	runs := o.runs(200)
	client := w.NewClientHost("fig1a-client", ispB)
	res := &Result{ID: "figure1a", Title: fmt.Sprintf("PLT CDFs, HTTPS/DF vs static proxies (%d runs)", runs)}

	series := []metrics.Series{}
	// HTTPS/DF: fronted TLS straight to the CDN front.
	dfTransport := &web.Transport{
		Label:  "HTTPS/DF",
		Dialer: client.Dial,
		Lookup: func(context.Context, string) (string, error) { return worldgen.FrontIP, nil },
		TLS:    true,
		SNI:    func(string) string { return worldgen.FrontHost },
		Clock:  w.Clock,
	}
	dfDist, err := loadSeries(w, dfTransport, worldgen.YouTubeHost, "/", runs)
	if err != nil {
		return nil, err
	}
	series = append(series, metrics.Series{Name: "HTTPS/DF", Dist: dfDist})
	res.Metric("median_plt_s.HTTPS-DF", dfDist.Median())

	names := make([]string, 0, len(w.StaticProxies))
	for name := range w.StaticProxies {
		names = append(names, name)
	}
	sort.Strings(names)
	worse := 0
	for _, name := range names {
		tr := &web.Transport{
			Label:  name,
			Dialer: proxynet.Via(client.Dial, w.StaticProxies[name]),
			Clock:  w.Clock,
		}
		dist, err := loadSeries(w, tr, worldgen.YouTubeHost, "/", runs)
		if err != nil {
			return nil, err
		}
		series = append(series, metrics.Series{Name: "proxy-" + name, Dist: dist})
		res.Metric("median_plt_s.proxy-"+name, dist.Median())
		if dist.Median() > dfDist.Median() {
			worse++
		}
	}
	res.Text = metrics.SummarizeCDFs("PLT by approach", series)
	res.Metric("proxies_slower_than_df", float64(worse))
	res.Note("paper shape: the direct HTTPS/DF path beats static proxies in US/Europe/Asia")
	return res, nil
}

// loadSeries performs runs browser page loads over a transport and returns
// the PLT distribution. Failed loads are recorded at the transport timeout.
func loadSeries(w *worldgen.World, tr *web.Transport, host, path string, runs int) (*metrics.Distribution, error) {
	b := web.NewBrowser(tr)
	dist := metrics.NewDistribution()
	for i := 0; i < runs; i++ {
		pr := b.Load(context.Background(), host, path)
		dist.AddDuration(pr.PLT)
		if pr.Err != nil && i == 0 {
			return nil, fmt.Errorf("series %s: first load failed: %w", tr.Label, pr.Err)
		}
	}
	return dist, nil
}

// Figure1b compares direct HTTPS with Tor grouped by exit-relay country for
// the YouTube home page (ISP-A blocks only HTTP, so HTTPS is the local fix).
func Figure1b(o Options) (*Result, error) {
	w, err := o.world(300)
	if err != nil {
		return nil, err
	}
	ispA, _, err := w.CaseStudy()
	if err != nil {
		return nil, err
	}
	runs := o.runs(200)
	client := w.NewClientHost("fig1b-client", ispA)
	res := &Result{ID: "figure1b", Title: fmt.Sprintf("PLT CDFs, HTTPS vs Tor by exit country (%d runs)", runs)}

	ldns, gdns := w.Resolvers(client)
	_ = ldns
	httpsTr := &web.Transport{
		Label:  "HTTPS",
		Dialer: client.Dial,
		Lookup: func(ctx context.Context, h string) (string, error) {
			r := gdns.Lookup(ctx, h)
			if !r.OK() {
				return "", r.Err
			}
			return r.IPs[0], nil
		},
		TLS:   true,
		Clock: w.Clock,
	}
	httpsDist, err := loadSeries(w, httpsTr, worldgen.YouTubeHost, "/", runs)
	if err != nil {
		return nil, err
	}
	series := []metrics.Series{{Name: "HTTPS", Dist: httpsDist}}
	res.Metric("median_plt_s.HTTPS", httpsDist.Median())

	// Tor, isolating measurements per circuit and grouping by exit country
	// (§2.3: "we collected and isolated measurement results for every
	// unique circuit").
	tc := tor.NewClient(client, w.TorDir, o.seed()+3)
	byExit := map[string]*metrics.Distribution{}
	slower := 0
	for i := 0; i < runs; i++ {
		circ, err := tc.NewCircuit()
		if err != nil {
			return nil, err
		}
		tr := &web.Transport{
			Label: "tor",
			Dialer: func(ctx context.Context, addr string) (net.Conn, error) {
				return tc.DialVia(ctx, circ, addr)
			},
			Clock: w.Clock,
		}
		b := web.NewBrowser(tr)
		pr := b.Load(context.Background(), worldgen.YouTubeHost, "/")
		if pr.Err != nil {
			continue
		}
		cc := circ.Exit.Country()
		if byExit[cc] == nil {
			byExit[cc] = metrics.NewDistribution()
		}
		byExit[cc].AddDuration(pr.PLT)
	}
	countries := make([]string, 0, len(byExit))
	for cc := range byExit {
		countries = append(countries, cc)
	}
	sort.Strings(countries)
	for _, cc := range countries {
		series = append(series, metrics.Series{Name: "Tor-exit-" + cc, Dist: byExit[cc]})
		res.Metric("median_plt_s.tor-"+cc, byExit[cc].Median())
		if byExit[cc].Median() > httpsDist.Median() {
			slower++
		}
	}
	res.Metric("tor_exits_slower_than_https", float64(slower))
	res.Metric("tor_exit_countries", float64(len(byExit)))
	res.Text = metrics.SummarizeCDFs("PLT by approach/exit", series)
	res.Note("paper shape: HTTPS beats Tor for nearly every exit location")
	return res, nil
}

// Figure1c compares Lantern with the IP-as-hostname fix for a ~50 KB porn
// page behind a keyword filter.
func Figure1c(o Options) (*Result, error) {
	w, err := o.world(300)
	if err != nil {
		return nil, err
	}
	if err := w.StandardSites(); err != nil {
		return nil, err
	}
	isp, err := w.AddISP(17557, "ISP-K", nil)
	if err != nil {
		return nil, err
	}
	isp.Censor.SetPolicy(&censor.Policy{
		Name:     "keyword-filter",
		Keywords: []censor.KeywordRule{{Keyword: "hot.example", Action: censor.HTTPReset}},
	})
	runs := o.runs(200)
	client := w.NewClientHost("fig1c-client", isp)
	res := &Result{ID: "figure1c", Title: fmt.Sprintf("PLT CDFs, Lantern vs IP-as-hostname (%d runs)", runs)}

	pornIP := w.Registry.Lookup(worldgen.PornHost)[0]
	ipTr := &web.Transport{
		Label:              "ip-as-hostname",
		Dialer:             client.Dial,
		Lookup:             func(context.Context, string) (string, error) { return pornIP, nil },
		HostHeaderFromAddr: true,
		Clock:              w.Clock,
	}
	ipDist, err := loadSeries(w, ipTr, worldgen.PornHost, "/", runs)
	if err != nil {
		return nil, err
	}

	lc := lantern.NewClient(client, w.Lantern, "user")
	lanternTr := &web.Transport{Label: "lantern", Dialer: lc.Dial, Clock: w.Clock}
	lanternDist, err := loadSeries(w, lanternTr, worldgen.PornHost, "/", runs)
	if err != nil {
		return nil, err
	}

	res.Text = metrics.SummarizeCDFs("PLT by approach", []metrics.Series{
		{Name: "ip-as-hostname", Dist: ipDist},
		{Name: "lantern", Dist: lanternDist},
	})
	res.Metric("median_plt_s.ip-as-hostname", ipDist.Median())
	res.Metric("median_plt_s.lantern", lanternDist.Median())
	res.Metric("lantern_over_ip_ratio", lanternDist.Median()/ipDist.Median())
	res.Note("paper shape: Lantern ≈1.5x the PLT of IP-as-hostname")
	return res, nil
}

// Figure2 probes a blocked-site list through the eight surveyed ASes and
// reports the per-AS mechanism mix.
func Figure2(o Options) (*Result, error) {
	w, err := o.world(300)
	if err != nil {
		return nil, err
	}
	// The probe list: blocked sites served from one origin (o.Runs scales
	// the list for quick benchmark passes).
	numSites := o.runs(20)
	var blocked []string
	var sites []*web.Site
	for i := 0; i < numSites; i++ {
		host := fmt.Sprintf("banned%02d.example.org", i)
		s := web.NewSite(host)
		s.AddPage("/", fmt.Sprintf("Banned site %d", i), 6<<10, 10<<10)
		sites = append(sites, s)
		blocked = append(blocked, host)
	}
	if _, err := w.AddOrigin("origin-banned", false, sites...); err != nil {
		return nil, err
	}

	res := &Result{ID: "figure2", Title: "Fraction of blocking types across ISPs (paper Figure 2)"}
	cats := []string{"NoDNS", "DNSRedir", "NoHTTPResp", "RST", "BlockPage"}
	tbl := metrics.Table{Headers: append([]string{"AS (country)"}, cats...)}

	for _, spec := range worldgen.Figure2ASes() {
		isp, _, err := w.BuildFigure2ISP(spec, blocked, "")
		if err != nil {
			return nil, err
		}
		client := w.NewClientHost(fmt.Sprintf("probe-as%d", spec.ASN), isp)
		det := newDetector(w, client)
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
	return res, nil
}

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

// resolveGDNS adapts a dnsx client to a Transport lookup.
func resolveGDNS(gdns *dnsx.Client) func(context.Context, string) (string, error) {
	return func(ctx context.Context, h string) (string, error) {
		r := gdns.Lookup(ctx, h)
		if !r.OK() {
			return "", r.Err
		}
		return r.IPs[0], nil
	}
}
