package core_test

import (
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	"csaw/internal/censor"
	"csaw/internal/core"
	"csaw/internal/httpx"
	"csaw/internal/localdb"
	"csaw/internal/trace"
	"csaw/internal/web"
	"csaw/internal/worldgen"
)

// caseStudyStagger holds the redundant copy back behind the direct request
// (§7.1 footnote 10) in every newCaseStudyClient world. These tests assert
// which path served a fetch, and at Scale 300 the direct path's ~300 ms
// virtual lead over the fastest relay is ~1 ms of real time — less than one
// scheduler hiccup, so a straight race lost 28 of 150 first fetches on an
// idle 2-vCPU box, and still 1-4 of 150 under -race at Scale 60-100 with
// the direct RTT cut to 20 ms. Staggered, a clean direct answer inside the
// window means the copy is never sent; a blocked or suspected one launches
// it at once, and a detection still running when the window closes gets its
// copy then, so every verdict and served source is what the unstaggered
// client would record. A test about the copy leaving *with* the direct
// request sets RedundantDelay back to 0.
const caseStudyStagger = 5 * time.Second

// newCaseStudyClient builds the §2.3 world and a C-Saw client behind the
// given ISP(s).
func newCaseStudyClient(t *testing.T, mutate func(*core.Config), isps ...string) (*worldgen.World, *core.Client) {
	t.Helper()
	w, err := worldgen.New(worldgen.Options{Scale: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ispA, ispB, err := w.CaseStudy()
	if err != nil {
		t.Fatal(err)
	}
	sel := map[string]*worldgen.ISP{"ISP-A": ispA, "ISP-B": ispB}
	var behind []*worldgen.ISP
	for _, name := range isps {
		behind = append(behind, sel[name])
	}
	if len(behind) == 0 {
		behind = []*worldgen.ISP{ispA}
	}
	host := w.NewClientHost("client-1", behind...)
	cfg := w.ClientConfig(host, 5)
	cfg.RedundantDelay = caseStudyStagger
	if mutate != nil {
		mutate(&cfg)
	}
	client, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	return w, client
}

func fetchURL(t *testing.T, c *core.Client, url string) *core.Result {
	t.Helper()
	return c.FetchURL(context.Background(), url)
}

func TestCleanURLServedDirect(t *testing.T) {
	_, c := newCaseStudyClient(t, nil, "ISP-A")
	res := fetchURL(t, c, worldgen.NewsHost+"/")
	if !res.OK() || res.Source != "direct" {
		t.Fatalf("result = %+v (err=%v)", res, res.Err)
	}
	c.WaitIdle()
	if _, st := c.DB().Lookup(worldgen.NewsHost + "/"); st != localdb.NotBlocked {
		t.Fatalf("db status = %v", st)
	}
	if c.Counter("served-direct") != 1 {
		t.Error("served-direct not counted")
	}
}

func TestBlockedURLServedViaCircumvention(t *testing.T) {
	// ISP-A redirects YouTube to a block page; an unmeasured fetch must
	// detect it and serve the real page from a circumvention path.
	_, c := newCaseStudyClient(t, nil, "ISP-A")
	res := fetchURL(t, c, worldgen.YouTubeHost+"/")
	if !res.OK() {
		t.Fatalf("fetch failed: %v", res.Err)
	}
	if res.Source == "direct" {
		t.Fatalf("blocked URL served from direct path")
	}
	if !web.LooksLikeHTML(res.Resp.Body) || len(res.Resp.Body) < 10<<10 {
		t.Fatalf("served body doesn't look like the real page (%d bytes)", len(res.Resp.Body))
	}
	c.WaitIdle()
	rec, st := c.DB().Lookup(worldgen.YouTubeHost + "/")
	if st != localdb.Blocked {
		t.Fatalf("db status = %v", st)
	}
	if rec.PrimaryType() != localdb.BlockHTTP {
		t.Fatalf("recorded stages = %+v", rec.Stages)
	}
	if c.Counter("phase2-confirm") != 1 {
		t.Error("block page not confirmed by phase 2")
	}
}

func TestMultiStageISPBDetected(t *testing.T) {
	// ISP-B: DNS redirect + HTTP drop + SNI drop for YouTube.
	_, c := newCaseStudyClient(t, nil, "ISP-B")
	res := fetchURL(t, c, worldgen.YouTubeHost+"/")
	if !res.OK() || res.Source == "direct" {
		t.Fatalf("result = %+v err=%v", res, res.Err)
	}
	c.WaitIdle()
	rec, st := c.DB().Lookup(worldgen.YouTubeHost + "/")
	if st != localdb.Blocked {
		t.Fatalf("status = %v", st)
	}
	types := map[localdb.BlockType]bool{}
	for _, s := range rec.Stages {
		types[s.Type] = true
	}
	if !types[localdb.BlockDNS] && !types[localdb.BlockHTTP] {
		t.Fatalf("stages = %+v, want DNS and/or HTTP evidence", rec.Stages)
	}
}

func TestSerialModeSlowerThanParallel(t *testing.T) {
	// Figure 5a: parallel redundancy hides detection time behind the
	// circumvention fetch — so the copy must leave with the direct request,
	// unstaggered.
	_, serial := newCaseStudyClient(t, func(cfg *core.Config) { cfg.Serial = true }, "ISP-B")
	_, parallel := newCaseStudyClient(t, func(cfg *core.Config) { cfg.RedundantDelay = 0 }, "ISP-B")

	rs := fetchURL(t, serial, worldgen.YouTubeHost+"/")
	rp := fetchURL(t, parallel, worldgen.YouTubeHost+"/")
	if !rs.OK() || !rp.OK() {
		t.Fatalf("fetches failed: %v / %v", rs.Err, rp.Err)
	}
	if rp.Took >= rs.Took {
		t.Errorf("parallel %v >= serial %v", rp.Took, rs.Took)
	}
}

func TestRedundantDelaySkipsCopyForFastClean(t *testing.T) {
	// Footnote 10: with a stagger delay, a clean page answered within the
	// delay never triggers the circumvention copy. Run at a low clock
	// scale so the virtual delay dwarfs real scheduling noise.
	w, err := worldgen.New(worldgen.Options{Scale: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ispA, _, err := w.CaseStudy()
	if err != nil {
		t.Fatal(err)
	}
	host := w.NewClientHost("client-1", ispA)
	cfg := w.ClientConfig(host, 5)
	cfg.RedundantDelay = 3 * time.Second
	c, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	res := fetchURL(t, c, worldgen.NewsHost+"/")
	if !res.OK() || res.Source != "direct" {
		t.Fatalf("result = %+v", res)
	}
	c.WaitIdle()
	if got := c.Counter("circum-copy-sent"); got != 0 {
		t.Fatalf("redundant copy sent %d times despite fast direct response", got)
	}
}

func TestChurnBlockedToUnblocked(t *testing.T) {
	// §4.4 scenario A: after the record expires, redundant measurement
	// discovers the unblocking and the URL goes back to the direct path.
	w, c := newCaseStudyClient(t, func(cfg *core.Config) {
		cfg.TTL = 30 * time.Second
	}, "ISP-A")
	if res := fetchURL(t, c, worldgen.YouTubeHost+"/"); !res.OK() || res.Source == "direct" {
		t.Fatalf("first fetch: %+v err=%v", res, res.Err)
	}
	c.WaitIdle()
	// Censor lifts the block (the Jan 2016 YouTube unblocking).
	w.ISPs["ISP-A"].Censor.SetPolicy(&censor.Policy{})
	w.Clock.Sleep(time.Minute) // let the record expire
	res := fetchURL(t, c, worldgen.YouTubeHost+"/")
	if !res.OK() || res.Source != "direct" {
		t.Fatalf("post-unblock fetch = %+v err=%v", res, res.Err)
	}
	c.WaitIdle()
	if _, st := c.DB().Lookup(worldgen.YouTubeHost + "/"); st != localdb.NotBlocked {
		t.Fatalf("db status = %v after unblock", st)
	}
}

func TestChurnUnblockedToBlocked(t *testing.T) {
	// §4.4 scenario B: the direct path is always measured, so new blocking
	// is caught on the next access.
	w, c := newCaseStudyClient(t, nil, "ISP-A")
	if res := fetchURL(t, c, worldgen.NewsHost+"/"); !res.OK() || res.Source != "direct" {
		t.Fatalf("pre-block fetch: %+v", res)
	}
	c.WaitIdle()
	w.ISPs["ISP-A"].Censor.SetPolicy(&censor.Policy{
		HTTP: []censor.HTTPRule{{Host: worldgen.NewsHost, Action: censor.HTTPBlockPage}},
	})
	res := fetchURL(t, c, worldgen.NewsHost+"/")
	if !res.OK() || res.Source == "direct" {
		t.Fatalf("post-block fetch = %+v err=%v", res, res.Err)
	}
	c.WaitIdle()
	if c.Counter("churn-unblocked-to-blocked") != 1 {
		t.Error("churn not counted")
	}
	if _, st := c.DB().Lookup(worldgen.NewsHost + "/"); st != localdb.Blocked {
		t.Fatalf("db status = %v", st)
	}
}

func TestPhase2OverturnsFalsePositive(t *testing.T) {
	// A legitimate small page whose wording trips phase 1 must be
	// exonerated by the size comparison and served from the direct path.
	w, c := newCaseStudyClient(t, nil, "ISP-A")
	site := web.NewSite("editorial.example.org")
	site.AddPage("/", "Essay: Access Denied — a history of the filtered web", 1500)
	if _, err := w.AddOrigin("origin-editorial", true, site); err != nil {
		t.Fatal(err)
	}
	res := fetchURL(t, c, "editorial.example.org/")
	if !res.OK() {
		t.Fatalf("fetch: %v", res.Err)
	}
	c.WaitIdle()
	if c.Counter("phase2-overturn") == 0 {
		t.Skip("phase 1 did not suspect this page; heuristic got stricter")
	}
	if _, st := c.DB().Lookup("editorial.example.org/"); st != localdb.NotBlocked {
		t.Fatalf("db status = %v, want NotBlocked after overturn", st)
	}
}

func TestGlobalDBSharingBetweenClients(t *testing.T) {
	// Client 1 measures a blocked URL and reports it; client 2 on the same
	// AS downloads the list and circumvents on first access.
	w, err := worldgen.New(worldgen.Options{Scale: 300, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	ispA, _, err := w.CaseStudy()
	if err != nil {
		t.Fatal(err)
	}
	_ = ispA

	mk := func(name string, seed int64) *core.Client {
		host := w.NewClientHost(name, w.ISPs["ISP-A"])
		cfg := w.ClientConfig(host, seed)
		cfg.PSet = true // p = 0: no direct re-measure, deterministic source
		client, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(client.Close)
		if err := client.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		return client
	}
	c1 := mk("reporter", 11)
	c2 := mk("beneficiary", 12)

	if res := fetchURL(t, c1, worldgen.YouTubeHost+"/"); !res.OK() {
		t.Fatalf("c1 fetch: %v", res.Err)
	}
	c1.WaitIdle()
	if err := c1.SyncNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	if c1.Counter("reports-posted") == 0 {
		t.Fatal("c1 posted no reports")
	}
	if err := c2.SyncNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	if c2.GlobalCacheLen() == 0 {
		t.Fatal("c2 has no global entries")
	}
	res := fetchURL(t, c2, worldgen.YouTubeHost+"/")
	if !res.OK() {
		t.Fatalf("c2 fetch: %v", res.Err)
	}
	if res.Source == "direct" {
		t.Fatalf("c2 used the direct path despite the global report")
	}
	// And crucially: c2 never paid detection time (no redundant probe).
	if c2.Counter("churn-unblocked-to-blocked")+c2.Counter("phase2-confirm") != 0 {
		t.Error("c2 ran detection despite global knowledge")
	}
}

func TestFalseGlobalReportCorrectedWithP1(t *testing.T) {
	// A malicious report marks a clean URL blocked; with p=1 the client
	// re-measures the direct path and corrects its view.
	w, err := worldgen.New(worldgen.Options{Scale: 300, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.CaseStudy(); err != nil {
		t.Fatal(err)
	}
	host := w.NewClientHost("victim", w.ISPs["ISP-A"])
	cfg := w.ClientConfig(host, 13)
	cfg.P, cfg.PSet = 1.0, true
	client, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	if err := client.Start(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Attacker reports the (clean) news site as blocked.
	attacker := w.NewClientHost("attacker", w.ISPs["ISP-A"])
	acfg := w.ClientConfig(attacker, 14)
	ac, err := core.New(acfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ac.Close)
	if err := ac.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	ac.DB().Put(worldgen.NewsHost+"/", 17557, localdb.Blocked,
		[]localdb.Stage{{Type: localdb.BlockHTTP, Detail: "blockpage"}})
	if err := ac.SyncNow(context.Background()); err != nil {
		t.Fatal(err)
	}

	if err := client.SyncNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	if client.GlobalCacheLen() == 0 {
		t.Fatal("victim never saw the false report")
	}
	res := fetchURL(t, client, worldgen.NewsHost+"/")
	if !res.OK() {
		t.Fatalf("fetch: %v", res.Err)
	}
	client.WaitIdle()
	if client.Counter("false-report-corrected") == 0 {
		t.Fatal("false report not corrected despite p=1")
	}
	if _, st := client.DB().Lookup(worldgen.NewsHost + "/"); st != localdb.NotBlocked {
		t.Fatalf("db status = %v after correction", st)
	}
}

func TestMultihomingDetection(t *testing.T) {
	_, c := newCaseStudyClient(t, nil, "ISP-A", "ISP-B")
	// Probe until both egress ASes have been observed.
	for i := 0; i < 30 && !c.Multihomed(); i++ {
		if err := c.ProbeASN(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Multihomed() {
		t.Fatal("multihoming never detected across 30 probes")
	}
}

func TestSinglehomedNeverMultihomed(t *testing.T) {
	_, c := newCaseStudyClient(t, nil, "ISP-A")
	for i := 0; i < 10; i++ {
		if err := c.ProbeASN(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if c.Multihomed() {
		t.Fatal("singlehomed client marked multihomed")
	}
}

// One world per rung kind holds the client to the planner (plan_test.go
// holds the rules).
func TestLocalFixSelectedForDNSBlocking(t *testing.T) { followsPlan(t, "local fix") }
func TestExplorationEveryN(t *testing.T)              { followsPlan(t, "relay") }
func TestAnonymityPreferenceUsesTorOnly(t *testing.T) { followsPlan(t, "tor") }
func TestPreferAnonymityWithNoTorFails(t *testing.T)  { followsPlan(t, "none") }

// followsPlan runs the world of one rung kind: a blocked URL is fetched
// unmeasured, then known blocked, and each fetch is served by the approach
// the planner chose, the second by the row's rule among the row's rungs.
// With no rung to choose, the client serves the block page rather than leak
// through an approach the user ruled out.
func followsPlan(t *testing.T, rung string) {
	only := func(keep func(*core.Approach) bool, more func(*core.Config)) func(*core.Config) {
		return func(cfg *core.Config) {
			cfg.Approaches = slices.DeleteFunc(slices.Clone(cfg.Approaches), func(a *core.Approach) bool { return !keep(a) })
			more(cfg)
		}
	}
	anonymous := func(cfg *core.Config) { cfg.Pref = core.PreferAnonymity }
	for _, tc := range []struct {
		rung   string
		policy *censor.Policy // nil keeps ISP-A's block page for YouTube
		mutate func(*core.Config)
		second string // the known-blocked fetch's choice: "rung|rung rule"
	}{
		{"local fix", &censor.Policy{DNS: map[string]censor.DNSAction{"youtube.com": censor.DNSNXDomain}}, func(*core.Config) {},
			"public-dns|https|domain-fronting|ip-as-hostname local-fix"},
		{"relay", nil, only(func(a *core.Approach) bool { return a.Kind == core.KindRelay }, func(cfg *core.Config) { cfg.ExploreEvery = 2 }),
			"tor|tor-bridge|lantern|proxy-Netherlands explore"},
		{"tor", nil, anonymous, "tor|tor-bridge best-ewma"},
		{"none", nil, only(func(a *core.Approach) bool { return !a.Anonymous }, anonymous), ""},
	} {
		if tc.rung != rung {
			continue
		}
		t.Run(tc.rung, func(t *testing.T) {
			sink := new(trace.CollectSink)
			w, c := newCaseStudyClient(t, func(cfg *core.Config) { cfg.Trace = trace.New(cfg.Clock, sink); tc.mutate(cfg) }, "ISP-A")
			chosen := func(seq uint64) (detail string) { // the span's "select chosen": approach and rule
				for _, r := range sink.Records() {
					for _, e := range r.Events {
						if r.Seq == seq && e.Name == "chosen" {
							detail = e.Detail
						}
					}
				}
				return detail
			}
			if tc.policy != nil {
				w.ISPs["ISP-A"].Censor.SetPolicy(tc.policy)
			}
			var res [2]*core.Result
			for i := range res {
				res[i] = fetchURL(t, c, worldgen.YouTubeHost+"/")
				c.WaitIdle()
				if name, _, _ := strings.Cut(chosen(uint64(i+1)), " "); tc.second != "" && (!res[i].OK() || res[i].Source != name) {
					t.Fatalf("fetch %d: served via %q (err %v), the planner chose %q", i+1, res[i].Source, res[i].Err, name)
				}
			}
			names, why, _ := strings.Cut(tc.second, " ")
			if name, rule, _ := strings.Cut(chosen(2), " "); rule != why || tc.second != "" && !slices.Contains(strings.Split(names, "|"), name) {
				t.Fatalf("the known-blocked fetch chose %q, want %q", chosen(2), tc.second)
			}
			if tc.second == "" && (res[0].Source != "direct" || c.Counter("served-blockpage") != 1 || res[1].Err == nil) {
				t.Fatalf("with no rung: served %q then %q (err %v), %d block pages", res[0].Source, res[1].Source, res[1].Err, c.Counter("served-blockpage"))
			}
			if why == "explore" && c.Counter("explore") != 1 {
				t.Fatalf("explored %d times, want once", c.Counter("explore"))
			}
		})
	}
}

func TestTorBridgeFallbackWhenRelaysBlacklisted(t *testing.T) {
	// §8 robustness: a censor blacklists every public Tor relay IP; an
	// anonymity-preferring client falls over to bridges and keeps working.
	w, err := worldgen.New(worldgen.Options{Scale: 300, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	ispA, _, err := w.CaseStudy()
	if err != nil {
		t.Fatal(err)
	}
	// The Table-1 policy plus an IP blacklist of all public relays.
	p := worldgen.ISPAPolicy("block.isp-a.pk/blocked.html", "youtube.com")
	p.IP = map[string]censor.IPAction{}
	for _, r := range w.TorDir.PublicRelays() {
		p.IP[r.Host.IP()] = censor.IPReset
	}
	ispA.Censor.SetPolicy(p)

	host := w.NewClientHost("bridge-user", ispA)
	cfg := w.ClientConfig(host, 21)
	cfg.GlobalDB = nil
	cfg.Pref = core.PreferAnonymity // tor and tor-bridge only
	c, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	res := fetchURL(t, c, worldgen.YouTubeHost+"/")
	if !res.OK() {
		t.Fatalf("fetch with blacklisted relays: %v", res.Err)
	}
	if res.Source != "tor-bridge" {
		t.Fatalf("served via %q, want tor-bridge", res.Source)
	}
	// The failover counter only fires when plain tor is tried first; the
	// untried-tie random break may elect tor-bridge directly, so the only
	// hard invariant is the source above.
}

func TestDoPostNeverDuplicated(t *testing.T) {
	// §4.3.1 footnote 7: POSTs are not duplicated — a POST to an
	// unmeasured URL takes the direct path only, with no redundant copy.
	_, c := newCaseStudyClient(t, nil, "ISP-A")
	req := httpx.NewRequest("POST", worldgen.NewsHost, "/submit")
	req.Body = []byte(`comment=hello`)
	res, err := c.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "direct" {
		t.Fatalf("POST went via %q", res.Source)
	}
	c.WaitIdle()
	if got := c.Counter("circum-copy-sent"); got != 0 {
		t.Fatalf("POST was duplicated %d times", got)
	}
}

func TestDoPostToBlockedURLUsesApproach(t *testing.T) {
	// A POST to a known-blocked URL rides the selected approach, once.
	_, c := newCaseStudyClient(t, nil, "ISP-A")
	// Learn that the host is blocked first.
	if res := fetchURL(t, c, worldgen.YouTubeHost+"/"); !res.OK() {
		t.Fatalf("warm fetch: %v", res.Err)
	}
	c.WaitIdle()
	req := httpx.NewRequest("POST", worldgen.YouTubeHost, "/comment")
	req.Body = []byte(`text=hi`)
	res, err := c.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source == "direct" {
		t.Fatalf("POST to blocked URL went direct")
	}
}

func TestDoGetDelegatesToFetchURL(t *testing.T) {
	_, c := newCaseStudyClient(t, nil, "ISP-A")
	req := httpx.NewRequest("GET", worldgen.NewsHost, "/")
	res, err := c.Do(context.Background(), req)
	if err != nil || !res.OK() || res.Source != "direct" {
		t.Fatalf("GET via Do = %+v err=%v", res, err)
	}
}

func TestCDNBlockingDiscovered(t *testing.T) {
	// §7.4's headline discovery: blocking of CDN servers. The news page
	// embeds objects from a third-party CDN; when the censor blocks the
	// CDN host, C-Saw notices *because the browser routes every embedded
	// object through the proxy*, which measures each on the direct path.
	w, c := newCaseStudyClient(t, nil, "ISP-A")
	cdnIP := w.Registry.Lookup(worldgen.CDNHost)[0]
	p := worldgen.ISPAPolicy("block.isp-a.pk/blocked.html", "youtube.com")
	p.IP = map[string]censor.IPAction{cdnIP: censor.IPReset}
	w.ISPs["ISP-A"].Censor.SetPolicy(p)

	b := &web.Browser{Transport: c, ClockSrc: w.Clock}
	pr := b.Load(context.Background(), worldgen.NewsHost, "/")
	if !pr.OK() {
		t.Fatalf("news load: %v", pr.Err)
	}
	if pr.Objects == 0 {
		t.Fatalf("no objects fetched (CDN objects should come via circumvention): %+v", pr)
	}
	c.WaitIdle()
	rec, st := c.DB().Lookup(worldgen.CDNHost + "/lib/analytics.js")
	if st != localdb.Blocked {
		t.Fatalf("CDN blocking not recorded: status=%v rec=%+v", st, rec)
	}
	if rec.PrimaryType() != localdb.BlockIP {
		t.Fatalf("CDN blocking mechanism = %v, want ip", rec.PrimaryType())
	}
	// And the page host itself stays clean.
	if _, st := c.DB().Lookup(worldgen.NewsHost + "/"); st != localdb.NotBlocked {
		t.Fatalf("news host status = %v", st)
	}
}

func TestRefreshOnPhase1FalseNegative(t *testing.T) {
	// §4.3.1: a phase-1 false negative (block page served as if clean) is
	// corrected by a page refresh once the circumvented copy arrives and
	// phase 2 sees the size mismatch. Craft a censor whose "block page"
	// looks like an innocuous small page (no phrases, links out). The copy
	// must travel beside the clean-looking direct answer, so no stagger;
	// whichever arrives first, the refresh fires.
	w, c := newCaseStudyClient(t, func(cfg *core.Config) { cfg.RedundantDelay = 0 }, "ISP-A")
	stealthy := []byte(`<html><head><title>Service notice</title></head><body>` +
		`<p>Please try again later, or visit <a href="http://help.isp.example/">support</a>.</p></body></html>`)
	w.ISPs["ISP-A"].Censor.SetPolicy(&censor.Policy{
		HTTP:          []censor.HTTPRule{{Host: worldgen.LargeHost, Action: censor.HTTPBlockPage}},
		BlockPageHTML: stealthy,
	})
	res := fetchURL(t, c, worldgen.LargeHost+"/")
	if !res.OK() {
		t.Fatalf("fetch: %v", res.Err)
	}
	c.WaitIdle()
	if c.Counter("refresh") == 0 {
		t.Fatal("phase-1 false negative not corrected by refresh")
	}
	if _, st := c.DB().Lookup(worldgen.LargeHost + "/"); st != localdb.Blocked {
		t.Fatalf("db status = %v after refresh correction", st)
	}
}
