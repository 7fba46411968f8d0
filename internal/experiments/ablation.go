package experiments

import (
	"context"
	"fmt"
	"time"

	"csaw/internal/censor"
	"csaw/internal/core"
	"csaw/internal/globaldb"
	"csaw/internal/localdb"
	"csaw/internal/metrics"
	"csaw/internal/web"
	"csaw/internal/worldgen"
)

// alwaysRedundant is the ablation that duplicates every request over Tor,
// known-unblocked URLs included.
func alwaysRedundant(cfg *core.Config) {
	torOnly(cfg)
	cfg.NoSelectiveRedundancy = true
	cfg.TTL = 1 // every access is redundant
}

// AblationSelectiveRedundancy quantifies §4.3.1's selective-redundancy
// tradeoff: duplicating requests even for known-unblocked URLs wastes
// client budget and inflates PLT, which is why C-Saw only duplicates
// not-measured URLs.
var AblationSelectiveRedundancy = experiment("ablation-selective", scenario{scale: 500, sites: standardSites, isps: []ispRow{{20000, "ISP-AB1", nil}}}, func(r *rig) *Result {
	runs := r.runs(30)
	list := []series{
		{name: "selective (C-Saw)", key: "selective", client: "ab1-selective", cfg: torOnly},
		{name: "always-redundant", key: "always", client: "ab1-always", cfg: alwaysRedundant},
	}
	curves := r.measure(worldgen.SmallHost, runs, list)
	res := &Result{Title: fmt.Sprintf("Selective redundancy on a clean page (%d loads)", runs)}
	cdfs(res, "PLT", false, curves)
	res.Metric("copies.selective", float64(list[0].cl.Counter("circum-copy-sent")))
	res.Metric("copies.always", float64(list[1].cl.Counter("circum-copy-sent")))
	res.Note("selective mode sends almost no redundant copies after the first access; always-redundant pays Tor-copy load on every object")
	return res
})

// AblationVoting runs the §5 false-report attack with and without the
// vote-based trust filter: an attacker sprays bogus blocked URLs; the
// filter keeps them out of clients' circumvention decisions.
var AblationVoting = experiment("ablation-voting", scenario{scale: 500, sites: standardSites, isps: []ispRow{{20100, "ISP-AB2", nil}}}, func(r *rig) *Result {
	isp, spam, ctx := r.isps[0], r.runs(80), context.Background()
	blockpage := []localdb.Stage{{Type: localdb.BlockHTTP, Detail: "blockpage"}}

	// The attacker registers once and sprays.
	atk := r.reporter("ab2-attacker", "human-attacker", 0, isp)
	var fakes []localdb.Record
	for i := 0; i < spam; i++ {
		fakes = append(fakes, localdb.Record{
			URL: fmt.Sprintf("victim-%03d.example/", i), ASN: isp.AS.Number, Status: localdb.Blocked, Stages: blockpage,
		})
	}
	// Plus the one real report everyone agrees on.
	honest := r.reporter("ab2-honest", "human-honest", 0, isp)
	_, err := honest.Report(ctx, []localdb.Record{{
		URL: worldgen.YouTubeHost + "/", ASN: isp.AS.Number, Status: localdb.Blocked, Stages: blockpage,
	}})
	r.ok(err, "honest report")
	_, err = atk.Report(ctx, fakes)
	r.ok(err, "attacker spray")

	trusted := func(filter globaldb.TrustFilter) (poisoned, legit int) {
		entries, err := honest.FetchBlocked(ctx, isp.AS.Number)
		r.ok(err, "fetching the list")
		for _, e := range entries {
			if !filter.Trusted(e) {
				continue
			}
			if e.URL == worldgen.YouTubeHost+"/" {
				legit++
			} else {
				poisoned++
			}
		}
		return poisoned, legit
	}
	noFilterPoisoned, noFilterLegit := trusted(globaldb.TrustFilter{MinAvgVote: 1e-9})
	withFilterPoisoned, withFilterLegit := trusted(globaldb.TrustFilter{})

	res := &Result{Title: fmt.Sprintf("Vote-based trust vs a %d-URL false-report spray", spam)}
	tbl := metrics.Table{Headers: []string{"configuration", "poisoned URLs trusted", "legit URLs trusted"}}
	tbl.AddRow("voting filter off", fmt.Sprintf("%d", noFilterPoisoned), fmt.Sprintf("%d", noFilterLegit))
	tbl.AddRow("voting filter on", fmt.Sprintf("%d", withFilterPoisoned), fmt.Sprintf("%d", withFilterLegit))
	res.Text = tbl.String()
	res.Metric("poisoned_trusted.off", float64(noFilterPoisoned))
	res.Metric("poisoned_trusted.on", float64(withFilterPoisoned))
	res.Metric("legit_trusted.on", float64(withFilterLegit))
	res.Note("v = 1/d dilutes the attacker: spraying %d URLs leaves each with s/n = %.3f, below the trust threshold", spam, 1.0/float64(spam))
	return res
})

// fetches is a loads operation timing one client fetch of a URL; each, when
// set, sees every result.
func fetches(cl *core.Client, url string, each func(*core.Result)) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		res := cl.FetchURL(context.Background(), url)
		if each != nil {
			each(res)
		}
		return res.Took, res.Err
	}
}

// AblationMultihoming measures the oscillation §4.4 warns about: a
// multihomed client whose providers disagree on blocking keeps flip-
// flopping between "blocked" and "not blocked" without the adaptation.
// Provider A is clean, provider B blocks YouTube over HTTP.
var AblationMultihoming = experiment("ablation-multihoming", scenario{scale: 400, sites: standardSites, isps: []ispRow{
	{20200, "MH-A", nil},
	{20201, "MH-B", &censor.Policy{HTTP: []censor.HTTPRule{{Host: "youtube.com", Action: censor.HTTPReset}}}},
}}, func(r *rig) *Result {
	accesses := r.runs(24)
	run := func(name string, disableAdapt bool) (churn int, dist *metrics.Distribution) {
		cl := r.client(name, 0, false, func(cfg *core.Config) {
			cfg.ASNProbeAddr = r.w.ASNEchoAddr // unsynced, but it must discover its second provider
			cfg.NoMultihoming = disableAdapt
			cfg.TTL = 20 * time.Second // short enough to expire during the run
		}, r.isps...)
		defer cl.Close()
		// Let the probe discover multihoming first.
		for i := 0; i < 20 && !cl.Multihomed(); i++ {
			r.ok(cl.ProbeASN(context.Background()), "%s: ASN probe", name)
		}
		dist = r.loads(name, accesses, pacing{think: 10 * time.Second}, tolerateHalf, fetches(cl, worldgen.YouTubeHost+"/", nil))
		cl.WaitIdle()
		return cl.Counter("churn-unblocked-to-blocked"), dist
	}
	churnOn, distOn := run("mh-adapt", false)
	churnOff, distOff := run("mh-noadapt", true)

	res := &Result{Title: fmt.Sprintf("Multihomed client, %d accesses to a URL one provider blocks", accesses)}
	tbl := metrics.Table{Headers: []string{"configuration", "oscillations (re-detections)", "median fetch (s)", "p90 fetch (s)"}}
	tbl.AddRow("adaptation on", fmt.Sprintf("%d", churnOn), fmt.Sprintf("%.2f", distOn.Median()), fmt.Sprintf("%.2f", distOn.Percentile(90)))
	tbl.AddRow("adaptation off", fmt.Sprintf("%d", churnOff), fmt.Sprintf("%.2f", distOff.Median()), fmt.Sprintf("%.2f", distOff.Percentile(90)))
	res.Text = tbl.String()
	res.Metric("oscillations.on", float64(churnOn))
	res.Metric("oscillations.off", float64(churnOff))
	res.Metric("p90_s.on", distOn.Percentile(90))
	res.Metric("p90_s.off", distOff.Percentile(90))
	res.Note("with adaptation, the merged (stricter) blocking view keeps the client on a working fix instead of re-detecting")
	return res
})

// AblationExplore compares exploration cadences: without the every-n-th
// random pick the client can never notice an approach improving.
var AblationExplore = experiment("ablation-explore", scenario{scale: 400, sites: standardSites, isps: []ispRow{
	{20300, "ISP-AB4", &censor.Policy{IP: map[string]censor.IPAction{worldgen.YouTubeHost: censor.IPReset}}},
}}, func(r *rig) *Result {
	accesses := r.runs(30)
	run := func(name string, every int) (explored, distinct int) {
		cl := r.client(name, int64(every), false, func(cfg *core.Config) {
			keepApproaches(cfg, func(a *core.Approach) bool { return a.Kind == core.KindRelay })
			cfg.ExploreEvery = every
		})
		defer cl.Close()
		sources := map[string]bool{}
		r.loads(name, accesses, pacing{}, failAny, fetches(cl, worldgen.YouTubeHost+"/", func(res *core.Result) { sources[res.Source] = true }))
		cl.WaitIdle()
		return cl.Counter("explore"), len(sources)
	}
	explOn, srcOn := run("ab4-explore", 5)
	explOff, srcOff := run("ab4-noexplore", 1<<30)

	res := &Result{Title: fmt.Sprintf("Exploration cadence over %d accesses to a blocked URL", accesses)}
	tbl := metrics.Table{Headers: []string{"configuration", "explorations", "distinct approaches used"}}
	tbl.AddRow("n = 5 (paper)", fmt.Sprintf("%d", explOn), fmt.Sprintf("%d", srcOn))
	tbl.AddRow("exploration off", fmt.Sprintf("%d", explOff), fmt.Sprintf("%d", srcOff))
	res.Text = tbl.String()
	res.Metric("explorations.on", float64(explOn))
	res.Metric("explorations.off", float64(explOff))
	res.Metric("distinct.on", float64(srcOn))
	res.Metric("distinct.off", float64(srcOff))
	res.Note("with n=5 the client keeps sampling alternate relays (catching approaches whose PLT improves); without it the first EWMA winner is sticky")
	return res
})

// AblationFingerprint measures the censor-observable signature the §8
// discussion worries about: how many direct-path requests the censor sees
// per page load, for a plain browser, a C-Saw client with selective
// redundancy (the shipped behaviour), and an always-redundant ablation.
// Selective redundancy keeps C-Saw's direct-path footprint at one request
// per object after the first visit — indistinguishable from a browser.
// The censor inspects port 80 (it has an HTTP rule for an unrelated host)
// but does not block the measured site.
var AblationFingerprint = experiment("ablation-fingerprint", scenario{scale: 500, sites: standardSites, isps: []ispRow{
	{20400, "ISP-FP", &censor.Policy{HTTP: []censor.HTTPRule{{Host: "unrelated.example", Action: censor.HTTPReset}}}},
}}, func(r *rig) *Result {
	loads := r.runs(10)
	seen := func() int { return r.isps[0].Censor.Counters.Get("http-pass") }

	// observe counts the direct-path requests the censor passes per load;
	// settle waits out whatever the fetcher still has in flight.
	observe := func(name string, f web.Fetcher, settle func()) float64 {
		before := seen()
		r.loads(name, loads, pacing{}, failAny, r.page(f, worldgen.SmallHost))
		settle()
		return float64(seen()-before) / float64(loads)
	}
	csaw := func(name string, cfg func(*core.Config), warm bool) float64 {
		cl := r.client(name, 0, false, cfg)
		defer cl.Close()
		if warm {
			r.loads(name+" warm-up", 1, pacing{}, failAny, r.page(cl, worldgen.SmallHost))
			cl.WaitIdle()
		}
		return observe(name, cl, cl.WaitIdle)
	}

	// Baseline: a plain browser (no C-Saw), same page, same censor.
	plainHost := r.host("fp-plain")
	ldns, gdns := r.w.Resolvers(plainHost)
	plainRate := observe("fp-plain", &web.Transport{
		Label:  "plain",
		Dialer: plainHost.Dial,
		Lookup: core.CombinedLookup(ldns, gdns),
		Clock:  r.w.Clock,
	}, func() {})
	selective := csaw("fp-selective", torOnly, true)
	always := csaw("fp-always", alwaysRedundant, false)

	res := &Result{Title: fmt.Sprintf("Censor-visible direct-path requests per page load (%d loads)", loads)}
	tbl := metrics.Table{Headers: []string{"client", "direct requests seen per load"}}
	tbl.AddRow("plain browser", fmt.Sprintf("%.1f", plainRate))
	tbl.AddRow("C-Saw (selective redundancy)", fmt.Sprintf("%.1f", selective))
	tbl.AddRow("C-Saw (always redundant)", fmt.Sprintf("%.1f", always))
	res.Text = tbl.String()
	res.Metric("per_load.plain", plainRate)
	res.Metric("per_load.selective", selective)
	res.Metric("per_load.always", always)
	res.Note("all three are indistinguishable on the direct path: C-Saw's redundant copy rides the circumvention path (different route, often different source IP), so the censor sees exactly one request per object either way — quantifying §8's argument that redundant requests are hard to fingerprint on-path")
	return res
})
