package experiments

import (
	"context"
	"fmt"

	"csaw/internal/censor"
	"csaw/internal/core"
	"csaw/internal/globaldb"
	"csaw/internal/localdb"
	"csaw/internal/metrics"
	"csaw/internal/web"
	"csaw/internal/worldgen"
)

// AblationSelectiveRedundancy quantifies §4.3.1's selective-redundancy
// tradeoff: duplicating requests even for known-unblocked URLs wastes
// client budget and inflates PLT, which is why C-Saw only duplicates
// not-measured URLs.
func AblationSelectiveRedundancy(o Options) (*Result, error) {
	w, err := o.world(500)
	if err != nil {
		return nil, err
	}
	if err := w.StandardSites(); err != nil {
		return nil, err
	}
	isp, err := w.AddISP(20000, "ISP-AB1", nil)
	if err != nil {
		return nil, err
	}
	runs := o.runs(30)

	measure := func(name string, off bool) (*metrics.Distribution, int, error) {
		cl, err := newClient(w, isp, name, o.seed(), func(cfg *core.Config) {
			torOnly(cfg)
			cfg.NoSelectiveRedundancy = off
			if off {
				cfg.TTL = 1 // every access is redundant
			}
		})
		if err != nil {
			return nil, 0, err
		}
		defer cl.Close()
		dist := metrics.NewDistribution()
		for r := 0; r < runs; r++ {
			pr := (&web.Browser{Transport: cl, ClockSrc: w.Clock}).Load(context.Background(), worldgen.SmallHost, "/")
			if pr.Err != nil {
				return nil, 0, fmt.Errorf("selective ablation %s: %w", name, err)
			}
			dist.AddDuration(pr.PLT)
		}
		cl.WaitIdle()
		return dist, cl.Counter("circum-copy-sent"), nil
	}

	on, copiesOn, err := measure("ab1-selective", false)
	if err != nil {
		return nil, err
	}
	off, copiesOff, err := measure("ab1-always", true)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "ablation-selective", Title: fmt.Sprintf("Selective redundancy on a clean page (%d loads)", runs)}
	res.Text = metrics.SummarizeCDFs("PLT", []metrics.Series{
		{Name: "selective (C-Saw)", Dist: on},
		{Name: "always-redundant", Dist: off},
	})
	res.Metric("median_plt_s.selective", on.Median())
	res.Metric("median_plt_s.always", off.Median())
	res.Metric("copies.selective", float64(copiesOn))
	res.Metric("copies.always", float64(copiesOff))
	res.Note("selective mode sends almost no redundant copies after the first access; always-redundant pays Tor-copy load on every object")
	return res, nil
}

// AblationVoting runs the §5 false-report attack with and without the
// vote-based trust filter: an attacker sprays bogus blocked URLs; the
// filter keeps them out of clients' circumvention decisions.
func AblationVoting(o Options) (*Result, error) {
	w, err := o.world(500)
	if err != nil {
		return nil, err
	}
	if err := w.StandardSites(); err != nil {
		return nil, err
	}
	isp, err := w.AddISP(20100, "ISP-AB2", nil)
	if err != nil {
		return nil, err
	}
	spam := o.runs(80)

	// The attacker registers once and sprays.
	atkHost := w.NewClientHost("ab2-attacker", isp)
	atk := &globaldb.Client{
		Endpoints: w.GlobalDBEndpoints, Host: worldgen.GlobalDBHost,
		Clock: w.Clock, ReportDial: atkHost.Dial, FetchDial: atkHost.Dial,
	}
	if err := atk.Register(context.Background(), "human-attacker"); err != nil {
		return nil, err
	}
	var fakes []localdb.Record
	for i := 0; i < spam; i++ {
		fakes = append(fakes, localdb.Record{
			URL: fmt.Sprintf("victim-%03d.example/", i), ASN: isp.AS.Number,
			Status: localdb.Blocked,
			Stages: []localdb.Stage{{Type: localdb.BlockHTTP, Detail: "blockpage"}},
		})
	}
	// Plus the one real report everyone agrees on.
	honestHost := w.NewClientHost("ab2-honest", isp)
	honest := &globaldb.Client{
		Endpoints: w.GlobalDBEndpoints, Host: worldgen.GlobalDBHost,
		Clock: w.Clock, ReportDial: honestHost.Dial, FetchDial: honestHost.Dial,
	}
	if err := honest.Register(context.Background(), "human-honest"); err != nil {
		return nil, err
	}
	if _, err := honest.Report(context.Background(), []localdb.Record{{
		URL: worldgen.YouTubeHost + "/", ASN: isp.AS.Number, Status: localdb.Blocked,
		Stages: []localdb.Stage{{Type: localdb.BlockHTTP, Detail: "blockpage"}},
	}}); err != nil {
		return nil, err
	}
	if _, err := atk.Report(context.Background(), fakes); err != nil {
		return nil, err
	}

	trusted := func(filter globaldb.TrustFilter) (poisoned, legit int, err error) {
		entries, err := honest.FetchBlocked(context.Background(), isp.AS.Number)
		if err != nil {
			return 0, 0, err
		}
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
		return poisoned, legit, nil
	}
	noFilterPoisoned, noFilterLegit, err := trusted(globaldb.TrustFilter{MinAvgVote: 1e-9})
	if err != nil {
		return nil, err
	}
	withFilterPoisoned, withFilterLegit, err := trusted(globaldb.TrustFilter{})
	if err != nil {
		return nil, err
	}

	res := &Result{ID: "ablation-voting", Title: fmt.Sprintf("Vote-based trust vs a %d-URL false-report spray", spam)}
	tbl := metrics.Table{Headers: []string{"configuration", "poisoned URLs trusted", "legit URLs trusted"}}
	tbl.AddRow("voting filter off", fmt.Sprintf("%d", noFilterPoisoned), fmt.Sprintf("%d", noFilterLegit))
	tbl.AddRow("voting filter on", fmt.Sprintf("%d", withFilterPoisoned), fmt.Sprintf("%d", withFilterLegit))
	res.Text = tbl.String()
	res.Metric("poisoned_trusted.off", float64(noFilterPoisoned))
	res.Metric("poisoned_trusted.on", float64(withFilterPoisoned))
	res.Metric("legit_trusted.on", float64(withFilterLegit))
	res.Note("v = 1/d dilutes the attacker: spraying %d URLs leaves each with s/n = %.3f, below the trust threshold", spam, 1.0/float64(spam))
	return res, nil
}

// AblationMultihoming measures the oscillation §4.4 warns about: a
// multihomed client whose providers disagree on blocking keeps flip-
// flopping between "blocked" and "not blocked" without the adaptation.
func AblationMultihoming(o Options) (*Result, error) {
	w, err := o.world(400)
	if err != nil {
		return nil, err
	}
	if err := w.StandardSites(); err != nil {
		return nil, err
	}
	// Provider A clean, provider B blocks YouTube over HTTP.
	ispA, err := w.AddISP(20200, "MH-A", nil)
	if err != nil {
		return nil, err
	}
	ispB, err := w.AddISP(20201, "MH-B", &censor.Policy{
		HTTP: []censor.HTTPRule{{Host: "youtube.com", Action: censor.HTTPReset}},
	})
	if err != nil {
		return nil, err
	}
	accesses := o.runs(24)

	run := func(name string, disableAdapt bool) (churn int, dist *metrics.Distribution, err error) {
		host := w.NewClientHost(name, ispA, ispB)
		cfg := w.ClientConfig(host, o.seed())
		cfg.GlobalDB = nil
		cfg.NoMultihoming = disableAdapt
		cfg.TTL = 20 * 1e9 // 20s: short enough to expire during the run
		cl, err := core.New(cfg)
		if err != nil {
			return 0, nil, err
		}
		defer cl.Close()
		// Let the probe discover multihoming first.
		for i := 0; i < 20 && !cl.Multihomed(); i++ {
			if err := cl.ProbeASN(context.Background()); err != nil {
				return 0, nil, fmt.Errorf("ablation: ASN probe: %w", err)
			}
		}
		dist = metrics.NewDistribution()
		for r := 0; r < accesses; r++ {
			res := cl.FetchURL(context.Background(), worldgen.YouTubeHost+"/")
			if res.Err == nil {
				dist.AddDuration(res.Took)
			}
			w.Clock.Sleep(10 * 1e9)
		}
		cl.WaitIdle()
		return cl.Counter("churn-unblocked-to-blocked"), dist, nil
	}

	churnOn, distOn, err := run("mh-adapt", false)
	if err != nil {
		return nil, err
	}
	churnOff, distOff, err := run("mh-noadapt", true)
	if err != nil {
		return nil, err
	}

	res := &Result{ID: "ablation-multihoming", Title: fmt.Sprintf("Multihomed client, %d accesses to a URL one provider blocks", accesses)}
	tbl := metrics.Table{Headers: []string{"configuration", "oscillations (re-detections)", "median fetch (s)", "p90 fetch (s)"}}
	tbl.AddRow("adaptation on", fmt.Sprintf("%d", churnOn), fmt.Sprintf("%.2f", distOn.Median()), fmt.Sprintf("%.2f", distOn.Percentile(90)))
	tbl.AddRow("adaptation off", fmt.Sprintf("%d", churnOff), fmt.Sprintf("%.2f", distOff.Median()), fmt.Sprintf("%.2f", distOff.Percentile(90)))
	res.Text = tbl.String()
	res.Metric("oscillations.on", float64(churnOn))
	res.Metric("oscillations.off", float64(churnOff))
	res.Metric("p90_s.on", distOn.Percentile(90))
	res.Metric("p90_s.off", distOff.Percentile(90))
	res.Note("with adaptation, the merged (stricter) blocking view keeps the client on a working fix instead of re-detecting")
	return res, nil
}

// AblationExplore compares exploration cadences: without the every-n-th
// random pick the client can never notice an approach improving.
func AblationExplore(o Options) (*Result, error) {
	w, err := o.world(400)
	if err != nil {
		return nil, err
	}
	if err := w.StandardSites(); err != nil {
		return nil, err
	}
	ytIP := w.Registry.Lookup(worldgen.YouTubeHost)[0]
	isp, err := w.AddISP(20300, "ISP-AB4", &censor.Policy{
		IP: map[string]censor.IPAction{ytIP: censor.IPReset},
	})
	if err != nil {
		return nil, err
	}
	accesses := o.runs(30)

	run := func(name string, every int) (explored int, sources map[string]int, err error) {
		cl, err := newClient(w, isp, name, o.seed()+int64(every), func(cfg *core.Config) {
			var relays []*core.Approach
			for _, a := range cfg.Approaches {
				if a.Kind == core.KindRelay {
					relays = append(relays, a)
				}
			}
			cfg.Approaches = relays
			cfg.ExploreEvery = every
		})
		if err != nil {
			return 0, nil, err
		}
		defer cl.Close()
		sources = map[string]int{}
		for r := 0; r < accesses; r++ {
			res := cl.FetchURL(context.Background(), worldgen.YouTubeHost+"/")
			if res.Err != nil {
				return 0, nil, fmt.Errorf("explore ablation %s run %d: %w", name, r, res.Err)
			}
			sources[res.Source]++
		}
		cl.WaitIdle()
		return cl.Counter("explore"), sources, nil
	}

	explOn, srcOn, err := run("ab4-explore", 5)
	if err != nil {
		return nil, err
	}
	explOff, srcOff, err := run("ab4-noexplore", 1<<30)
	if err != nil {
		return nil, err
	}

	res := &Result{ID: "ablation-explore", Title: fmt.Sprintf("Exploration cadence over %d accesses to a blocked URL", accesses)}
	tbl := metrics.Table{Headers: []string{"configuration", "explorations", "distinct approaches used"}}
	tbl.AddRow("n = 5 (paper)", fmt.Sprintf("%d", explOn), fmt.Sprintf("%d", len(srcOn)))
	tbl.AddRow("exploration off", fmt.Sprintf("%d", explOff), fmt.Sprintf("%d", len(srcOff)))
	res.Text = tbl.String()
	res.Metric("explorations.on", float64(explOn))
	res.Metric("explorations.off", float64(explOff))
	res.Metric("distinct.on", float64(len(srcOn)))
	res.Metric("distinct.off", float64(len(srcOff)))
	res.Note("with n=5 the client keeps sampling alternate relays (catching approaches whose PLT improves); without it the first EWMA winner is sticky")
	return res, nil
}

// AblationFingerprint measures the censor-observable signature the §8
// discussion worries about: how many direct-path requests the censor sees
// per page load, for a plain browser, a C-Saw client with selective
// redundancy (the shipped behaviour), and an always-redundant ablation.
// Selective redundancy keeps C-Saw's direct-path footprint at one request
// per object after the first visit — indistinguishable from a browser.
func AblationFingerprint(o Options) (*Result, error) {
	w, err := o.world(500)
	if err != nil {
		return nil, err
	}
	if err := w.StandardSites(); err != nil {
		return nil, err
	}
	// The censor inspects port 80 (it has an HTTP rule for an unrelated
	// host) but does not block the measured site.
	isp, err := w.AddISP(20400, "ISP-FP", &censor.Policy{
		HTTP: []censor.HTTPRule{{Host: "unrelated.example", Action: censor.HTTPReset}},
	})
	if err != nil {
		return nil, err
	}
	loads := o.runs(10)

	observe := func(name string, mutate func(*core.Config), warm bool) (float64, error) {
		cl, err := newClient(w, isp, name, o.seed(), mutate)
		if err != nil {
			return 0, err
		}
		defer cl.Close()
		if warm {
			pr := (&web.Browser{Transport: cl, ClockSrc: w.Clock}).Load(context.Background(), worldgen.SmallHost, "/")
			if pr.Err != nil {
				return 0, pr.Err
			}
			cl.WaitIdle()
		}
		before := isp.Censor.Stats.Get("http-pass")
		for r := 0; r < loads; r++ {
			pr := (&web.Browser{Transport: cl, ClockSrc: w.Clock}).Load(context.Background(), worldgen.SmallHost, "/")
			if pr.Err != nil {
				return 0, pr.Err
			}
		}
		cl.WaitIdle()
		return float64(isp.Censor.Stats.Get("http-pass")-before) / float64(loads), nil
	}

	// Baseline: a plain browser (no C-Saw), same page, same censor.
	plainHost := w.NewClientHost("fp-plain", isp)
	ldns, gdns := w.Resolvers(plainHost)
	tr := &web.Transport{
		Label:  "plain",
		Dialer: plainHost.Dial,
		Lookup: core.CombinedLookup(ldns, gdns),
		Clock:  w.Clock,
	}
	before := isp.Censor.Stats.Get("http-pass")
	for r := 0; r < loads; r++ {
		pr := web.NewBrowser(tr).Load(context.Background(), worldgen.SmallHost, "/")
		if pr.Err != nil {
			return nil, pr.Err
		}
	}
	plainRate := float64(isp.Censor.Stats.Get("http-pass")-before) / float64(loads)

	selective, err := observe("fp-selective", func(cfg *core.Config) { torOnly(cfg) }, true)
	if err != nil {
		return nil, err
	}
	always, err := observe("fp-always", func(cfg *core.Config) {
		torOnly(cfg)
		cfg.NoSelectiveRedundancy = true
		cfg.TTL = 1
	}, false)
	if err != nil {
		return nil, err
	}

	res := &Result{ID: "ablation-fingerprint", Title: fmt.Sprintf("Censor-visible direct-path requests per page load (%d loads)", loads)}
	tbl := metrics.Table{Headers: []string{"client", "direct requests seen per load"}}
	tbl.AddRow("plain browser", fmt.Sprintf("%.1f", plainRate))
	tbl.AddRow("C-Saw (selective redundancy)", fmt.Sprintf("%.1f", selective))
	tbl.AddRow("C-Saw (always redundant)", fmt.Sprintf("%.1f", always))
	res.Text = tbl.String()
	res.Metric("per_load.plain", plainRate)
	res.Metric("per_load.selective", selective)
	res.Metric("per_load.always", always)
	res.Note("all three are indistinguishable on the direct path: C-Saw's redundant copy rides the circumvention path (different route, often different source IP), so the censor sees exactly one request per object either way — quantifying §8's argument that redundant requests are hard to fingerprint on-path")
	return res, nil
}
