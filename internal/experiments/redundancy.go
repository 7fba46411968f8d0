package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"csaw/internal/censor"
	"csaw/internal/core"
	"csaw/internal/globaldb"
	"csaw/internal/localdb"
	"csaw/internal/metrics"
	"csaw/internal/netem"
	"csaw/internal/tor"
	"csaw/internal/web"
	"csaw/internal/worldgen"
)

// torOnly strips a config down to the Tor approach — several §7.1
// experiments use Tor as the only circumvention path.
func torOnly(cfg *core.Config) {
	var kept []*core.Approach
	for _, a := range cfg.Approaches {
		if a.Name == "tor" {
			kept = append(kept, a)
		}
	}
	cfg.Approaches = kept
}

// newClient builds and starts-less a client (no global DB) from a world.
func newClient(w *worldgen.World, isp *worldgen.ISP, name string, seed int64, mutate func(*core.Config)) (*core.Client, error) {
	host := w.NewClientHost(name, isp)
	cfg := w.ClientConfig(host, seed)
	cfg.GlobalDB = nil
	cfg.ASNProbeAddr = ""
	if mutate != nil {
		mutate(&cfg)
	}
	return core.New(cfg)
}

// Figure5a compares the serial approach (detect on the direct path, then
// fetch via Tor) against the parallel approach (redundant requests, serve
// the faster response) for pages behind different blocking mechanisms —
// the paper reports 45.8–64.1% PLT reduction.
func Figure5a(o Options) (*Result, error) {
	w, err := o.world(500)
	if err != nil {
		return nil, err
	}
	if err := w.StandardSites(); err != nil {
		return nil, err
	}
	runs := o.runs(5)
	ytIP := w.Registry.Lookup(worldgen.YouTubeHost)[0]

	blockings := []struct {
		name   string
		policy *censor.Policy
	}{
		{"TCP/IP", &censor.Policy{IP: map[string]censor.IPAction{ytIP: censor.IPDrop}}},
		{"DNS SERVER FAIL", &censor.Policy{DNS: map[string]censor.DNSAction{"youtube.com": censor.DNSServFail}}},
		{"DNS NXDOMAIN + TCP/IP", &censor.Policy{
			DNS: map[string]censor.DNSAction{"youtube.com": censor.DNSNXDomain},
			IP:  map[string]censor.IPAction{ytIP: censor.IPDrop},
		}},
		{"BlockPage", &censor.Policy{HTTP: []censor.HTTPRule{{Host: "youtube.com", Action: censor.HTTPBlockPage}}}},
	}

	res := &Result{ID: "figure5a", Title: fmt.Sprintf("Serial vs parallel redundancy on blocked pages (%d runs each)", runs)}
	tbl := metrics.Table{Headers: []string{"Blocking type", "serial PLT (s)", "parallel PLT (s)", "reduction"}}
	var minRed, maxRed float64 = 1, 0
	for i, blk := range blockings {
		isp, err := w.AddISP(18000+i, fmt.Sprintf("ISP-5a-%d", i), blk.policy)
		if err != nil {
			return nil, err
		}
		measure := func(serial bool, seq int) (float64, error) {
			dist := metrics.NewDistribution()
			for r := 0; r < runs; r++ {
				// Fresh client per run so every load pays full detection.
				cl, err := newClient(w, isp, fmt.Sprintf("c5a-%d-%v-%d", i, serial, r), o.seed()+int64(seq*100+r), func(cfg *core.Config) {
					torOnly(cfg)
					cfg.Serial = serial
				})
				if err != nil {
					return 0, err
				}
				b := &web.Browser{Transport: cl, ClockSrc: w.Clock}
				pr := b.Load(context.Background(), worldgen.YouTubeHost, "/")
				cl.Close()
				if pr.Err != nil {
					return 0, fmt.Errorf("figure5a %s serial=%v: %w", blk.name, serial, pr.Err)
				}
				dist.AddDuration(pr.PLT)
			}
			return dist.Mean(), nil
		}
		serialPLT, err := measure(true, i*2)
		if err != nil {
			return nil, err
		}
		parallelPLT, err := measure(false, i*2+1)
		if err != nil {
			return nil, err
		}
		red := 1 - parallelPLT/serialPLT
		minRed = min(minRed, red)
		maxRed = max(maxRed, red)
		tbl.AddRow(blk.name, fmt.Sprintf("%.2f", serialPLT), fmt.Sprintf("%.2f", parallelPLT), fmt.Sprintf("%.0f%%", red*100))
		res.Metric("serial_plt_s."+blk.name, serialPLT)
		res.Metric("parallel_plt_s."+blk.name, parallelPLT)
		res.Metric("reduction."+blk.name, red)
	}
	res.Metric("reduction.min", minRed)
	res.Metric("reduction.max", maxRed)
	res.Text = tbl.String()
	res.Note("paper: 45.8%%–64.1%% PLT reduction from the parallel approach")
	return res, nil
}

// figure5Load drives the Figure-5b/c workload: requests for an unblocked
// page with uniformly distributed inter-arrival times in [1s, 5s], under
// three redundancy modes, against one shared client (shared connection
// budget — the load coupling the figure is about).
func figure5Load(o Options, host string, id, title string) (*Result, error) {
	w, err := o.world(500)
	if err != nil {
		return nil, err
	}
	if err := w.StandardSites(); err != nil {
		return nil, err
	}
	isp, err := w.AddISP(18100, "ISP-5bc", nil)
	if err != nil {
		return nil, err
	}
	runs := o.runs(100)

	modes := []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"1 copy", func(cfg *core.Config) { torOnly(cfg); cfg.Serial = true }},
		{"2 copies", func(cfg *core.Config) { torOnly(cfg) }},
		{"2 copies (with delay)", func(cfg *core.Config) { torOnly(cfg); cfg.RedundantDelay = 2 * time.Second }},
	}
	res := &Result{ID: id, Title: fmt.Sprintf("%s (%d requests, inter-arrival U[1s,5s])", title, runs)}
	var series []metrics.Series
	for mi, mode := range modes {
		cl, err := newClient(w, isp, fmt.Sprintf("c-%s-%d", id, mi), o.seed()+int64(mi), func(cfg *core.Config) {
			mode.mutate(cfg)
			// Expire records immediately: every request exercises the
			// not-measured (redundant) path, isolating redundancy cost.
			cfg.TTL = time.Millisecond
		})
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(o.seed() + int64(mi)*31))
		dist := metrics.NewDistribution()
		var wg sync.WaitGroup
		var mu sync.Mutex
		for r := 0; r < runs; r++ {
			// Uniform [1s, 5s] virtual inter-arrival.
			w.Clock.Sleep(time.Second + time.Duration(rng.Float64()*4*float64(time.Second)))
			wg.Add(1)
			go func() {
				defer wg.Done()
				b := &web.Browser{Transport: cl, ClockSrc: w.Clock}
				pr := b.Load(context.Background(), host, "/")
				if pr.Err == nil {
					mu.Lock()
					dist.AddDuration(pr.PLT)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		cl.Close()
		if dist.N() < runs/2 {
			return nil, fmt.Errorf("%s mode %q: only %d/%d loads succeeded", id, mode.name, dist.N(), runs)
		}
		series = append(series, metrics.Series{Name: mode.name, Dist: dist})
		res.Metric("median_plt_s."+mode.name, dist.Median())
		res.Metric("p95_plt_s."+mode.name, dist.Percentile(95))
	}
	res.Text = metrics.SummarizeCDFs("PLT by redundancy mode", series)
	res.Note("paper shape: the delayed copy tracks '1 copy' at the median; naive duplication costs more on larger pages")
	return res, nil
}

// Figure5b is the small (95 KB) unblocked page workload.
func Figure5b(o Options) (*Result, error) {
	return figure5Load(o, worldgen.SmallHost, "figure5b", "Redundancy on a small unblocked page (95 KB)")
}

// Figure5c is the larger (316 KB) unblocked page workload.
func Figure5c(o Options) (*Result, error) {
	return figure5Load(o, worldgen.LargeHost, "figure5c", "Redundancy on a larger unblocked page (316 KB)")
}

// Figure6a sends one, two, and three duplicate requests for an uncensored
// page over separate Tor circuits and reports the minimum-PLT distribution:
// two copies cut the median ~30%; a third only fattens the tail.
func Figure6a(o Options) (*Result, error) {
	w, err := o.world(500)
	if err != nil {
		return nil, err
	}
	if err := w.StandardSites(); err != nil {
		return nil, err
	}
	isp, err := w.AddISP(18200, "ISP-6a", nil)
	if err != nil {
		return nil, err
	}
	client := w.NewClientHost("c6a", isp)
	tc := tor.NewClient(client, w.TorDir, o.seed()+17)
	runs := o.runs(60)

	// The client machine budget shared by all duplicates.
	slots := make(chan struct{}, 6)

	res := &Result{ID: "figure6a", Title: fmt.Sprintf("Redundant requests over separate Tor circuits (%d runs)", runs)}
	var series []metrics.Series
	for _, k := range []int{1, 2, 3} {
		dist := metrics.NewDistribution()
		for r := 0; r < runs; r++ {
			plts := make(chan time.Duration, k)
			var wg sync.WaitGroup
			for i := 0; i < k; i++ {
				circ, err := tc.NewCircuit()
				if err != nil {
					return nil, err
				}
				tr := &web.Transport{
					Label: fmt.Sprintf("tor-copy-%d", i),
					Dialer: netem.LimitDial(func(ctx context.Context, addr string) (net.Conn, error) {
						return tc.DialVia(ctx, circ, addr)
					}, slots),
					Clock: w.Clock,
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					pr := web.NewBrowser(tr).Load(context.Background(), worldgen.SmallHost, "/")
					if pr.Err == nil {
						plts <- pr.PLT
					}
				}()
			}
			wg.Wait()
			close(plts)
			best := time.Duration(0)
			for p := range plts {
				if best == 0 || p < best {
					best = p
				}
			}
			if best > 0 {
				dist.AddDuration(best)
			}
		}
		series = append(series, metrics.Series{Name: fmt.Sprintf("%d RReq.", k), Dist: dist})
		res.Metric(fmt.Sprintf("median_plt_s.%dcopies", k), dist.Median())
		res.Metric(fmt.Sprintf("p95_plt_s.%dcopies", k), dist.Percentile(95))
	}
	m1 := res.Metrics["median_plt_s.1copies"]
	m2 := res.Metrics["median_plt_s.2copies"]
	res.Metric("median_improvement_2_over_1", 1-m2/m1)
	res.Text = metrics.SummarizeCDFs("min-PLT across duplicates", series)
	res.Note("paper: 1→2 copies improves the median ~30%%; a third copy does not help the median and inflates p95")
	return res, nil
}

// Table6 sweeps the direct re-measurement probability p for a
// globally-reported blocked page served via Tor, reporting median PLT —
// the overhead-vs-resilience tradeoff of §4.3.1.
func Table6(o Options) (*Result, error) {
	w, err := o.world(500)
	if err != nil {
		return nil, err
	}
	if err := w.StandardSites(); err != nil {
		return nil, err
	}
	ytIP := w.Registry.Lookup(worldgen.YouTubeHost)[0]
	isp, err := w.AddISP(18300, "ISP-T6", &censor.Policy{
		DNS: map[string]censor.DNSAction{"youtube.com": censor.DNSDrop},
		IP:  map[string]censor.IPAction{ytIP: censor.IPDrop},
	})
	if err != nil {
		return nil, err
	}

	// Seed the global DB: an auxiliary reporter posts the blocked URL.
	reporterHost := w.NewClientHost("t6-reporter", isp)
	rep := &globaldb.Client{
		Endpoints: w.GlobalDBEndpoints, Host: worldgen.GlobalDBHost,
		Clock: w.Clock, ReportDial: reporterHost.Dial, FetchDial: reporterHost.Dial,
	}
	if err := rep.Register(context.Background(), "human-reporter"); err != nil {
		return nil, err
	}
	if _, err := rep.Report(context.Background(), []localdb.Record{{
		URL: worldgen.YouTubeHost + "/", ASN: isp.AS.Number, Status: localdb.Blocked,
		Stages: []localdb.Stage{{Type: localdb.BlockDNS, Detail: "no-response"}},
	}}); err != nil {
		return nil, err
	}

	runs := o.runs(20)
	res := &Result{ID: "table6", Title: fmt.Sprintf("Median PLT vs p (%d page loads per p, Tor circumvention)", runs)}
	tbl := metrics.Table{Headers: []string{"p", "median PLT (s)", "paper (s)"}}
	paper := map[string]string{"0.00": "5.6", "0.25": "6.9", "0.50": "7.5", "0.75": "8.1"}
	var medians []float64
	for pi, p := range []float64{0, 0.25, 0.5, 0.75} {
		host := w.NewClientHost(fmt.Sprintf("t6-client-%d", pi), isp)
		cfg := w.ClientConfig(host, o.seed()+int64(pi)*7)
		torOnly(&cfg)
		cfg.P, cfg.PSet = p, true
		cfg.MaxConns = 6
		// Keep the URL's status sourced from the global DB on every access
		// (local records would otherwise absorb the p-roll after the first
		// re-measurement and hide the steady-state cost being measured).
		cfg.TTL = time.Millisecond
		cl, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		if err := cl.Start(context.Background()); err != nil {
			return nil, err
		}
		dist := metrics.NewDistribution()
		for r := 0; r < runs; r++ {
			b := &web.Browser{Transport: cl, ClockSrc: w.Clock}
			pr := b.Load(context.Background(), worldgen.YouTubeHost, "/")
			if pr.Err != nil {
				return nil, fmt.Errorf("table6 p=%.2f run %d: %w", p, r, pr.Err)
			}
			dist.AddDuration(pr.PLT)
			w.Clock.Sleep(2 * time.Second) // think time between accesses
		}
		cl.Close()
		key := fmt.Sprintf("%.2f", p)
		tbl.AddRow(key, fmt.Sprintf("%.2f", dist.Median()), paper[key])
		res.Metric("median_plt_s.p="+key, dist.Median())
		medians = append(medians, dist.Median())
	}
	res.Text = tbl.String()
	res.Metric("plt_growth_p75_over_p0", medians[len(medians)-1]/medians[0])
	res.Note("paper shape: median PLT grows monotonically with p; recommend p ≤ 0.25")
	return res, nil
}
