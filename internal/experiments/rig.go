package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"csaw/internal/censor"
	"csaw/internal/core"
	"csaw/internal/globaldb"
	"csaw/internal/metrics"
	"csaw/internal/netem"
	"csaw/internal/trace"
	"csaw/internal/web"
	"csaw/internal/worldgen"
)

// scenario is what an experiment declares about its world; the rig builds it.
type scenario struct {
	// scale is the virtual clock scale when Options.Scale leaves it open.
	scale float64
	// world carries the worldgen options beyond scale and seed (bandwidth,
	// global-DB replicas).
	world worldgen.Options
	// sites populates the world's origins with a shared set (standardSites,
	// caseStudy); it runs before the ISP rows, so their policies can name
	// what it registered. An experiment with its own catalogue builds it in
	// its body.
	sites func(*rig) error
	// isps are the censoring providers, created in order after sites.
	isps []ispRow
	// traced hands the rig's clients the Options.Trace flight recorder.
	traced bool
}

// ispRow is one provider the way the censorship studies tabulate them: the
// AS, its name, and the mechanisms it enforces. An IP rule may name a site
// instead of an address; the rig resolves it to the site's origin when the
// ISP is created.
type ispRow struct {
	asn    int
	name   string
	policy *censor.Policy
}

func standardSites(r *rig) error { return r.w.StandardSites() }

// caseStudy is the §2.3 world: the standard sites behind Table 1's ISP-A
// (isps[0]) and ISP-B (isps[1]).
func caseStudy(r *rig) error {
	ispA, ispB, err := r.w.CaseStudy()
	r.isps = append(r.isps, ispA, ispB)
	return err
}

// rig is one experiment's world, what was built in it, and what went wrong
// in it. Its builders and measurements do not return errors: a failure is
// recorded as a broken claim and the value returned stays usable, so a body
// reads as the scenario it runs and the experiment fails as a whole, with
// every broken claim listed, when it ends.
type rig struct {
	o      Options
	seed   int64 // Options.Seed, 1 when left open; clients and RNGs offset from it
	w      *worldgen.World
	isps   []*worldgen.ISP
	tracer *trace.Tracer // nil unless the scenario is traced and Options.Trace is set

	mu      sync.Mutex // Table 7's users build clients and break claims concurrently
	clients []*core.Client
	broken  []error
}

// experiment declares a runner: its ID, the world it runs in, and the logic
// unique to it. The body returns the report; it is discarded, and the broken
// claims returned instead, if any claim broke on the way (a body that cannot
// go on returns nil after breaking one).
func experiment(id string, sc scenario, body func(*rig) *Result) func(Options) (*Result, error) {
	return func(o Options) (*Result, error) {
		r := &rig{o: o, seed: o.Seed}
		if r.seed == 0 {
			r.seed = 1
		}
		opts := sc.world
		opts.Scale, opts.Seed = o.Scale, r.seed
		if opts.Scale <= 0 {
			opts.Scale = sc.scale
		}
		w, err := worldgen.New(opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		r.w = w
		defer r.close()
		if sc.traced && o.Trace != nil {
			r.tracer = o.Trace(w.Clock)
		}
		if sc.sites != nil {
			if err := sc.sites(r); err != nil {
				return nil, fmt.Errorf("%s: %w", id, err)
			}
		}
		for _, row := range sc.isps {
			r.addISP(row)
		}
		res := body(r)
		if len(r.broken) > 0 {
			return nil, fmt.Errorf("%s: %w", id, errors.Join(r.broken...))
		}
		res.ID = id
		return res, nil
	}
}

// close stops every client the rig built, then the world's servers; clients
// a body already closed are unaffected.
func (r *rig) close() {
	for _, cl := range r.clients {
		cl.Close()
	}
	r.w.Close()
}

// hold records a broken claim unless ok, and returns ok.
func (r *rig) hold(ok bool, format string, args ...any) bool {
	if !ok {
		r.mu.Lock()
		r.broken = append(r.broken, fmt.Errorf(format, args...))
		r.mu.Unlock()
	}
	return ok
}

// ok is hold for a step that must not fail: the claim names the step and
// wraps err.
func (r *rig) ok(err error, format string, args ...any) bool {
	return r.hold(err == nil, format+": %w", append(args, err)...)
}

// runs is the per-series sample count: Options.Runs, or the paper's def.
func (r *rig) runs(def int) int {
	if r.o.Runs > 0 {
		return r.o.Runs
	}
	return def
}

// addISP creates a provider after the scenario's rows — for experiments that
// interleave ISPs with the clients behind them. Adding an AS and a resolver
// to an emulated network fails only on a bug.
func (r *rig) addISP(row ispRow) *worldgen.ISP {
	p := row.policy
	if p != nil && len(p.IP) > 0 {
		resolved := *p
		resolved.IP = make(map[string]censor.IPAction, len(p.IP))
		for target, action := range p.IP {
			if ips := r.w.Registry.Lookup(target); len(ips) > 0 {
				target = ips[0]
			}
			resolved.IP[target] = action
		}
		p = &resolved
	}
	isp, err := r.w.AddISP(row.asn, row.name, p)
	if err != nil {
		panic(err)
	}
	r.isps = append(r.isps, isp)
	return isp
}

// host adds a client machine behind the given ISPs (none = isps[0]).
func (r *rig) host(name string, isps ...*worldgen.ISP) *netem.Host {
	if len(isps) == 0 {
		isps = r.isps[:1]
	}
	return r.w.NewClientHost(name, isps...)
}

// client builds a C-Saw client on a new host, seeded r.seed+seed, from the
// world's full configuration with cfg applied. A synced client keeps its
// global-DB wiring and is started; an unsynced one has no global DB and no
// ASN probe loop (cfg can put the probe address back). The rig closes it.
func (r *rig) client(name string, seed int64, synced bool, cfg func(*core.Config), isps ...*worldgen.ISP) *core.Client {
	c := r.w.ClientConfig(r.host(name, isps...), r.seed+seed)
	if !synced {
		c.GlobalDB = nil
		c.ASNProbeAddr = ""
	}
	c.Trace = r.tracer
	if cfg != nil {
		cfg(&c)
	}
	cl, err := core.New(c)
	if err != nil {
		panic(err) // the world's own configuration is incomplete: a bug
	}
	r.mu.Lock()
	r.clients = append(r.clients, cl)
	r.mu.Unlock()
	if synced {
		r.ok(cl.Start(context.Background()), "%s start", name)
	}
	return cl
}

// reporter registers a bare global-DB client on a new host — the crowd
// members that only seed or read the DB. Reports go over the direct path.
func (r *rig) reporter(name, token string, timeout time.Duration, isp *worldgen.ISP) *globaldb.Client {
	host := r.host(name, isp)
	c := r.w.GlobalDBClient(host, host.Dial, timeout)
	r.ok(c.Register(context.Background(), token), "%s register", name)
	return c
}

// advanceTo jumps the quiescent world's clock forward to t.
func (r *rig) advanceTo(t time.Time) {
	if d := t.Sub(r.w.Clock.Now()); d > 0 {
		r.w.Clock.Advance(d)
	}
}

// torOnly strips a config down to the Tor approach — several §7.1
// experiments use Tor as the only circumvention path.
func torOnly(cfg *core.Config) {
	keepApproaches(cfg, func(a *core.Approach) bool { return a.Name == "tor" })
}

func keepApproaches(cfg *core.Config, keep func(*core.Approach) bool) {
	var kept []*core.Approach
	for _, a := range cfg.Approaches {
		if keep(a) {
			kept = append(kept, a)
		}
	}
	cfg.Approaches = kept
}

// failPolicy is what a series does about a load that fails.
type failPolicy int

const (
	// failAny: every load must succeed; the series stops at the first that
	// does not.
	failAny failPolicy = iota
	// failFirst: a series whose first load fails is broken; a later failure
	// counts at the PLT it burned (the transport's timeout).
	failFirst
	// tolerateHalf: failed loads are dropped, and at least half must succeed.
	tolerateHalf
)

// pacing spaces a series' loads in virtual time.
type pacing struct {
	// think is slept after every load.
	think time.Duration
	// arrivals, when set, starts the loads concurrently at inter-arrival
	// times drawn from it, uniform in [1 s, 5 s] (Figure 5b/c).
	arrivals *rand.Rand
}

// load is one page load of host's front page through f: the PLT, and the
// page's error if the base document did not arrive.
func (r *rig) load(f web.Fetcher, host string) (time.Duration, error) {
	pr := (&web.Browser{Transport: f, ClockSrc: r.w.Clock}).Load(context.Background(), host, "/")
	return pr.PLT, pr.Err
}

// page is load as a loads operation.
func (r *rig) page(f web.Fetcher, host string) func() (time.Duration, error) {
	return func() (time.Duration, error) { return r.load(f, host) }
}

// loads runs op n times under a pacing and a failure policy and returns the
// distribution of its durations. It is the one place a load's error becomes
// an experiment's: the claim it breaks wraps the error op returned.
func (r *rig) loads(label string, n int, pace pacing, fail failPolicy, op func() (time.Duration, error)) *metrics.Distribution {
	dist := metrics.NewDistribution()
	errs := make([]error, n)
	one := func(i int) {
		took, err := op()
		if errs[i] = err; err == nil || fail == failFirst {
			dist.AddDuration(took)
		}
	}
	fatal := func(i int) bool { return errs[i] != nil && (fail == failAny || fail == failFirst && i == 0) }
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if pace.arrivals != nil {
			r.w.Clock.Sleep(time.Second + time.Duration(pace.arrivals.Float64()*4*float64(time.Second)))
			wg.Add(1)
			go func() {
				defer wg.Done()
				one(i)
			}()
			continue
		}
		if one(i); fatal(i) {
			break
		}
		if pace.think > 0 {
			r.w.Clock.Sleep(pace.think)
		}
	}
	wg.Wait()
	for i := range errs {
		if fatal(i) {
			r.ok(errs[i], "%s: load %d of %d", label, i+1, n)
			return dist
		}
	}
	r.hold(fail != tolerateHalf || dist.N() >= n/2, "%s: only %d of %d loads succeeded: %w", label, dist.N(), n, errors.Join(errs...))
	return dist
}

// series is one row of a PLT comparison: who loads the page, and how the
// loads are warmed, paced and policed. The fetcher is either a C-Saw client
// the driver builds behind isps[0] (client names its host) or a raw
// transport.
type series struct {
	name string // row label
	key  string // metric-key suffix; "" = name

	client string             // host name of the C-Saw client; "" = raw
	seed   int64              // client seed offset
	synced bool               // see rig.client
	cfg    func(*core.Config) // client config mutation
	raw    web.Fetcher

	warm bool // client series: one unrecorded load first, then let the client settle
	pace pacing
	fail failPolicy

	cl *core.Client // out: the client the driver built (closed), for its counters
}

// curve is a measured series.
type curve struct {
	name, key string
	dist      *metrics.Distribution
}

// measure runs each series in order, runs loads of host's front page each,
// and returns one curve per series.
func (r *rig) measure(host string, runs int, list []series) []curve {
	var out []curve
	for i := range list {
		s := &list[i]
		f := s.raw
		if s.client != "" {
			s.cl = r.client(s.client, s.seed, s.synced, s.cfg)
			f = s.cl
		}
		if s.warm {
			r.loads(s.name+" warm-up", 1, pacing{}, failAny, r.page(f, host))
			s.cl.WaitIdle()
		}
		dist := r.loads(s.name, runs, s.pace, s.fail, r.page(f, host))
		if s.cl != nil {
			s.cl.Close()
		}
		key := s.key
		if key == "" {
			key = s.name
		}
		out = append(out, curve{s.name, key, dist})
	}
	return out
}

// cdfs renders the curves as the report's CDF summary and records each
// median (and 95th percentile, for the experiments about tails) as a metric.
func cdfs(res *Result, title string, p95 bool, curves []curve) {
	var ss []metrics.Series
	for _, c := range curves {
		ss = append(ss, metrics.Series{Name: c.name, Dist: c.dist})
		res.Metric("median_plt_s."+c.key, c.dist.Median())
		if p95 {
			res.Metric("p95_plt_s."+c.key, c.dist.Percentile(95))
		}
	}
	res.Text = metrics.SummarizeCDFs(title, ss)
}
