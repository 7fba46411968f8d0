package main

// seams.go is the only file of the benchmark that imports csaw/internal/...
// Every call the harness makes into a layer goes through a function here;
// the symbols it uses are listed in README.md under "frozen seams". Later
// changes may not edit benchmark/, so these are the signatures they must
// keep compiling.

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"sync"
	"time"

	"csaw/internal/blockpage"
	"csaw/internal/censor"
	"csaw/internal/core"
	"csaw/internal/detect"
	"csaw/internal/dnsx"
	"csaw/internal/fleet"
	"csaw/internal/globaldb"
	"csaw/internal/globaldb/storage"
	"csaw/internal/httpx"
	"csaw/internal/lantern"
	"csaw/internal/localdb"
	"csaw/internal/netem"
	"csaw/internal/tlsx"
	"csaw/internal/tor"
	"csaw/internal/trace"
	"csaw/internal/vtime"
	"csaw/internal/web"
	"csaw/internal/worldgen"
)

// --- fleet ---------------------------------------------------------------

// fleetWorld is a built fleet scenario ready to run once.
type fleetWorld struct {
	w    *worldgen.World
	sc   *worldgen.FleetScenario
	plan *fleet.Plan
}

// buildFleet builds the event-clock world, the standard fleet scenario
// (400 sites, 12 ISPs, 15% blocked) and the seeded plan.
func buildFleet(seed int64, population int, sb *spanBuf, parent int64, run int) (*fleetWorld, error) {
	f := &fleetWorld{}
	err := sb.do("worldgen.New", parent, run, func() (err error) {
		f.w, err = worldgen.New(worldgen.Options{EventDriven: true, Seed: seed})
		return err
	})
	if err != nil {
		return nil, err
	}
	err = sb.do("worldgen.BuildFleetScenario", parent, run, func() (err error) {
		f.sc, err = f.w.BuildFleetScenario(400, 12, 0.15)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = sb.do("fleet.BuildPlan", parent, run, func() error {
		f.plan = fleet.BuildPlan(fleet.Workload{Population: population, Seed: seed})
		return nil
	})
	return f, err
}

// plannedFetches is the plan's page-load count: the workload's op count.
func (f *fleetWorld) plannedFetches() int { return f.plan.Fetches }

// fleetOutcome is what one fleet.Run produced, reduced to plain values.
type fleetOutcome struct {
	fetches, fetchErrs int
	syncs, syncErrs    int
	consistent         bool
	summarySHA         string
	peakGoroutines     int
	full, delta, n304  int
	listBytes          int
}

// run executes the plan. tick, when set, is called from the driver's
// sampler with the running fetch count (every virtual minute).
func (f *fleetWorld) run(ctx context.Context, tick func(fetches int)) (fleetOutcome, error) {
	opts := fleet.Options{}
	if tick != nil {
		opts.Progress = func(s fleet.Snapshot) { tick(s.Fetches) }
	}
	res, err := fleet.Run(ctx, f.w, f.sc, f.plan, opts)
	if err != nil {
		return fleetOutcome{}, err
	}
	sum := sha256.Sum256([]byte(res.Summary.Render()))
	ds := res.Measured.DeltaSync()
	return fleetOutcome{
		fetches: res.Measured.Fetches, fetchErrs: res.Measured.FetchErrors,
		syncs: res.Measured.Syncs, syncErrs: res.Measured.SyncErrors,
		consistent:     res.Summary.Consistent(),
		summarySHA:     hex.EncodeToString(sum[:]),
		peakGoroutines: res.Measured.PeakGoroutines,
		full:           ds.FetchFull, delta: ds.FetchDelta, n304: ds.Fetch304,
		listBytes: ds.ListBytes,
	}, nil
}

// --- fetch ladder --------------------------------------------------------

// ladderRungs are the circumvention rungs in the order they are fetched.
// The name is both the approach restricted to and the Result.Source a
// correct fetch reports.
var ladderRungs = []string{
	"direct", "public-dns", "https", "domain-fronting",
	"ip-as-hostname", "proxy", "lantern", "tor",
}

// ladderRung is one serial client restricted to one rung, and the URL that
// rung fixes.
type ladderRung struct {
	name   string
	source string // expected Result.Source
	url    string
	cl     *core.Client
	want   [sha256.Size]byte // reference body digest
	size   int               // reference body length
	seq    int
}

// ladder is the fetch-ladder world: StandardSites behind one ISP that
// blocks only with affirmative signals (HTTP redirect to a block page,
// DNS NXDOMAIN, keyword RST).
type ladder struct {
	w     *worldgen.World
	rungs []*ladderRung
}

const ladderProxy = "proxy-Netherlands"

// buildLadder builds the world and one client per rung, performs the
// warm-up fetch that teaches each client its URL's verdict, and records
// the reference body for each URL from an uncensored vantage. flight, when
// set, attaches the flight recorder to every client.
func buildLadder(seed int64, flight bool, sb *spanBuf, parent int64, run int) (*ladder, error) {
	l := &ladder{}
	err := sb.do("worldgen.New", parent, run, func() (err error) {
		l.w, err = worldgen.New(worldgen.Options{EventDriven: true, Seed: seed})
		return err
	})
	if err != nil {
		return nil, err
	}
	w := l.w
	if err := w.StandardSites(); err != nil {
		return nil, err
	}
	isp, err := w.AddISP(64500, "bench-isp", &censor.Policy{})
	if err != nil {
		return nil, err
	}
	if _, err := w.AddBlockPageHost(isp, "block.bench-isp.pk"); err != nil {
		return nil, err
	}
	isp.Censor.SetPolicy(&censor.Policy{
		Name:         "bench-ladder",
		BlockPageURL: "block.bench-isp.pk/blocked.html",
		DNS:          map[string]censor.DNSAction{worldgen.LargeHost: censor.DNSNXDomain},
		HTTP:         []censor.HTTPRule{{Host: worldgen.SmallHost, Action: censor.HTTPRedirect}},
		Keywords:     []censor.KeywordRule{{Keyword: "hot.example", Action: censor.HTTPReset}},
	})

	var tracer *trace.Tracer
	if flight {
		tracer = trace.New(w.Clock, &trace.CollectSink{})
	}
	// An uncensored vantage for the reference bodies.
	ref := w.Net.MustAddHost("bench-ref", "198.51.100.7", "us", w.Net.AS(900))
	refT := &web.Transport{Label: "ref", Dialer: ref.Dial, Lookup: w.RegistryLookup(), Clock: w.Clock}

	urls := map[string]string{
		"direct":          worldgen.NewsHost + "/",
		"public-dns":      worldgen.LargeHost + "/",
		"https":           worldgen.SmallHost + "/",
		"domain-fronting": worldgen.SmallHost + "/",
		"ip-as-hostname":  worldgen.PornHost + "/",
		"proxy":           worldgen.SmallHost + "/",
		"lantern":         worldgen.SmallHost + "/",
		"tor":             worldgen.SmallHost + "/",
	}
	for i, name := range ladderRungs {
		host := w.NewClientHost("bench-"+name, isp)
		ldns, gdns := w.Resolvers(host)
		r := &ladderRung{name: name, source: name, url: urls[name]}
		var app *core.Approach
		switch name {
		case "direct":
		case "public-dns":
			app = core.PublicDNSFix(host, w.Clock, gdns)
		case "https":
			app = core.HTTPSFix(host, w.Clock, ldns, gdns)
		case "domain-fronting":
			app = core.NewFrontingFix(host, w.Clock, worldgen.FrontHost, worldgen.FrontIP, w.Frontable)
		case "ip-as-hostname":
			app = core.IPAsHostnameFix(host, w.Clock, gdns)
		case "proxy":
			app = core.StaticProxyApproach(ladderProxy, host, w.Clock, w.StaticProxies["Netherlands"])
			r.source = ladderProxy
		case "lantern":
			app = core.LanternApproach(lantern.NewClient(host, w.Lantern, "user"), w.Clock)
		case "tor":
			app = core.TorApproach(tor.NewClient(host, w.TorDir, seed+int64(i)), w.Clock)
		}
		cfg := core.Config{
			Host: host, Clock: w.Clock,
			LDNS: w.LDNSAddrs(host), GDNS: []string{w.PublicDNSAddr},
			Serial: true, Seed: seed + int64(i), Trace: tracer,
		}
		if app != nil {
			cfg.Approaches = []*core.Approach{app}
		}
		err := sb.do("core.New", parent, run, func() (err error) {
			r.cl, err = core.New(cfg)
			return err
		})
		if err != nil {
			return nil, err
		}
		h, p := localdb.SplitURL(r.url)
		resp, err := refT.Fetch(context.Background(), h, p)
		if err != nil {
			return nil, fmt.Errorf("ladder: reference fetch %s: %w", r.url, err)
		}
		r.want, r.size = sha256.Sum256(resp.Body), len(resp.Body)
		l.rungs = append(l.rungs, r)
		// Warm-up: the first fetch measures the direct path and records the
		// verdict; every later fetch goes straight to the rung.
		if _, err := l.fetch(context.Background(), i); err != nil {
			return nil, fmt.Errorf("ladder: warm-up: %w", err)
		}
	}
	return l, nil
}

// fetch performs one FetchURL on rung i and checks it: served by the
// forced rung, with the reference body. It returns the simulated latency.
func (l *ladder) fetch(ctx context.Context, i int) (time.Duration, error) {
	r := l.rungs[i]
	r.seq++
	res := r.cl.FetchURL(ctx, r.url)
	switch {
	case res == nil:
		return 0, fmt.Errorf("%s#%d: nil result", r.name, r.seq)
	case !res.OK():
		return res.Took, fmt.Errorf("%s#%d: %s failed: %v", r.name, r.seq, r.url, res.Err)
	case res.Source != r.source:
		return res.Took, fmt.Errorf("%s#%d: served by %q, want %q", r.name, r.seq, res.Source, r.source)
	case len(res.Resp.Body) != r.size || sha256.Sum256(res.Resp.Body) != r.want:
		return res.Took, fmt.Errorf("%s#%d: body of %d bytes differs from the %d-byte page", r.name, r.seq, len(res.Resp.Body), r.size)
	}
	return res.Took, nil
}

// close stops every rung's client.
func (l *ladder) close() {
	for _, r := range l.rungs {
		r.cl.Close()
	}
}

// --- global DB over its HTTP handler --------------------------------------

// The wire paths and headers of the global-DB API, as the harness speaks
// them.
const (
	dbPathRegister = globaldb.PathRegister
	dbPathReport   = globaldb.PathReport
	dbPathFetch    = globaldb.PathFetch
	dbCaptchaHdr   = globaldb.CaptchaHeader
	dbDeltaHdr     = globaldb.DeltaHeader
)

// dbServer is a durable global-DB server driven through Handler().ServeHTTP
// with no network in between.
type dbServer struct {
	srv   *globaldb.Server
	h     httpx.Handler
	clock *vtime.Clock
}

// openDB opens (or recovers) the durable server in dir. compactEvery is the
// WAL compaction cadence (0 = the server's default).
func openDB(dir string, deltaHistory, compactEvery int) (*dbServer, error) {
	clock := vtime.NewEventDriven()
	srv, err := globaldb.NewDurableServer(clock, nil, globaldb.StoreOptions{Dir: dir, SnapshotEvery: compactEvery})
	if err != nil {
		return nil, err
	}
	if deltaHistory > 0 {
		srv.SetDeltaHistory(deltaHistory)
	}
	return &dbServer{srv: srv, h: srv.Handler(), clock: clock}, nil
}

// dbReply is one API answer reduced to what the harness reads.
type dbReply struct {
	status int
	etag   string
	delta  bool
	body   []byte
}

// call serves one request. srcIP is the flow's source address (the
// registration rate limiter keys on it); inm and captcha set the
// If-None-Match and CAPTCHA headers when non-empty.
func (d *dbServer) call(method, target, srcIP, inm, captcha string, body []byte) dbReply {
	req := httpx.NewRequest(method, worldgen.GlobalDBHost, target)
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	if captcha != "" {
		req.Header.Set(dbCaptchaHdr, captcha)
	}
	req.Body = body
	resp := d.h.ServeHTTP(req, netem.Flow{Src: netem.Addr{IP: srcIP, Port: 40000}})
	if resp == nil {
		return dbReply{}
	}
	return dbReply{
		status: resp.StatusCode,
		etag:   resp.Header.Get("ETag"),
		delta:  resp.Header.Get(dbDeltaHdr) != "",
		body:   resp.Body,
	}
}

// dbEntry is one aggregated blocked-list entry, in harness terms.
type dbEntry struct {
	URL       string
	ASN       int
	Stages    []dbStage
	LastTp    time.Time
	Votes     float64
	Reporters int
}

// dbStage is one blocking stage on the wire.
type dbStage struct {
	Type   int    `json:"type"`
	Detail string `json:"detail,omitempty"`
}

// blocked is the server's aggregated list for an AS.
func (d *dbServer) blocked(asn int) []dbEntry {
	es := d.srv.BlockedForAS(asn)
	out := make([]dbEntry, len(es))
	for i, e := range es {
		st := make([]dbStage, len(e.Stages))
		for j, s := range e.Stages {
			st[j] = dbStage{Type: s.Type, Detail: s.Detail}
		}
		out[i] = dbEntry{URL: e.URL, ASN: e.ASN, Stages: st, LastTp: e.LastTp, Votes: e.Votes, Reporters: e.Reporters}
	}
	return out
}

// dbStats is the server's Table-7 aggregate, in harness terms.
type dbStats struct {
	Users, BlockedURLs, BlockedDomains, ASes, BlockTypes, Updates int
	ByType                                                        map[string]int
}

func (d *dbServer) stats() dbStats {
	s := d.srv.StatsSnapshot()
	return dbStats{
		Users: s.Users, BlockedURLs: s.BlockedURLs, BlockedDomains: s.BlockedDomains,
		ASes: s.ASes, BlockTypes: s.BlockTypes, Updates: s.Updates, ByType: s.ByType,
	}
}

// now is the server clock's (frozen) virtual time: every post lands at it.
func (d *dbServer) now() time.Time { return d.clock.Now() }

// close flushes and closes the WAL, surfacing any latched durability error.
func (d *dbServer) close() error {
	if err := d.srv.DurabilityErr(); err != nil {
		return err
	}
	return d.srv.Close()
}

// urlHost is the host part of a "host/path" URL, as the server's domain
// count sees it.
func urlHost(url string) string {
	h, _ := localdb.SplitURL(url)
	return h
}

// Stage type codes of the report wire format.
const (
	stageDNS  = int(localdb.BlockDNS)
	stageHTTP = int(localdb.BlockHTTP)
)

// --- per-layer fixtures ------------------------------------------------------
//
// Each function below measures one layer through its public functions and
// returns metric name → value. loopCost (layers.go) is the measuring loop;
// n is the iteration count at full size and it(n) scales it for the smoke
// test.

// vtimeLayer: the event clock's two primitives.
func vtimeLayer(it func(int) int) (map[string]float64, error) {
	clock := vtime.NewEventDriven()
	out := map[string]float64{}
	c, err := loopCost(it(2_000_000), nil, func(int) error { clock.Sleep(time.Millisecond); return nil })
	if err != nil {
		return nil, err
	}
	out["vtime.sleep_ns"] = c.ns
	c, err = loopCost(it(500_000), nil, func(int) error {
		stop := clock.AfterFunc(time.Hour, func() {})
		stop()
		return nil
	})
	out["vtime.afterfunc_ns"] = c.ns
	return out, err
}

// worldgenLayer: building the fixed infrastructure and the fleet scenario.
func worldgenLayer(seed int64, it func(int) int) (map[string]float64, error) {
	out := map[string]float64{}
	var w *worldgen.World
	c, err := loopCost(it(5), nil, func(int) (err error) {
		w, err = worldgen.New(worldgen.Options{EventDriven: true, Seed: seed})
		return err
	})
	if err != nil {
		return nil, err
	}
	out["worldgen.new_ms"] = c.ns / 1e6
	// BuildFleetScenario mutates its world, so each iteration gets a new one
	// outside the timed part.
	c, err = loopCost(it(5), func(int) (err error) {
		w, err = worldgen.New(worldgen.Options{EventDriven: true, Seed: seed})
		return err
	}, func(int) error {
		_, err := w.BuildFleetScenario(400, 12, 0.15)
		return err
	})
	out["worldgen.fleet_scenario_ms"] = c.ns / 1e6
	return out, err
}

// planLayer: fleet.BuildPlan at the fleet-10k population.
func planLayer(seed int64, population int, it func(int) int) (map[string]float64, error) {
	c, err := loopCost(it(5), nil, func(int) error {
		if p := fleet.BuildPlan(fleet.Workload{Population: population, Seed: seed}); len(p.Clients) != population {
			return fmt.Errorf("plan has %d clients, want %d", len(p.Clients), population)
		}
		return nil
	})
	return map[string]float64{"fleet.build_plan_ms": c.ns / 1e6}, err
}

// inWorld measures the layers a fetch crosses, inside the ladder's world:
// an uncensored vantage (cloud AS) and a client behind the censoring ISP.
func inWorld(l *ladder, it func(int) int) (map[string]float64, error) {
	w := l.w
	ctx := context.Background()
	out := table{}
	clean := w.Net.MustAddHost("bench-clean", "198.51.100.8", "us", w.Net.AS(900))
	server := w.Net.MustAddHost("bench-sink", "198.51.100.9", "us", w.Net.AS(900))
	isp := w.ISPs["bench-isp"]
	censored := w.NewClientHost("bench-censored", isp)

	// netem: connection set-up and one-link write→read.
	lis, err := server.Listen(7000)
	if err != nil {
		return nil, err
	}
	accepted := make(chan net.Conn, 1)
	var acceptWG sync.WaitGroup
	acceptWG.Add(1)
	go func() {
		defer acceptWG.Done()
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			select {
			case accepted <- c:
			default:
				_ = c.Close() //lint:allow-droperr the dial benchmark only opens and drops connections
			}
		}
	}()
	hold, err := clean.Dial(ctx, server.IP()+":7000")
	if err != nil {
		return nil, err
	}
	peer := <-accepted // later connections find the slot full and are closed
	accepted <- peer
	c, err := loopCost(it(20_000), nil, func(int) error {
		conn, err := clean.Dial(ctx, server.IP()+":7000")
		if err != nil {
			return err
		}
		return conn.Close()
	})
	if err != nil {
		return nil, err
	}
	out.put("netem.dial", c)
	buf := make([]byte, 64<<10)
	hop := func(n int) func(int) error {
		return func(int) error {
			if _, err := hold.Write(buf[:n]); err != nil {
				return err
			}
			_, err := io.ReadFull(peer, buf[:n])
			return err
		}
	}
	c1k, err := loopCost(it(100_000), nil, hop(1<<10))
	if err != nil {
		return nil, err
	}
	c64k, err := loopCost(it(2_000), nil, hop(64<<10))
	if err != nil {
		return nil, err
	}
	out["netem.hop_1k_ns"], out["netem.hop_64k_ns"], out["netem.hop_allocs"] = c1k.ns, c64k.ns, c1k.allocs
	if err := hold.Close(); err != nil {
		return nil, err
	}
	if err := lis.Close(); err != nil {
		return nil, err
	}
	acceptWG.Wait()

	// dnsx: the codec, and one lookup against the public resolver.
	q := dnsx.NewQuery(42, worldgen.YouTubeHost)
	c, err = loopCost(it(200_000), nil, func(int) error { _, err := q.Marshal(); return err })
	if err != nil {
		return nil, err
	}
	out.put("dnsx.marshal", c)
	raw, err := q.Reply().AnswerA(worldgen.YouTubeHost, "203.0.113.1", 300).AnswerA(worldgen.YouTubeHost, "203.0.113.2", 300).Marshal()
	if err != nil {
		return nil, err
	}
	c, err = loopCost(it(50_000), nil, func(int) error { _, err := dnsx.Unmarshal(raw); return err })
	if err != nil {
		return nil, err
	}
	out.put("dnsx.unmarshal", c)
	stub := dnsx.NewClient(clean, w.PublicDNSAddr)
	c, err = loopCost(it(5_000), nil, func(int) error {
		if res := stub.Lookup(ctx, worldgen.NewsHost); !res.OK() {
			return fmt.Errorf("lookup %s: %v", worldgen.NewsHost, res.Err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.put("dnsx.lookup", c)

	// censor: rule matching at the fleet scenario's policy size, and an HTTP
	// GET across the censored AS — passed through vs answered by the censor.
	pol := &censor.Policy{DNS: map[string]censor.DNSAction{}}
	for i := 0; i < 40; i++ {
		pol.HTTP = append(pol.HTTP, censor.HTTPRule{Host: worldgen.FleetSiteHost(i), Action: censor.HTTPBlockPage})
	}
	c, err = loopCost(it(50_000), nil, func(int) error {
		if pol.HTTPActionFor(worldgen.NewsHost, "/") != censor.HTTPClean {
			return fmt.Errorf("policy matched a host it does not list")
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["censor.policy_match_ns"] = c.ns
	ipOf := func(host string) (string, error) { return w.RegistryLookup()(ctx, host) }
	newsIP, err := ipOf(worldgen.NewsHost)
	if err != nil {
		return nil, err
	}
	smallIP, err := ipOf(worldgen.SmallHost)
	if err != nil {
		return nil, err
	}
	get := func(from *netem.Host, ip, host string, want int) func(int) error {
		hc := &httpx.Client{Dial: from.Dial, Clock: w.Clock}
		return func(int) error {
			resp, err := hc.Get(ctx, ip+":80", host, "/")
			if err != nil {
				return err
			}
			if resp.StatusCode != want {
				return fmt.Errorf("GET %s answered %d, want %d", host, resp.StatusCode, want)
			}
			return nil
		}
	}
	c, err = loopCost(it(1_000), nil, get(censored, newsIP, worldgen.NewsHost, 200))
	if err != nil {
		return nil, err
	}
	out.put("censor.stream_clean", c)
	c, err = loopCost(it(2_000), nil, get(censored, smallIP, worldgen.SmallHost, 302))
	if err != nil {
		return nil, err
	}
	out.put("censor.stream_blocked", c)

	// httpx: the codec, and one GET with no censor on the path.
	req := httpx.NewRequest("GET", worldgen.YouTubeHost, "/watch?v=abc")
	req.Header.Set("User-Agent", "csaw/1.0")
	var wbuf bytes.Buffer
	c, err = loopCost(it(100_000), nil, func(int) error { wbuf.Reset(); return httpx.WriteRequest(&wbuf, req) })
	if err != nil {
		return nil, err
	}
	out.put("httpx.write_request", c)
	resp := httpx.NewResponse(200, make([]byte, 4096))
	resp.Header.Set("Content-Type", "text/html")
	wbuf.Reset()
	if err := httpx.WriteResponse(&wbuf, resp); err != nil {
		return nil, err
	}
	rawResp := append([]byte(nil), wbuf.Bytes()...)
	c, err = loopCost(it(20_000), nil, func(int) error {
		_, err := httpx.ReadResponse(bufio.NewReader(bytes.NewReader(rawResp)))
		return err
	})
	if err != nil {
		return nil, err
	}
	out.put("httpx.read_response", c)
	c, err = loopCost(it(1_000), nil, get(clean, newsIP, worldgen.NewsHost, 200))
	if err != nil {
		return nil, err
	}
	out.put("httpx.get", c)

	// web: a whole page load (base document plus embedded objects).
	br := web.NewBrowser(&web.Transport{Label: "bench", Dialer: clean.Dial, Lookup: w.RegistryLookup(), Clock: w.Clock})
	c, err = loopCost(it(200), nil, func(int) error {
		if res := br.Load(ctx, worldgen.NewsHost, "/"); !res.OK() || res.Objects == 0 {
			return fmt.Errorf("page load: %d objects, err %v", res.Objects, res.Err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.put("web.page_load", c)

	// detect: one direct-path measurement, clean and blocked.
	ldns, gdns := w.Resolvers(censored)
	det := &detect.Detector{Clock: w.Clock, Dial: censored.Dial, LDNS: ldns, GDNS: gdns, Classifier: blockpage.NewClassifier()}
	measure := func(url string, blocked bool) func(int) error {
		return func(int) error {
			if o := det.Measure(ctx, url, detect.HTTP); o.Blocked() != blocked {
				return fmt.Errorf("detect %s: blocked=%v (%s), want %v", url, o.Blocked(), o.StageSummary(), blocked)
			}
			return nil
		}
	}
	c, err = loopCost(it(500), nil, measure(worldgen.NewsHost+"/", false))
	if err != nil {
		return nil, err
	}
	out.put("detect.measure_clean", c)
	c, err = loopCost(it(500), nil, measure(worldgen.SmallHost+"/", true))
	if err != nil {
		return nil, err
	}
	out.put("detect.measure_blocked", c)
	return out, nil
}

// pureLayers measures the layers that need no world: the block-page
// classifier, pseudo-TLS over an in-memory pipe, and the local DB.
func pureLayers(it func(int) int) (map[string]float64, error) {
	out := table{}
	cls := blockpage.NewClassifier()
	corpus, normal := blockpage.Corpus(), blockpage.NormalPages()
	c, err := loopCost(it(20_000), nil, func(i int) error { _ = cls.Phase1(corpus[i%len(corpus)].HTML); return nil })
	if err != nil {
		return nil, err
	}
	out.put("blockpage.phase1_block", c)
	c, err = loopCost(it(20_000), nil, func(i int) error { _ = cls.Phase1(normal[i%len(normal)]); return nil })
	if err != nil {
		return nil, err
	}
	out.put("blockpage.phase1_normal", c)

	// tlsx: a handshake over a fresh pipe; then records over the last session.
	certs := tlsx.CertFor(worldgen.YouTubeHost)
	var pc net.Conn
	var cc, sc *tlsx.Conn
	shake := func(int) (err error) {
		var ps net.Conn
		pc, ps = net.Pipe()
		done := make(chan error, 1)
		go func() {
			var serr error
			sc, serr = tlsx.Server(ps, certs)
			done <- serr
		}()
		cc, err = tlsx.Client(pc, worldgen.YouTubeHost, worldgen.YouTubeHost)
		if serr := <-done; err == nil {
			err = serr
		}
		return err
	}
	c, err = loopCost(it(5_000), nil, shake)
	if err != nil {
		return nil, err
	}
	out.put("tlsx.handshake", c)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		_, _ = io.Copy(io.Discard, sc) // ends when the client side closes
	}()
	rec := make([]byte, 16<<10)
	c, err = loopCost(it(2_000), nil, func(int) error { _, err := cc.Write(rec); return err })
	if err != nil {
		return nil, err
	}
	out["tlsx.record_16k_ns"] = c.ns
	if err := pc.Close(); err != nil {
		return nil, err
	}
	<-drained
	// The ClientHello bytes, captured off a pipe.
	pc, ps := net.Pipe()
	helloDone := make(chan struct{})
	go func() {
		defer close(helloDone)
		_, _ = tlsx.Client(pc, worldgen.YouTubeHost, "") // fails once the capture closes the pipe
	}()
	hello := make([]byte, 512)
	n, err := ps.Read(hello)
	if err != nil {
		return nil, err
	}
	hello = hello[:n]
	_ = ps.Close()
	_ = pc.Close()
	<-helloDone
	if sni, ok := tlsx.SniffClientHello(hello); !ok || sni != worldgen.YouTubeHost {
		return nil, fmt.Errorf("tlsx: sniffed SNI %q ok=%v from a %d-byte hello", sni, ok, n)
	}
	c, err = loopCost(it(1_000_000), nil, func(int) error { _, _ = tlsx.SniffClientHello(hello); return nil })
	if err != nil {
		return nil, err
	}
	out["tlsx.sniff_ns"] = c.ns

	// localdb: longest-prefix lookup and aggregated put.
	db := localdb.New(vtime.NewEventDriven(), time.Hour, true)
	const hosts = 50
	look, puts := make([]string, hosts), make([]string, hosts*7)
	for i := 0; i < hosts; i++ {
		db.Put(fmt.Sprintf("site%d.example/banned/p", i), 1, localdb.Blocked, []localdb.Stage{{Type: localdb.BlockHTTP}})
		db.Put(fmt.Sprintf("site%d.example/", i), 1, localdb.NotBlocked, nil)
		look[i] = fmt.Sprintf("site%d.example/banned/p/deep.html", i)
	}
	for i := range puts {
		puts[i] = fmt.Sprintf("put%d.example/p%d", i%hosts, i%7)
	}
	c, err = loopCost(it(500_000), nil, func(i int) error {
		if _, st := db.Lookup(look[i%hosts]); st != localdb.Blocked {
			return fmt.Errorf("localdb: %s is %v, want blocked", look[i%hosts], st)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.put("localdb.lookup", c)
	c, err = loopCost(it(500_000), nil, func(i int) error {
		db.Put(puts[i%len(puts)], 1, localdb.NotBlocked, nil)
		return nil
	})
	out.put("localdb.put", c)
	return out, err
}

// storageLayer measures the WAL and snapshot codecs in dir.
func storageLayer(dir string, it func(int) int) (map[string]float64, error) {
	out := map[string]float64{}
	at := vtime.DefaultEpoch.UnixNano()
	rec := &storage.Record{Kind: storage.KindIngest, UUID: "0123456789abcdef", Now: at}
	for i := 0; i < ingestBatch; i++ {
		u := urlRef{65100, i}
		rec.Reports = append(rec.Reports, storage.Report{
			URL: u.url(), ASN: u.asn, Tm: at,
			Stages: []storage.Stage{{Type: stageDNS, Detail: "nxdomain"}},
		})
	}
	var enc []byte
	c, err := loopCost(it(500_000), nil, func(int) error { enc = storage.EncodeRecord(enc[:0], rec); return nil })
	if err != nil {
		return nil, err
	}
	out["storage.encode_ns"] = c.ns

	walPath := filepath.Join(dir, "layer-wal.log")
	log, err := storage.OpenLog(walPath)
	if err != nil {
		return nil, err
	}
	records := it(50_000)
	c, err = loopCost(records, nil, func(int) error { return log.Append(rec) })
	if err != nil {
		return nil, err
	}
	out["storage.append_ns"], out["storage.append_allocs"] = c.ns, c.allocs
	size, err := log.Size()
	if err != nil {
		return nil, err
	}
	written := float64(log.Records())
	out["storage.wal_bytes_per_report"] = float64(size) / (written * ingestBatch)
	if err := log.Close(); err != nil {
		return nil, err
	}
	c, err = loopCost(it(3), nil, func(int) error {
		n := 0
		_, err := storage.ReplayFile(walPath, func(*storage.Record) error { n++; return nil })
		if err == nil && float64(n) != written {
			err = fmt.Errorf("replayed %d records of %v", n, written)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	out["storage.replay_ns_per_record"] = c.ns / written

	// A snapshot the size of the db-ingest store divided by ten.
	st := &storage.State{Updates: 10_000}
	for u := 0; u < it(1_000); u++ {
		us := storage.UserState{UUID: fmt.Sprintf("%016x", u)}
		for j := 0; j < 2*ingestBatch; j++ {
			r := urlRef{65100 + u%16, (u*7 + j*13) % 4000}
			us.Reports = append(us.Reports, storage.StoredReport{
				URL: r.url(), ASN: r.asn, Tm: at, Tp: at,
				Stages: []storage.Stage{{Type: stageDNS, Detail: "nxdomain"}},
			})
		}
		st.Users = append(st.Users, us)
	}
	snapPath := filepath.Join(dir, "layer-snapshot")
	c, err = loopCost(it(5), nil, func(int) error { return storage.WriteSnapshot(snapPath, st) })
	if err != nil {
		return nil, err
	}
	out["storage.snapshot_write_ms"] = c.ns / 1e6
	c, err = loopCost(it(5), nil, func(int) error {
		got, err := storage.ReadSnapshot(snapPath)
		if err == nil && (got == nil || len(got.Users) != len(st.Users)) {
			err = fmt.Errorf("snapshot read back differs")
		}
		return err
	})
	out["storage.snapshot_read_ms"] = c.ns / 1e6
	return out, err
}

// replicaLayer measures a follower pulling and applying the primary's WAL
// stream: records written through the primary's handler, then one SyncAll.
func replicaLayer(seed int64, it func(int) int) (map[string]float64, error) {
	w, err := worldgen.New(worldgen.Options{EventDriven: true, Seed: seed, GlobalDBReplicas: 1})
	if err != nil {
		return nil, err
	}
	primary := &dbServer{srv: w.GlobalDB, h: w.GlobalDB.Handler(), clock: w.Clock}
	base := &dbBase{db: primary, uuids: make([]string, 1), model: newDBModel(1)}
	if err := base.register(0, nil, 0, 0); err != nil {
		return nil, err
	}
	records := it(5_000)
	for i := 0; i < records; i++ {
		refs := make([]urlRef, ingestBatch)
		for j := range refs {
			refs[j] = urlRef{65100, (i*ingestBatch + j) % 4000}
		}
		body, err := base.reportBody(0, refs)
		if err != nil {
			return nil, err
		}
		if !base.post(body, ingestBatch) {
			return nil, fmt.Errorf("replica: primary rejected a report")
		}
	}
	var got cost
	got, err = loopCost(1, func(int) error { return nil }, func(int) error { return w.ReplicaSet.SyncAll(context.Background()) })
	if err != nil {
		return nil, err
	}
	applied := float64(w.ReplicaSet.Offsets()[0])
	if applied < float64(records) {
		return nil, fmt.Errorf("replica: follower applied %v of %d records", applied, records)
	}
	return map[string]float64{
		"replica.pull_apply_ns_per_record":     got.ns / applied,
		"replica.pull_apply_allocs_per_record": got.allocs / applied,
	}, nil
}

// syncLayer measures Client.SyncNow in-world: a fleet-weight client against
// the world a fleet run just populated.
func syncLayer(f *fleetWorld, seed int64, it func(int) int) (map[string]float64, error) {
	ctx := context.Background()
	host := f.w.NewClientHost("bench-sync", f.sc.ISPs[0])
	cfg := f.w.LightClientConfig(host, seed)
	cfg.PSet, cfg.P, cfg.SyncInterval = true, 0, -1
	cl, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	if err := cl.Start(ctx); err != nil {
		return nil, err
	}
	c, err := loopCost(it(2_000), nil, func(int) error { return cl.SyncNow(ctx) })
	return map[string]float64{"core.sync_ns": c.ns, "core.sync_allocs": c.allocs}, err
}
