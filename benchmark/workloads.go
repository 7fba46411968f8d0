package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// sizes fixes every workload's operation counts. A measurement round always
// does the same work for a seed; only the number of rounds that fit in the
// run's time budget varies with the machine.
type sizes struct {
	fleetClients int // population of one fleet run (one round)

	ladderPerRung int // fetches per rung per round

	syncClients int // registered clients, spread evenly over syncASes
	syncASes    int
	syncURLs    int // URL universe per AS, fully pre-populated
	syncOps     int // sync rounds (conditional GETs) per measurement round

	ingestUsers    int // registered users, each owning a pool of 10 URLs
	ingestASes     int
	ingestUniverse int // URL universe per AS the pools draw from
	ingestPosts    int // POSTs (of 5 reports) per measurement round

	compactEvery int // WAL compaction cadence; 0 = the server's default (4096)
	deltaHistory int

	// microDiv divides the per-layer table's iteration counts; above 1 the
	// table also runs its reduced workloads at these sizes, not layerSizes.
	microDiv int
}

// fullSizes are the committed benchmark's sizes, fitted to the 2-core
// reference box (see README.md, "sizing").
var fullSizes = sizes{
	fleetClients:  10000,
	ladderPerRung: 500,
	syncClients:   800, syncASes: 16, syncURLs: 2000, syncOps: 8000,
	ingestUsers: 10000, ingestASes: 16, ingestUniverse: 4000, ingestPosts: 8192,
	deltaHistory: 256, microDiv: 1,
}

// toySizes keep every workload under a second for the smoke test.
var toySizes = sizes{
	fleetClients:  40,
	ladderPerRung: 3,
	syncClients:   48, syncASes: 4, syncURLs: 24, syncOps: 100,
	ingestUsers: 40, ingestASes: 4, ingestUniverse: 60, ingestPosts: 20,
	compactEvery: 32, deltaHistory: 256, microDiv: 2000,
}

// workloadNames is the fixed workload set, in suite order.
var workloadNames = []string{"fleet-10k", "fetch-ladder", "db-sync", "db-ingest"}

// roundResult is one timed section's outcome.
type roundResult struct {
	ops     int             // operations attempted
	failed  int             // operations that failed or answered wrongly
	opTimes []time.Duration // host time around each op call
}

// workload is one benchmark workload. setup builds fresh state from the
// seed (timed as setup_s); round runs the fixed-size timed section on it;
// verify checks the state's final contents against the harness's own
// expectation; release lets the state go before the next setup.
type workload interface {
	setup(seed int64, sb *spanBuf, parent int64, run int) error
	round(ctx context.Context, sb *spanBuf, parent int64, run int) (roundResult, error)
	// verify returns how many of the final outputs were wrong (operations
	// that failed in a round are counted there), with the first as an error.
	verify(sb *spanBuf, parent int64, run int) (wrong int, err error)
	release() error
	// freshPerRound reports whether every round needs its own setup.
	freshPerRound() bool
	// extras are the workload's own numbers for the rounds run so far.
	extras() map[string]float64
}

// newWorkload returns the named workload. dir is where it may keep files.
func newWorkload(name string, sz sizes, dir string) (workload, error) {
	switch name {
	case "fleet-10k":
		return &fleetWL{sz: sz}, nil
	case "fetch-ladder":
		return &ladderWL{sz: sz}, nil
	case "db-sync":
		return &syncWL{dbBase: dbBase{sz: sz, dir: dir}}, nil
	case "db-ingest":
		return &ingestWL{dbBase: dbBase{sz: sz, dir: dir}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// dbGoroutines is the DB workloads' client-goroutine count.
func dbGoroutines() int {
	if n := runtime.GOMAXPROCS(0); n < 4 {
		return n
	}
	return 4
}

// --- fleet-10k -------------------------------------------------------------

// fleetWL is the whole system at once: one fleet.Run of the planned
// population per round, closed loop, op = one planned page fetch.
type fleetWL struct {
	sz sizes
	fw *fleetWorld

	sha      string // first round's summary digest; later rounds must match
	last     fleetOutcome
	windowUS []float64 // host µs per fetch, window by window (see round)
}

func (f *fleetWL) freshPerRound() bool { return true }

func (f *fleetWL) setup(seed int64, sb *spanBuf, parent int64, run int) (err error) {
	f.fw, err = buildFleet(seed, f.sz.fleetClients, sb, parent, run)
	return err
}

func (f *fleetWL) round(ctx context.Context, sb *spanBuf, parent int64, run int) (roundResult, error) {
	type tickAt struct {
		at      time.Time
		fetches int
	}
	var mu sync.Mutex
	ticks := []tickAt{{at: now()}}
	var out fleetOutcome
	err := sb.do("fleet.Run", parent, run, func() (err error) {
		out, err = f.fw.run(ctx, func(fetches int) {
			mu.Lock()
			ticks = append(ticks, tickAt{now(), fetches})
			mu.Unlock()
		})
		return err
	})
	if err != nil {
		return roundResult{}, err
	}
	// Fold the sampler's ticks into windows of at least 1/40 of the run's
	// fetches each: wide enough that a window's cost per fetch is a mean
	// over many clients, numerous enough for a median.
	minFetches := f.fw.plannedFetches()/40 + 1
	from := ticks[0]
	ticks = append(ticks, tickAt{now(), out.fetches}) // the run's end closes the last window
	for _, t := range ticks[1:] {
		if d := t.fetches - from.fetches; d >= minFetches {
			us := float64(t.at.Sub(from.at)) / float64(time.Microsecond)
			f.windowUS = append(f.windowUS, us/float64(d))
			from = t
		}
	}
	f.last = out
	// Correctness: the global DB lists exactly what the plan says the fleet
	// measured, nothing errored, and the summary is the same bytes every
	// time this seed runs.
	bad := out.fetchErrs + out.syncErrs
	if out.fetches != f.fw.plannedFetches() {
		bad++
	}
	if !out.consistent {
		bad++
	}
	if f.sha == "" {
		f.sha = out.summarySHA
	} else if f.sha != out.summarySHA {
		bad++
	}
	return roundResult{ops: out.fetches, failed: bad}, nil
}

func (f *fleetWL) verify(*spanBuf, int64, int) (int, error) { return 0, nil }

func (f *fleetWL) release() error { f.fw = nil; return nil }

func (f *fleetWL) extras() map[string]float64 {
	m := map[string]float64{
		"fleet.peak_goroutines": float64(f.last.peakGoroutines),
		"fleet.sync_full":       float64(f.last.full),
		"fleet.sync_delta":      float64(f.last.delta),
		"fleet.sync_304":        float64(f.last.n304),
	}
	if f.last.fetches > 0 {
		m["fleet.syncs_per_fetch"] = float64(f.last.syncs) / float64(f.last.fetches)
	}
	if n := f.last.full + f.last.delta + f.last.n304; n > 0 {
		m["sync_bytes_per_round"] = float64(f.last.listBytes) / float64(n)
	}
	m["op_p50_us"] = median(f.windowUS)
	return m
}

// --- fetch-ladder ------------------------------------------------------------

// ladderWL is the pure per-fetch path: one serial client per rung, no
// global DB, one goroutine, closed loop, op = one FetchURL.
type ladderWL struct {
	sz     sizes
	flight bool // attach the flight recorder (trace.fetch_overhead_ratio)
	l      *ladder

	virtual   []time.Duration // summed simulated latency per rung
	host      []time.Duration // summed host time per rung
	fetches   []int           // fetches per rung
	firstErrs []string
}

func (w *ladderWL) freshPerRound() bool { return false }

func (w *ladderWL) setup(seed int64, sb *spanBuf, parent int64, run int) (err error) {
	n := len(ladderRungs)
	w.virtual, w.host, w.fetches = make([]time.Duration, n), make([]time.Duration, n), make([]int, n)
	w.l, err = buildLadder(seed, w.flight, sb, parent, run)
	return err
}

func (w *ladderWL) round(ctx context.Context, sb *spanBuf, parent int64, run int) (roundResult, error) {
	res := roundResult{opTimes: make([]time.Duration, 0, len(ladderRungs)*w.sz.ladderPerRung)}
	for i, rung := range ladderRungs {
		for k := 0; k < w.sz.ladderPerRung; k++ {
			m := sb.start(parent, run)
			t0 := now()
			virt, err := w.l.fetch(ctx, i)
			d := since(t0)
			if sb != nil {
				sb.end(m, "core.FetchURL/"+rung+"#"+strconv.Itoa(w.fetches[i]))
			}
			res.ops++
			res.opTimes = append(res.opTimes, d)
			w.host[i] += d
			w.virtual[i] += virt
			w.fetches[i]++
			if err != nil {
				res.failed++
				if len(w.firstErrs) < 5 {
					w.firstErrs = append(w.firstErrs, err.Error())
				}
			}
		}
	}
	return res, nil
}

func (w *ladderWL) release() error {
	w.l.close()
	w.l = nil
	return nil
}

func (w *ladderWL) verify(*spanBuf, int64, int) (int, error) {
	if len(w.firstErrs) > 0 {
		return 0, fmt.Errorf("wrong fetches, the first: %v", w.firstErrs)
	}
	return 0, nil
}

func (w *ladderWL) extras() map[string]float64 {
	m := map[string]float64{}
	var virt time.Duration
	n := 0
	for i, rung := range ladderRungs {
		if w.fetches[i] == 0 {
			continue
		}
		virt += w.virtual[i]
		n += w.fetches[i]
		per := float64(w.fetches[i])
		m["core.fetch."+rung+"_virtual_ms"] = float64(w.virtual[i]) / float64(time.Millisecond) / per
		m["core.fetch."+rung+"_ns"] = float64(w.host[i]) / per
	}
	if n > 0 {
		m["virtual_ms_per_op"] = float64(virt) / float64(time.Millisecond) / float64(n)
	}
	return m
}

// --- the harness's own model of the global DB --------------------------------

// The three blocking mechanisms the DB workloads report, the Pakistan mix:
// DNS tampering, HTTP redirect to a block page, and a reset. Each maps to
// one server-side reporting class.
var mechStages = [][]dbStage{
	{{Type: stageDNS, Detail: "nxdomain"}},
	{{Type: stageHTTP, Detail: "blockpage-redirect"}},
	{{Type: stageHTTP, Detail: "rst"}},
}
var mechClass = []string{"dns", "blockpage", "rst"}

// wireReport and wireReportReq are the POST /v1/report body.
type wireReport struct {
	URL    string    `json:"url"`
	ASN    int       `json:"asn"`
	Stages []dbStage `json:"stages"`
	Tm     time.Time `json:"tm"`
}
type wireReportReq struct {
	UUID    string       `json:"uuid"`
	Reports []wireReport `json:"reports"`
}

// wireEntry and wireList are the GET /v1/blocked body.
type wireEntry struct {
	URL       string    `json:"url"`
	ASN       int       `json:"asn"`
	Stages    []dbStage `json:"stages"`
	LastTp    time.Time `json:"last_tp"`
	Votes     float64   `json:"s"`
	Reporters int       `json:"n"`
}
type wireList struct {
	ASN     int         `json:"asn"`
	Entries []wireEntry `json:"entries"`
}

// urlRef names one URL of one AS's universe; the mechanism is a function
// of the index, so every reporter of a URL reports the same stages.
type urlRef struct{ asn, idx int }

func (u urlRef) url() string { return fmt.Sprintf("as%d-site%05d.example/", u.asn, u.idx) }
func (u urlRef) mech() int   { return u.idx % len(mechStages) }

// dbModel is the independent expectation: the set of (user, URL, AS)
// triples posted. Everything the server must serve follows from it.
type dbModel struct {
	posted []map[urlRef]bool // per user
}

func newDBModel(users int) *dbModel {
	m := &dbModel{posted: make([]map[urlRef]bool, users)}
	for i := range m.posted {
		m.posted[i] = make(map[urlRef]bool)
	}
	return m
}

// post records that user reported u. Distinct users may post concurrently.
func (m *dbModel) post(user int, u urlRef) { m.posted[user][u] = true }

// expect derives every AS's aggregated list and the server-wide stats: per
// (URL, AS) the reporter count n and the vote sum s = Σ 1/d over reporters,
// d being the reporter's distinct (URL, AS) count, summed in ascending
// order as the server does.
func (m *dbModel) expect(at time.Time) (map[int][]dbEntry, dbStats) {
	votes := make(map[urlRef][]float64)
	st := dbStats{Users: len(m.posted), ByType: map[string]int{}}
	for _, set := range m.posted {
		st.Updates += len(set)
		for u := range set {
			votes[u] = append(votes[u], 1/float64(len(set)))
		}
	}
	lists := make(map[int][]dbEntry)
	urls, hosts, ases, classes := map[string]bool{}, map[string]bool{}, map[int]bool{}, map[string]bool{}
	for u, vs := range votes {
		sort.Float64s(vs)
		e := dbEntry{URL: u.url(), ASN: u.asn, Stages: mechStages[u.mech()], LastTp: at, Reporters: len(vs)}
		for _, v := range vs {
			e.Votes += v
		}
		lists[u.asn] = append(lists[u.asn], e)
		urls[e.URL], hosts[urlHost(e.URL)], ases[u.asn], classes[mechClass[u.mech()]] = true, true, true, true
		st.ByType[mechClass[u.mech()]]++
	}
	for _, l := range lists {
		sort.Slice(l, func(i, j int) bool { return l[i].URL < l[j].URL })
	}
	st.BlockedURLs, st.BlockedDomains, st.ASes, st.BlockTypes = len(urls), len(hosts), len(ases), len(classes)
	return lists, st
}

// entriesEqual compares two aggregated lists field by field (times by
// instant, not representation).
func entriesEqual(a, b []dbEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.URL != y.URL || x.ASN != y.ASN || x.Votes != y.Votes || x.Reporters != y.Reporters ||
			!x.LastTp.Equal(y.LastTp) || !reflect.DeepEqual(x.Stages, y.Stages) {
			return false
		}
	}
	return true
}

// checkDB compares the server's state with the model: every AS's
// BlockedForAS, the stats, and (over the wire) each AS's full /v1/blocked
// body. It returns the number of mismatches.
func checkDB(d *dbServer, m *dbModel, asns []int) (wrong int, first string) {
	note := func(format string, a ...any) {
		wrong++
		if first == "" {
			first = fmt.Sprintf(format, a...)
		}
	}
	lists, stats := m.expect(d.now())
	for _, asn := range asns {
		if got := d.blocked(asn); !entriesEqual(got, lists[asn]) {
			note("AS%d: BlockedForAS has %d entries, model %d (or contents differ)", asn, len(got), len(lists[asn]))
		}
		rep := d.call("GET", dbPathFetch+"?asn="+strconv.Itoa(asn), "10.255.0.1", "", "", nil)
		var wl wireList
		if rep.status != 200 || json.Unmarshal(rep.body, &wl) != nil {
			note("AS%d: GET /v1/blocked answered %d", asn, rep.status)
			continue
		}
		got := make([]dbEntry, len(wl.Entries))
		for i, e := range wl.Entries {
			got[i] = dbEntry(e)
		}
		if wl.ASN != asn || !entriesEqual(got, lists[asn]) {
			note("AS%d: /v1/blocked body differs from the model", asn)
		}
	}
	if got := d.stats(); !reflect.DeepEqual(got, stats) {
		note("stats: server %+v, model %+v", got, stats)
	}
	return wrong, first
}

// dbBase is what the two DB workloads share: the server in its directory,
// the model, registration, and close → recover → compare.
type dbBase struct {
	sz    sizes
	dir   string
	seq   int // setups so far; each gets its own subdirectory
	cur   string
	db    *dbServer
	model *dbModel
	uuids []string
	asns  []int

	recoverS []float64
}

// open starts a fresh durable server in a new subdirectory.
func (b *dbBase) open(users int, asns []int) (err error) {
	b.seq++
	b.cur = fmt.Sprintf("%s/db-%d", b.dir, b.seq)
	b.asns = asns
	b.model = newDBModel(users)
	b.uuids = make([]string, users)
	b.db, err = openDB(b.cur, b.sz.deltaHistory, b.sz.compactEvery)
	return err
}

// release closes and deletes the current server.
func (b *dbBase) release() error {
	err := b.db.close()
	b.db = nil
	if rmErr := os.RemoveAll(b.cur); err == nil {
		err = rmErr
	}
	return err
}

// register signs user i up from its own source address (the server allows
// five registrations per address per hour).
func (b *dbBase) register(i int, sb *spanBuf, parent int64, run int) error {
	ip := fmt.Sprintf("10.%d.%d.%d", 1+i>>16, (i>>8)&255, i&255)
	m := sb.start(parent, run)
	rep := b.db.call("POST", dbPathRegister, ip, "", "human-"+strconv.Itoa(i), nil)
	sb.end(m, "globaldb.ServeHTTP/register")
	var out struct {
		UUID string `json:"uuid"`
	}
	if rep.status != 200 || json.Unmarshal(rep.body, &out) != nil || out.UUID == "" {
		return fmt.Errorf("register user %d: status %d", i, rep.status)
	}
	b.uuids[i] = out.UUID
	return nil
}

// reportBody marshals one POST /v1/report body.
func (b *dbBase) reportBody(user int, refs []urlRef) ([]byte, error) {
	req := wireReportReq{UUID: b.uuids[user], Reports: make([]wireReport, len(refs))}
	for i, u := range refs {
		req.Reports[i] = wireReport{URL: u.url(), ASN: u.asn, Stages: mechStages[u.mech()], Tm: b.db.now()}
	}
	return json.Marshal(req)
}

// post sends one report body and checks the acknowledgement.
func (b *dbBase) post(body []byte, want int) bool {
	rep := b.db.call("POST", dbPathReport, "10.254.0.1", "", "", body)
	var ack struct {
		Accepted int `json:"accepted"`
	}
	return rep.status == 200 && json.Unmarshal(rep.body, &ack) == nil && ack.Accepted == want
}

// verify compares the live server with the model, closes it, times the
// recovery of a new server over the same directory, and compares again.
func (b *dbBase) verify(sb *spanBuf, parent int64, run int) (int, error) {
	wrong, first := checkDB(b.db, b.model, b.asns)
	if err := sb.do("globaldb.Server.Close", parent, run, b.db.close); err != nil {
		return wrong, err
	}
	b.db = nil
	t0 := now()
	err := sb.do("globaldb.NewDurableServer/recover", parent, run, func() (err error) {
		b.db, err = openDB(b.cur, b.sz.deltaHistory, b.sz.compactEvery)
		return err
	})
	if err != nil {
		return wrong, err
	}
	b.recoverS = append(b.recoverS, since(t0).Seconds())
	again, firstAgain := checkDB(b.db, b.model, b.asns)
	if first == "" && firstAgain != "" {
		first = "after recovery: " + firstAgain
	}
	wrong += again
	if first != "" {
		return wrong, fmt.Errorf("global DB differs from the model: %s", first)
	}
	return wrong, nil
}

// --- db-sync -------------------------------------------------------------------

// syncOp is one precomputed sync round: client c sends a conditional GET,
// preceded by one report when post is set.
type syncOp struct {
	client int
	post   []byte
	ref    urlRef
}

// syncWL is the read-mostly use of the DB: conditional list fetches with
// writes beside them, op = one sync round.
type syncWL struct {
	dbBase

	perAS  [][]syncOp // each AS's ops, in order
	tags   []string   // each client's last ETag
	asOf   []int      // each client's AS index
	counts struct{ full, delta, n304, posts, listBytes int }

	syncTimes, postTimes []time.Duration
}

func (w *syncWL) freshPerRound() bool { return true }

func (w *syncWL) setup(seed int64, sb *spanBuf, parent int64, run int) error {
	sz := w.sz
	asns := make([]int, sz.syncASes)
	for i := range asns {
		asns[i] = 65000 + i
	}
	if err := w.open(sz.syncClients, asns); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	w.tags = make([]string, sz.syncClients)
	w.asOf = make([]int, sz.syncClients)
	members := make([][]int, sz.syncASes)
	for c := 0; c < sz.syncClients; c++ {
		if err := w.register(c, sb, parent, run); err != nil {
			return err
		}
		w.asOf[c] = c % sz.syncASes
		members[w.asOf[c]] = append(members[w.asOf[c]], c)
	}
	// Pre-populate every AS's whole URL universe, dealt round-robin over
	// its clients in one batch each.
	for a, cs := range members {
		batches := make([][]urlRef, len(cs))
		for u := 0; u < sz.syncURLs; u++ {
			batches[u%len(cs)] = append(batches[u%len(cs)], urlRef{asns[a], u})
		}
		for i, c := range cs {
			body, err := w.reportBody(c, batches[i])
			if err != nil {
				return err
			}
			m := sb.start(parent, run)
			ok := w.post(body, len(batches[i]))
			sb.end(m, "globaldb.ServeHTTP/report")
			if !ok {
				return fmt.Errorf("db-sync: pre-populate AS%d rejected", asns[a])
			}
			for _, u := range batches[i] {
				w.model.post(c, u)
			}
		}
	}
	// The visiting order. Sync rounds go to the ASes in turn, so every AS
	// serves the same number; which of its clients visits is drawn from the
	// seed. In each AS every 4th visit is followed by an immediate re-sync
	// of the same client (the 304 path) and every 7th round first posts one
	// more URL of the AS's universe — counts that do not depend on the
	// seed, so runs with different seeds do the same amount of each work.
	w.perAS = make([][]syncOp, sz.syncASes)
	visits := make([]int, sz.syncASes)
	for n := 0; n < sz.syncOps; {
		a := n % sz.syncASes
		c := members[a][rng.Intn(len(members[a]))]
		visits[a]++
		reps := 1
		if visits[a]%4 == 0 {
			reps = 2
		}
		for k := 0; k < reps && n < sz.syncOps; k++ {
			op := syncOp{client: c}
			if (len(w.perAS[a])+1)%7 == 0 {
				op.ref = urlRef{asns[a], rng.Intn(sz.syncURLs)}
				body, err := w.reportBody(c, []urlRef{op.ref})
				if err != nil {
					return err
				}
				op.post = body
			}
			w.perAS[a] = append(w.perAS[a], op)
			n++
		}
	}
	return nil
}

func (w *syncWL) round(_ context.Context, rsb *spanBuf, parent int64, run int) (roundResult, error) {
	g := dbGoroutines()
	type part struct {
		res                     roundResult
		full, delta, n304, post int
		bytes                   int
		postTimes               []time.Duration
	}
	parts := make([]part, g)
	targets := make([]string, len(w.asns))
	for a, asn := range w.asns {
		targets[a] = dbPathFetch + "?asn=" + strconv.Itoa(asn)
	}
	var wg sync.WaitGroup
	for gi := 0; gi < g; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			p := &parts[gi]
			sb := rsb.fork()
			// This goroutine owns ASes gi, gi+g, …: each AS's requests
			// reach the server in its precomputed order whatever g is.
			for a := gi; a < len(w.perAS); a += g {
				for _, op := range w.perAS[a] {
					t0 := now()
					if op.post != nil {
						m := sb.start(parent, run)
						ok := w.post(op.post, 1)
						sb.end(m, "globaldb.ServeHTTP/report")
						p.postTimes = append(p.postTimes, since(t0))
						p.post++
						if ok {
							w.model.post(op.client, op.ref)
						} else {
							p.res.failed++
						}
					}
					m := sb.start(parent, run)
					inm := w.tags[op.client]
					rep := w.db.call("GET", targets[a], "10.254.0.2", inm, "", nil)
					kind := "full"
					switch {
					case rep.status == 304 && inm != "" && rep.etag == inm:
						p.n304++
						kind = "304"
					case rep.status == 200 && rep.etag != "" && rep.delta && inm != "":
						p.delta++
						kind = "delta"
					case rep.status == 200 && rep.etag != "" && !rep.delta:
						p.full++
					default:
						p.res.failed++
					}
					sb.end(m, "globaldb.ServeHTTP/"+kind)
					if rep.etag != "" {
						w.tags[op.client] = rep.etag
					}
					p.bytes += len(rep.body)
					p.res.ops++
					p.res.opTimes = append(p.res.opTimes, since(t0))
				}
			}
		}(gi)
	}
	wg.Wait()
	var res roundResult
	for i := range parts {
		p := &parts[i]
		res.ops += p.res.ops
		res.failed += p.res.failed
		res.opTimes = append(res.opTimes, p.res.opTimes...)
		w.counts.full += p.full
		w.counts.delta += p.delta
		w.counts.n304 += p.n304
		w.counts.posts += p.post
		w.counts.listBytes += p.bytes
		w.postTimes = append(w.postTimes, p.postTimes...)
	}
	w.syncTimes = append(w.syncTimes, res.opTimes...)
	return res, nil
}

func (w *syncWL) extras() map[string]float64 {
	m := map[string]float64{"recover_s": median(w.recoverS)}
	if n := w.counts.full + w.counts.delta + w.counts.n304; n > 0 {
		m["sync_bytes_per_round"] = float64(w.counts.listBytes) / float64(n)
		m["globaldb.fetch_full_ratio"] = float64(w.counts.full) / float64(n)
		m["globaldb.fetch_delta_ratio"] = float64(w.counts.delta) / float64(n)
		m["globaldb.fetch_304_ratio"] = float64(w.counts.n304) / float64(n)
	}
	m["globaldb.sync_round_p99_us"] = durQuantileUS(w.syncTimes, 0.99)
	m["globaldb.report_post_p99_us"] = durQuantileUS(w.postTimes, 0.99)
	return m
}

// --- db-ingest -----------------------------------------------------------------

// ingestWL is the write ceiling: pre-registered users re-posting batches of
// five reports from their own ten-URL pools, op = one report.
type ingestWL struct {
	dbBase

	bodies [][]byte // per (user, half): users*2 precomputed POST bodies
	order  []int32  // one round's body indices, in posting order

	postTimes []time.Duration
}

const ingestBatch = 5

func (w *ingestWL) freshPerRound() bool { return false }

func (w *ingestWL) setup(seed int64, sb *spanBuf, parent int64, run int) error {
	sz := w.sz
	asns := make([]int, sz.ingestASes)
	for i := range asns {
		asns[i] = 65100 + i
	}
	if err := w.open(sz.ingestUsers, asns); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	w.bodies = make([][]byte, 0, sz.ingestUsers*2)
	for u := 0; u < sz.ingestUsers; u++ {
		if err := w.register(u, sb, parent, run); err != nil {
			return err
		}
		// The user's pool: ten distinct URLs of its AS's universe.
		asn := asns[u%sz.ingestASes]
		pool := make([]urlRef, 0, 2*ingestBatch)
		seen := make(map[int]bool, 2*ingestBatch)
		for len(pool) < 2*ingestBatch {
			if i := rng.Intn(sz.ingestUniverse); !seen[i] {
				seen[i] = true
				pool = append(pool, urlRef{asn, i})
			}
		}
		for half := 0; half < 2; half++ {
			refs := pool[half*ingestBatch : (half+1)*ingestBatch]
			body, err := w.reportBody(u, refs)
			if err != nil {
				return err
			}
			w.bodies = append(w.bodies, body)
			// Fill: the store reaches its stationary contents here, so the
			// timed posts are all vote-refresh re-reports — the paper's
			// steady state.
			m := sb.start(parent, run)
			ok := w.post(body, ingestBatch)
			sb.end(m, "globaldb.ServeHTTP/report")
			if !ok {
				return fmt.Errorf("db-ingest: fill post for user %d rejected", u)
			}
			for _, r := range refs {
				w.model.post(u, r)
			}
		}
	}
	w.order = make([]int32, sz.ingestPosts)
	for i := range w.order {
		w.order[i] = int32(rng.Intn(len(w.bodies)))
	}
	return nil
}

func (w *ingestWL) round(_ context.Context, rsb *spanBuf, parent int64, run int) (roundResult, error) {
	g := dbGoroutines()
	parts := make([]roundResult, g)
	var wg sync.WaitGroup
	for gi := 0; gi < g; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			p := &parts[gi]
			sb := rsb.fork()
			for i := gi; i < len(w.order); i += g {
				m := sb.start(parent, run)
				t0 := now()
				ok := w.post(w.bodies[w.order[i]], ingestBatch)
				p.opTimes = append(p.opTimes, since(t0))
				sb.end(m, "globaldb.ServeHTTP/report")
				p.ops += ingestBatch
				if !ok {
					p.failed += ingestBatch
				}
			}
		}(gi)
	}
	wg.Wait()
	var res roundResult
	for _, p := range parts {
		res.ops += p.ops
		res.failed += p.failed
		res.opTimes = append(res.opTimes, p.opTimes...)
	}
	w.postTimes = append(w.postTimes, res.opTimes...)
	return res, nil
}

func (w *ingestWL) extras() map[string]float64 {
	return map[string]float64{
		"recover_s":                   median(w.recoverS),
		"globaldb.report_post_p99_us": durQuantileUS(w.postTimes, 0.99),
	}
}
