package fleet

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"csaw/internal/core"
	"csaw/internal/trace"
	"csaw/internal/worldgen"
)

// Driver tunables.
const (
	// DefaultWorkers bounds concurrently *executing* clients. Sessions are
	// virtual-time-scheduled, so workers are a concurrency budget, not a
	// parallelism requirement: a busy pool just runs sessions late, which
	// inflates measured PLTs and never changes the Summary.
	DefaultWorkers = 64
	// finalSyncRetries bounds the end-of-life sync attempts per client. The
	// Summary's listed-equals-expected invariant needs every client's last
	// pending reports flushed.
	finalSyncRetries = 5
	// samplePeriod is the live-counter / goroutine-gauge cadence (virtual).
	samplePeriod = time.Minute
)

// Options tunes a fleet run.
type Options struct {
	// Workers is the driver pool size (default DefaultWorkers).
	Workers int
	// Progress, when set, receives a live Snapshot every samplePeriod of
	// virtual time.
	Progress func(Snapshot)
	// Trace attaches the flight recorder to every client. For byte-identical
	// trace artifacts, also set Workers=1 and SerialClients (see csaw-fleet
	// -trace): with parallel clients the branch each fetch takes depends on
	// cross-client sync timing, so trace *content* is schedule-dependent even
	// though the Summary is not.
	Trace *trace.Tracer
	// SerialClients forces cfg.Serial on every client: detect first, then
	// circumvent, no racing goroutines — the deterministic trace discipline.
	SerialClients bool
}

// tev is one scheduled action in the run's global timeline, packed
// struct-of-hot-fields: the dispatcher walks a single sorted slice of these
// instead of per-worker merged queues, and the slice is the discrete-event
// scheduler's natural event feed (each gap between consecutive events is
// one clock jump). seq orders a client's own events (0 = join, 1..n =
// session n, n+1 = leave) under equal times; last marks the client's final
// event, after which the worker retires it eagerly instead of holding the
// client (and its local DB) live to the end of the window.
type tev struct {
	at   time.Duration
	cidx int32
	seq  int32
	last bool
}

// buildTimeline flattens the plan into one (at, cidx, seq)-sorted slice.
func buildTimeline(plan *Plan) []tev {
	n := 0
	for i := range plan.Clients {
		n += 2 + len(plan.Clients[i].Sessions)
	}
	tl := make([]tev, 0, n)
	for i := range plan.Clients {
		cp := &plan.Clients[i]
		cidx := int32(cp.Index)
		tl = append(tl, tev{at: cp.Join, cidx: cidx, seq: 0})
		for s := range cp.Sessions {
			tl = append(tl, tev{at: cp.Sessions[s].At, cidx: cidx, seq: int32(s + 1)})
		}
		if cp.Leave > 0 {
			tl = append(tl, tev{at: cp.Leave, cidx: cidx, seq: int32(len(cp.Sessions) + 1)})
		}
		tl[len(tl)-1].last = true
	}
	sort.Slice(tl, func(i, j int) bool {
		a, b := tl[i], tl[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.cidx != b.cidx {
			return a.cidx < b.cidx
		}
		return a.seq < b.seq
	})
	return tl
}

// Run executes the plan against a built world + fleet scenario and returns
// the deterministic Summary plus the Measured section. The world must have
// been built with BuildFleetScenario and nothing else driving it.
//
// One dispatcher goroutine walks the global timeline, sleeping the clock to
// each event and feeding a fixed worker pool; client i always lands on worker
// i%workers, so each client's events stay FIFO. Any worker error cancels
// the run-scoped context, which stops the dispatcher and drains the pool
// promptly instead of letting the other workers finish their timelines.
func Run(ctx context.Context, w *worldgen.World, sc *worldgen.FleetScenario, plan *Plan, opts Options) (*RunResult, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = DefaultWorkers
	}
	if workers > len(plan.Clients) && len(plan.Clients) > 0 {
		workers = len(plan.Clients)
	}
	st := newStats()
	start := w.Clock.Now()

	// Delta sync is the fleet's default sync path. The server's per-AS edit
	// history (default 64 transitions) is sized for a handful of clients; at
	// fleet scale every other client's sync advances the tag chain, so a
	// client's validator tag from one round would fall out of history before
	// its next round and every sync would pay a full-body fetch. Sizing the
	// history to the population keeps converging-phase syncs on the delta
	// path; correctness never depends on it (stale tags just fetch full).
	w.GlobalDB.SetDeltaHistory(deltaHistoryFor(len(plan.Clients)))

	runCtx, cancelRun := w.Clock.WithCancel(ctx)
	defer cancelRun()
	var failOnce sync.Once
	var runErr error
	fail := func(err error) {
		failOnce.Do(func() {
			runErr = err
			cancelRun()
		})
	}

	// Live sampler: goroutine gauge + progress callback, on virtual time.
	// Only the sampler writes peak until sampleWG.Wait returns.
	peak := 0
	sampleStop := make(chan struct{})
	var sampleWG sync.WaitGroup
	sampleWG.Add(1)
	go func() {
		defer sampleWG.Done()
		tk := w.Clock.NewTicker(samplePeriod)
		defer tk.Stop()
		for {
			select {
			case <-sampleStop:
				return
			case <-tk.C:
				n := runtime.NumGoroutine()
				peak = max(peak, n)
				if opts.Progress != nil {
					opts.Progress(st.snapshot(w.Clock.Since(start), n))
				}
			}
		}
	}()

	tl := buildTimeline(plan)
	// Clients are lazily instantiated at join and indexed by plan index;
	// slot i is owned by worker i%workers, so slots are never contended.
	clients := make([]*core.Client, len(plan.Clients))

	// Per-worker queues sized to hold every event they will ever receive:
	// the dispatcher never blocks on a slow worker, it only paces the clock.
	perWorker := make([]int, workers)
	for _, ev := range tl {
		perWorker[int(ev.cidx)%workers]++
	}
	queues := make([]chan tev, workers)
	for wk := range queues {
		queues[wk] = make(chan tev, perWorker[wk])
	}

	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(queue <-chan tev) {
			defer wg.Done()
			for ev := range queue {
				if runCtx.Err() != nil {
					continue // cancelled: drain without executing
				}
				runEvent(runCtx, w, sc, plan, clients, ev, st, opts, fail)
			}
		}(queues[wk])
	}

	clock := w.Clock
	for _, ev := range tl {
		if runCtx.Err() != nil {
			break
		}
		if d := ev.at - clock.Since(start); d > 0 {
			if err := clock.SleepCtx(runCtx, d); err != nil {
				break
			}
		}
		queues[int(ev.cidx)%workers] <- ev
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	close(sampleStop)
	sampleWG.Wait()

	// Cancelled path: close whatever is still alive without syncing (the
	// context is dead; a forced flush would only mint bogus sync errors).
	for i, cl := range clients {
		if cl != nil {
			cl.Close()
			clients[i] = nil
		}
	}
	peak = max(peak, runtime.NumGoroutine())

	if runErr != nil {
		return nil, runErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return collect(w, sc, plan, st, workers, peak, w.Clock.Since(start)), nil
}

// runEvent executes one timeline event on its owning worker.
func runEvent(ctx context.Context, w *worldgen.World, sc *worldgen.FleetScenario,
	plan *Plan, clients []*core.Client, ev tev, st *Stats, opts Options, fail func(error)) {
	cidx := int(ev.cidx)
	cp := &plan.Clients[cidx]
	switch {
	case ev.seq == 0:
		cl, err := joinClient(ctx, w, sc, cp, opts)
		if err != nil {
			// A join killed by run cancellation is not a client failure.
			if ctx.Err() == nil {
				fail(fmt.Errorf("fleet: client %d join: %w", cp.Index, err))
			}
			return
		}
		clients[cidx] = cl
		st.events.Add("joined", 1)
	case int(ev.seq) <= len(cp.Sessions):
		cl := clients[cidx]
		if cl == nil {
			return // join failed or was cancelled
		}
		sess := &cp.Sessions[ev.seq-1]
		for _, url := range sess.URLs {
			res := cl.FetchURL(ctx, url)
			st.recordFetch(res.Source, res.Took, res.Err != nil)
		}
		st.events.Add("sessions", 1)
		// Settle before syncing: when circumvention wins the race, the direct
		// verdict lands via a background goroutine that would otherwise race
		// this sync's PendingGlobal read. A verdict that misses its own
		// session's flush stays pending until the client's *next* sync — which
		// the plan can place more than the local_DB TTL (24 virtual hours)
		// later, at which point PendingGlobal silently drops it. For a Zipf
		// tail URL with a single visitor that loses the whole report, and with
		// it the Summary invariant (listed = blocked ∩ visited). WaitIdle is
		// sufficient: every background settle is bg.Add-ed inside FetchURL
		// before it returns, so all of this session's settles are covered.
		cl.WaitIdle()
		if err := cl.SyncNow(ctx); ctx.Err() == nil {
			st.events.Add("syncs", 1)
			if err != nil {
				st.events.Add("sync-errors", 1)
			}
		}
	default:
		// Leave (churn): flush and shut down early.
		if cl := clients[cidx]; cl != nil {
			retireClient(ctx, cl, st)
			clients[cidx] = nil
		}
		st.events.Add("left", 1)
		return // leave already retired; last needs no second pass
	}
	if ev.last {
		// The client's final planned event: retire now instead of holding
		// it (goroutine-free but memory-heavy) until the window closes.
		if cl := clients[cidx]; cl != nil {
			retireClient(ctx, cl, st)
			clients[cidx] = nil
		}
	}
}

// deltaHistoryFor sizes the global DB's per-AS delta history to the
// population. One mark is left per write to the AS, and writes only arrive
// while the list still converges, so population-order history covers a
// full round of everyone else's reports during convergence. The cap bounds
// server memory: beyond it a very stale client pays one full fetch and
// re-enters the delta path, which is the designed fallback.
func deltaHistoryFor(population int) int {
	const lo, hi = 64, 4096
	switch {
	case population < lo:
		return lo
	case population > hi:
		return hi
	}
	return population
}

// joinClient assembles a fleet-weight client (see the package comment for
// why PSet/P=0 and the raised detector deadlines are load-bearing).
func joinClient(ctx context.Context, w *worldgen.World, sc *worldgen.FleetScenario, cp *ClientPlan, opts Options) (*core.Client, error) {
	host := w.NewClientHost(fmt.Sprintf("fleet-c%05d", cp.Index), sc.ISPs[cp.ISP])
	cfg := w.LightClientConfig(host, cp.Seed)
	cfg.PSet, cfg.P = true, 0
	// The driver syncs explicitly (at join, after each session, at retire),
	// so the per-client background sync loop is disabled outright — at 100k
	// clients even parked tickers and loop goroutines are real weight.
	cfg.SyncInterval = -1
	// The detector deadlines get the fleet slack: affirmative blocking
	// signals answer in RTTs, while concurrent workers' sleeps all advance
	// the shared event clock — and a blown detector deadline is not just an
	// error, it is a *verdict*.
	cfg.DetectConnectTimeout = worldgen.EventFleetSlack
	cfg.DetectHTTPTimeout = worldgen.EventFleetSlack
	cfg.DNSAttemptTimeout = worldgen.EventFleetSlack
	// For the same reason a healthy circumvention fetch can *measure* hours
	// of virtual time, so the failover-ladder budget and quarantine (which
	// would turn that drift into benches and fetch errors) are disabled. A
	// budget binds only against censors that drop, and the fleet scenario
	// has none.
	cfg.FailoverBudget = -1
	cfg.Quarantine.Strikes = -1
	cfg.Trace = opts.Trace
	if opts.SerialClients {
		cfg.Serial = true
	}
	cl, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	// Start registers and performs the initial list download. Registration
	// is idempotent across attempts (the UUID sticks once assigned), so a
	// sync that lost a timing race under load is safe to retry — but a
	// cancelled run must not burn retries on a dead context.
	var startErr error
	for attempt := 0; attempt < finalSyncRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			cl.Close()
			return nil, err
		}
		if startErr = cl.Start(ctx); startErr == nil {
			return cl, nil
		}
	}
	cl.Close()
	return nil, startErr
}

// retireClient drains background work, flushes pending reports, and closes.
// The flush must succeed for the Summary invariant, hence the retry loop;
// a client that still can't sync is counted degraded, not fatal. A client
// retired by run cancellation is neither synced nor counted: it was
// aborted, not degraded.
func retireClient(ctx context.Context, cl *core.Client, st *Stats) {
	cl.WaitIdle()
	var err error
	for attempt := 0; attempt < finalSyncRetries; attempt++ {
		if ctx.Err() != nil {
			cl.Close()
			return
		}
		if err = cl.SyncNow(ctx); err == nil {
			break
		}
	}
	if ctx.Err() != nil && err != nil {
		// The last attempt died with the context: aborted, not degraded.
		cl.Close()
		return
	}
	st.events.Add("syncs", 1)
	if err != nil {
		st.events.Add("sync-errors", 1)
	}
	if cl.Degraded() || err != nil {
		st.events.Add("degraded", 1)
	}
	for k, v := range cl.CountersSnapshot() {
		st.clients.Add(k, v)
	}
	cl.Close()
}

// collect assembles the RunResult: the deterministic Summary from the plan
// and the final global-DB state, and the Measured section from the live
// stats and the sampled goroutine peak.
func collect(w *worldgen.World, sc *worldgen.FleetScenario, plan *Plan, st *Stats,
	workers, peakGoroutines int, elapsed time.Duration) *RunResult {
	wl := plan.Workload
	sum := Summary{
		Population:    len(plan.Clients),
		Seed:          wl.Seed,
		Sites:         wl.Sites,
		ISPs:          wl.ISPs,
		Sessions:      plan.Sessions,
		Fetches:       plan.Fetches,
		Churned:       plan.Churned,
		DistinctSites: plan.DistinctSites,
	}
	gstats := w.GlobalDB.StatsSnapshot()
	sum.RegisteredUsers = gstats.Users
	sum.BlockedURLs = gstats.BlockedURLs
	sum.BlockedDomains = gstats.BlockedDomains
	sum.ASesReporting = gstats.ASes
	sum.BlockTypes = gstats.BlockTypes

	expected := plan.ExpectedBlocked(sc)
	for j := 0; j < wl.ISPs; j++ {
		asn := worldgen.FleetBaseASN + j
		listed := make(map[string]bool)
		for _, e := range w.GlobalDB.BlockedForAS(asn) {
			listed[e.URL] = true
		}
		a := ASSummary{ASN: asn, Clients: plan.PerISP[j], PolicyBlocked: len(sc.Blocked[asn])}
		a.Expected, a.ExpectedHash = setHash(expected[asn])
		a.Listed, a.ListedHash = setHash(listed)
		sum.PerAS = append(sum.PerAS, a)
	}

	ev := st.events.Snapshot()
	m := Measured{
		VirtualSeconds: elapsed.Seconds(),
		Workers:        workers,
		Fetches:        ev["fetches"],
		FetchErrors:    ev["fetch-errors"],
		Sessions:       ev["sessions"],
		Syncs:          ev["syncs"],
		SyncErrors:     ev["sync-errors"],
		Joined:         ev["joined"],
		Left:           ev["left"],
		Degraded:       ev["degraded"],
		PeakGoroutines: peakGoroutines,
		Updates:        gstats.Updates,
		PLT:            st.pltStats(),
		Counters:       st.clients.Snapshot(),
	}
	return &RunResult{Summary: sum, Measured: m}
}
