package fleet

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"csaw/internal/leakcheck"
	"csaw/internal/worldgen"
)

// runFleet builds an event-clock world + scenario for the workload and
// executes it.
func runFleet(t *testing.T, wl Workload, workers int) *RunResult {
	t.Helper()
	return runEventFleet(t, wl, func(_ *worldgen.World, o *Options) { o.Workers = workers })
}

// runEventFleet is runFleet with an options hook: mod sees the built world
// (tracers need its clock) and the default Options before the run starts.
func runEventFleet(t *testing.T, wl Workload, mod func(w *worldgen.World, o *Options)) *RunResult {
	t.Helper()
	return runFleetWorld(t, wl, worldgen.Options{EventDriven: true, Seed: wl.Seed}, mod)
}

// runFleetOpts is runEventFleet on the real-scaled clock at scale, for the
// tests that compare engines or measure wall time.
func runFleetOpts(t *testing.T, wl Workload, scale float64, mod func(w *worldgen.World, o *Options)) *RunResult {
	t.Helper()
	return runFleetWorld(t, wl, worldgen.Options{Scale: scale, Seed: wl.Seed}, mod)
}

// runFleetWorld is the general form: the caller picks the full world options
// (clock mode included).
func runFleetWorld(t *testing.T, wl Workload, wopts worldgen.Options, mod func(w *worldgen.World, o *Options)) *RunResult {
	t.Helper()
	w, err := worldgen.New(wopts)
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	defer w.Close()
	sc, err := w.BuildFleetScenario(wl.Sites, wl.ISPs, wl.BlockedFrac)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	plan := BuildPlan(wl)
	opts := Options{Workers: DefaultWorkers}
	if mod != nil {
		mod(w, &opts)
	}
	res, err := Run(context.Background(), w, sc, plan, opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

// The driver joins and retires every client over the run; afterwards
// nothing of the client plane — sync loops, background settlements — may
// survive. The baseline is taken in the options hook, after the world is
// built, so only client/driver goroutines are measured.
func TestFleetRunLeavesNoClientGoroutines(t *testing.T) {
	wl := smokeWorkload(17)
	wl.Population = 40
	_ = runEventFleet(t, wl, func(_ *worldgen.World, o *Options) {
		o.Workers = 8
		leakcheck.Check(t)
	})
}

// A world must be collectable once its run is over and nothing
// references it, closed or not: a server's accept loop parked in Accept
// for good kept the whole world reachable after its clients were gone, so
// servers keep no goroutine on an idle listener (netem.Listener.Serve).
func TestClosedWorldIsCollected(t *testing.T) {
	for _, tc := range []struct {
		name  string
		close bool
	}{{"closed", true}, {"never closed", false}} {
		t.Run(tc.name, func(t *testing.T) {
			leakcheck.Check(t)
			wl := smokeWorkload(41)
			wl.Population = 200
			collected := make(chan struct{})
			func() {
				w, err := worldgen.New(worldgen.Options{EventDriven: true, Seed: wl.Seed})
				if err != nil {
					t.Fatalf("world: %v", err)
				}
				sc, err := w.BuildFleetScenario(wl.Sites, wl.ISPs, wl.BlockedFrac)
				if err != nil {
					t.Fatalf("scenario: %v", err)
				}
				if _, err := Run(context.Background(), w, sc, BuildPlan(wl), Options{Workers: 8}); err != nil {
					t.Fatalf("run: %v", err)
				}
				if tc.close {
					w.Close()
				}
				runtime.AddCleanup(w, func(done chan struct{}) { close(done) }, collected)
			}()
			deadline := time.Now().Add(5 * time.Second) //lint:allow-realtime collection is real-scheduler time, not simulation time
			for {
				runtime.GC()
				select {
				case <-collected:
					return
				case <-time.After(10 * time.Millisecond): //lint:allow-realtime real backoff between collections
				}
				if time.Now().After(deadline) { //lint:allow-realtime see above
					t.Fatal("the finished world is still reachable")
				}
			}
		})
	}
}

// smokeWorkload is small enough for the ordinary test run.
func smokeWorkload(seed int64) Workload {
	return Workload{
		Population:   60,
		Duration:     30 * time.Minute,
		Seed:         seed,
		Sites:        80,
		ISPs:         4,
		BlockedFrac:  0.2,
		MeanSessions: 1.5,
		MaxFetches:   3,
	}
}

func TestFleetSmoke(t *testing.T) {
	res := runFleet(t, smokeWorkload(11), 16)
	s := res.Summary
	if s.RegisteredUsers != s.Population {
		t.Errorf("registered %d of %d clients", s.RegisteredUsers, s.Population)
	}
	if !s.Consistent() {
		t.Errorf("global DB diverged from the plan expectation:\n%s", s.Render())
	}
	if s.BlockedURLs == 0 {
		t.Error("no blocked URLs reported — the scenario or detection pipeline is dead")
	}
	m := res.Measured
	if m.Fetches != s.Fetches {
		t.Errorf("executed %d fetches, planned %d", m.Fetches, s.Fetches)
	}
	if m.FetchErrors > 0 {
		t.Errorf("%d fetch errors (counters: %v)", m.FetchErrors, m.Counters)
	}
	if m.SyncErrors > 0 || m.Degraded > 0 {
		t.Errorf("sync errors %d, degraded %d", m.SyncErrors, m.Degraded)
	}
	if len(m.PLT) == 0 {
		t.Error("no PLT samples recorded")
	}
	t.Logf("\n%s%s", s.Render(), m.Render())
}

// TestFleetDeltaSyncDefault: the driver sizes the global DB's delta edit
// history to the population (deltaHistoryFor), so delta sync is the fleet's
// default path. A full body on a repeat sync is legitimate only when the
// delta would not be smaller (the empty→populated transition, or heavy
// churn — the store's size guard); what must never happen is the all-full
// regime of tags falling out of history, where every sync re-downloads the
// whole list. The bound below fails that regime with wide margin while
// tolerating the converging-phase transitions.
func TestFleetDeltaSyncDefault(t *testing.T) {
	res := runFleet(t, smokeWorkload(11), 16)
	d := res.Measured.DeltaSync()
	m := res.Measured
	if d.FetchDelta == 0 {
		t.Errorf("no delta-encoded fetches in a converging run (mix: %+v)", d)
	}
	if d.Fetch304 == 0 {
		t.Errorf("no 304s in a run with quiet sync rounds (mix: %+v)", d)
	}
	if d.ListBytes == 0 || d.BytesPerSync <= 0 {
		t.Errorf("sync-path byte accounting empty: %+v", d)
	}
	// All-full would put FetchFull at roughly Joined+Syncs; converging
	// transitions cost at most a couple of fulls per client.
	if max := m.Joined + m.Syncs/2; d.FetchFull > max {
		t.Errorf("%d full list fetches (joined %d, syncs %d) — repeat syncs fell off the delta path", d.FetchFull, m.Joined, m.Syncs)
	}
	t.Logf("sync path: %d full, %d delta, %d 304; %d list bytes (%.0f/sync)",
		d.FetchFull, d.FetchDelta, d.Fetch304, d.ListBytes, d.BytesPerSync)
}

// TestDeltaHistoryClamp pins the sizing rule the driver applies.
func TestDeltaHistoryClamp(t *testing.T) {
	for _, tc := range []struct{ pop, want int }{
		{0, 64}, {10, 64}, {64, 64}, {65, 65}, {1500, 1500}, {4096, 4096}, {100_000, 4096},
	} {
		if got := deltaHistoryFor(tc.pop); got != tc.want {
			t.Errorf("deltaHistoryFor(%d) = %d, want %d", tc.pop, got, tc.want)
		}
	}
}

// TestPlanDeterminism: equal workloads yield equal plans (pure generation,
// no execution).
func TestPlanDeterminism(t *testing.T) {
	wl := smokeWorkload(5)
	a, b := BuildPlan(wl), BuildPlan(wl)
	if a.Sessions != b.Sessions || a.Fetches != b.Fetches || a.Churned != b.Churned ||
		a.DistinctSites != b.DistinctSites {
		t.Fatalf("plan aggregates diverged: %+v vs %+v", a, b)
	}
	for i := range a.Clients {
		ca, cb := a.Clients[i], b.Clients[i]
		if ca.ISP != cb.ISP || ca.Join != cb.Join || ca.Leave != cb.Leave ||
			len(ca.Sessions) != len(cb.Sessions) {
			t.Fatalf("client %d diverged: %+v vs %+v", i, ca, cb)
		}
		for j := range ca.Sessions {
			sa, sb := ca.Sessions[j], cb.Sessions[j]
			if sa.At != sb.At || len(sa.URLs) != len(sb.URLs) {
				t.Fatalf("client %d session %d diverged", i, j)
			}
			for k := range sa.URLs {
				if sa.URLs[k] != sb.URLs[k] {
					t.Fatalf("client %d session %d url %d: %s vs %s", i, j, k, sa.URLs[k], sb.URLs[k])
				}
			}
		}
	}
}

// TestWorkloadShape sanity-checks the generators: churn bounded by the
// window, sessions inside each client's active span, fetch counts capped,
// every URL a catalog site's, and DistinctSites the number drawn.
func TestWorkloadShape(t *testing.T) {
	wl := Workload{Population: 300, Seed: 9}.WithDefaults()
	p := BuildPlan(wl)
	if len(p.Clients) != 300 {
		t.Fatalf("%d clients", len(p.Clients))
	}
	distinct := make(map[string]bool)
	perISP := 0
	for _, n := range p.PerISP {
		perISP += n
	}
	if perISP != 300 {
		t.Errorf("ISP mix sums to %d", perISP)
	}
	for _, cp := range p.Clients {
		end := wl.Duration
		if cp.Leave > 0 {
			if cp.Leave <= cp.Join || cp.Leave > wl.Duration {
				t.Fatalf("client %d: leave %v outside (join %v, window %v]", cp.Index, cp.Leave, cp.Join, wl.Duration)
			}
			end = cp.Leave
		}
		if cp.Join < 0 || cp.Join > wl.JoinWindow {
			t.Fatalf("client %d: join %v outside window %v", cp.Index, cp.Join, wl.JoinWindow)
		}
		last := time.Duration(-1)
		for _, s := range cp.Sessions {
			if s.At < cp.Join || s.At > end {
				t.Fatalf("client %d: session at %v outside [%v, %v]", cp.Index, s.At, cp.Join, end)
			}
			if s.At < last {
				t.Fatalf("client %d: sessions unsorted", cp.Index)
			}
			last = s.At
			if len(s.URLs) < 1 || len(s.URLs) > wl.MaxFetches {
				t.Fatalf("client %d: %d fetches in a session (max %d)", cp.Index, len(s.URLs), wl.MaxFetches)
			}
			for _, u := range s.URLs {
				distinct[u] = true
			}
		}
	}
	if p.Churned == 0 {
		t.Error("no churned clients at default ChurnFrac over 300 clients")
	}
	catalog := make(map[string]bool, wl.Sites)
	for i := range wl.Sites {
		catalog[worldgen.FleetSiteURL(i)] = true
	}
	for u := range distinct {
		if !catalog[u] {
			t.Fatalf("plan fetches %q, not a catalog site", u)
		}
	}
	if p.DistinctSites != len(distinct) {
		t.Fatalf("DistinctSites = %d, the plan fetches %d distinct URLs", p.DistinctSites, len(distinct))
	}
}

// TestEventModeMatchesScaledMode: the Summary is a function of the seed, not
// the clock engine. A same-seed run under the discrete-event scheduler must
// render byte-for-byte the Summary the real-scaled clock produces — the
// invariant that lets the 100k-client event runs stand in for scaled runs.
func TestEventModeMatchesScaledMode(t *testing.T) {
	wl := smokeWorkload(11)
	scaled := runFleetOpts(t, wl, 2400, nil)
	event := runFleetWorld(t, wl, worldgen.Options{EventDriven: true, Seed: wl.Seed}, nil)
	if !event.Summary.Consistent() {
		t.Errorf("event-mode global DB diverged from the plan expectation:\n%s", event.Summary.Render())
	}
	if got, want := event.Summary.Render(), scaled.Summary.Render(); got != want {
		t.Errorf("event-mode summary diverged from scaled-mode:\n--- scaled ---\n%s--- event ---\n%s", want, got)
	}
}

// TestEventModeSmoke: the event engine also holds the fleet's health
// invariants (no fetch/sync errors, nothing degraded), not just the summary.
func TestEventModeSmoke(t *testing.T) {
	res := runEventFleet(t, smokeWorkload(23), nil)
	if !res.Summary.Consistent() {
		t.Errorf("global DB diverged:\n%s", res.Summary.Render())
	}
	m := res.Measured
	if m.FetchErrors > 0 || m.SyncErrors > 0 || m.Degraded > 0 {
		t.Errorf("fetch errors %d, sync errors %d, degraded %d", m.FetchErrors, m.SyncErrors, m.Degraded)
	}
}

// TestFleetWALByteIdentical: durability must be invisible to the plan
// plane. A same-seed run against a WAL-backed global DB (with compaction
// exercised) renders byte-for-byte the Summary of the in-memory run — the
// write-ahead logging, snapshotting, and truncation never perturb ingest
// semantics, aggregation order, or validator tags.
func TestFleetWALByteIdentical(t *testing.T) {
	wl := smokeWorkload(11)
	mem := runEventFleet(t, wl, nil)
	wal := runFleetWorld(t, wl, worldgen.Options{
		EventDriven:           true,
		Seed:                  wl.Seed,
		GlobalDBWALDir:        t.TempDir(),
		GlobalDBSnapshotEvery: 64, // force several compactions over the run
	}, nil)
	if !wal.Summary.Consistent() {
		t.Errorf("WAL-backed global DB diverged from the plan expectation:\n%s", wal.Summary.Render())
	}
	if got, want := wal.Summary.Render(), mem.Summary.Render(); got != want {
		t.Errorf("WAL-backed summary diverged from in-memory:\n--- mem ---\n%s--- wal ---\n%s", want, got)
	}
	if wal.Measured.SyncErrors > 0 || wal.Measured.Degraded > 0 {
		t.Errorf("sync errors %d, degraded %d against the WAL store",
			wal.Measured.SyncErrors, wal.Measured.Degraded)
	}
}

// TestFleetRunCancellation is the regression test for two driver bugs: a
// cancelled run used to let every worker finish its full timeline (minutes
// of wall time after the caller gave up), and the join/retire retry loops
// burned their full retry budgets against the dead context. The run must
// return promptly with the cancellation error and count no spurious
// degraded clients.
func TestFleetRunCancellation(t *testing.T) {
	wl := smokeWorkload(31)
	w, err := worldgen.New(worldgen.Options{Scale: 120, Seed: wl.Seed})
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	defer w.Close()
	sc, err := w.BuildFleetScenario(wl.Sites, wl.ISPs, wl.BlockedFrac)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	plan := BuildPlan(wl)

	// At scale 120 the 30m window takes ~15s of wall time: plenty of margin
	// between "cancelled promptly" and "ran to completion".
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	opts := Options{Workers: 8, Progress: func(Snapshot) {
		once.Do(cancel) // first virtual minute: run is mid-flight
	}}
	start := time.Now() //lint:allow-realtime asserting prompt cancellation needs wall time
	res, err := Run(ctx, w, sc, plan, opts)
	took := time.Since(start) //lint:allow-realtime see above
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run after cancel = (%v, %v), want context.Canceled", res, err)
	}
	if took > 8*time.Second {
		t.Errorf("cancelled run returned after %v — workers kept executing their timelines", took)
	}
}

// TestRetireClientCancelledNoDegraded: a client retired because the run was
// cancelled was aborted, not degraded — it must contribute neither sync
// attempts nor a degraded count to the stats.
func TestRetireClientCancelledNoDegraded(t *testing.T) {
	wl := smokeWorkload(37)
	w, err := worldgen.New(worldgen.Options{EventDriven: true, Seed: wl.Seed})
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	defer w.Close()
	sc, err := w.BuildFleetScenario(wl.Sites, wl.ISPs, wl.BlockedFrac)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	plan := BuildPlan(wl)
	cl, err := joinClient(context.Background(), w, sc, &plan.Clients[0], Options{})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	st := newStats()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	retireClient(ctx, cl, st)
	if ev := st.events.Snapshot(); len(ev) != 0 {
		t.Errorf("cancelled retire recorded %v, want no degraded, syncs or sync-errors", ev)
	}
}

// TestPLTStatsIgnoreArrivalOrder: more samples of one source than a
// 4,096-sample reservoir holds, fed in two orders, summarize the same.
// Exact quantiles are a function of the samples, not of how the workers
// interleave. Every sample is a whole number of quarter seconds, exact in
// binary, so the running sum behind Mean does not depend on order either.
func TestPLTStatsIgnoreArrivalOrder(t *testing.T) {
	const n = 5000
	up, down := newStats(), newStats()
	for i := 0; i < n; i++ {
		up.recordFetch("direct", time.Duration(i+1)*time.Second/4, false)
		down.recordFetch("direct", time.Duration(n-i)*time.Second/4, false)
	}
	if a, b := up.pltStats(), down.pltStats(); a["direct"] != b["direct"] || a["direct"].N != n {
		t.Fatalf("ascending %+v, descending %+v", a, b)
	}
}
