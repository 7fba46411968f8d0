package core_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"csaw/internal/core"
	"csaw/internal/globaldb"
	"csaw/internal/httpx"
	"csaw/internal/localdb"
	"csaw/internal/netem"
	"csaw/internal/worldgen"
)

// newSyncWorld builds a world plus a client whose background loops stay
// quiet (hour-long sync interval, no ASN probe) so tests drive SyncNow
// deterministically. It also returns the client's globaldb handle and host
// so tests can register and seed the DB directly.
func newSyncWorld(t *testing.T, mutate func(*core.Config), isps ...string) (*worldgen.World, *core.Client, *globaldb.Client, *netem.Host) {
	t.Helper()
	var gdb *globaldb.Client
	var host *netem.Host
	w, c := newCaseStudyClient(t, func(cfg *core.Config) {
		cfg.SyncInterval = time.Hour
		cfg.ASNProbeAddr = ""
		if mutate != nil {
			mutate(cfg)
		}
		gdb = cfg.GlobalDB
		host = cfg.Host
	}, isps...)
	return w, c, gdb, host
}

// newReporter registers a bare global-DB client on host's direct path and
// posts recs through it, so tests can seed the DB without a core.Client.
func newReporter(t *testing.T, w *worldgen.World, host *netem.Host, token string, recs ...localdb.Record) *globaldb.Client {
	t.Helper()
	g := &globaldb.Client{
		Endpoints: w.GlobalDBEndpoints, Host: worldgen.GlobalDBHost,
		Clock: w.Clock, ReportDial: host.Dial, FetchDial: host.Dial,
	}
	ctx := context.Background()
	if err := g.Register(ctx, token); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Report(ctx, recs); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSyncPartialASFailure(t *testing.T) {
	// A multihomed client keeps the reachable AS's fresh list AND the failed
	// AS's stale list when one per-AS fetch dies mid-round — whichever AS it
	// is, and also for a URL both providers list.
	w, c, _, host := newSyncWorld(t, nil, "ISP-A", "ISP-B")
	ctx := context.Background()

	// Seed the DB via direct reporters: one URL per AS and one in both. AS-B's
	// copy of the shared URL comes from a second reporter, so the providers'
	// vote sums for it differ and a double count cannot hide behind symmetry.
	asA, asB := 17557, 38193
	dns := []localdb.Stage{{Type: localdb.BlockDNS}}
	page := []localdb.Stage{{Type: localdb.BlockHTTP, Detail: "blockpage"}}
	seeder := newReporter(t, w, host, "human-seeder",
		localdb.Record{URL: "a.example/", ASN: asA, Status: localdb.Blocked, Stages: dns},
		localdb.Record{URL: "b.example/", ASN: asB, Status: localdb.Blocked, Stages: page},
		localdb.Record{URL: "both.example/", ASN: asA, Status: localdb.Blocked, Stages: dns})
	newReporter(t, w, host, "human-seeder-2",
		localdb.Record{URL: "both.example/", ASN: asB, Status: localdb.Blocked, Stages: page})
	wantVotes := 0.0
	for _, asn := range []int{asA, asB} {
		list, err := seeder.FetchBlocked(ctx, asn)
		if err != nil {
			t.Fatal(err)
		}
		i := slices.IndexFunc(list, func(e globaldb.Entry) bool { return e.URL == "both.example/" })
		if i < 0 {
			t.Fatalf("AS%d does not list both.example/", asn)
		}
		wantVotes += list[i].Votes
	}
	// checkBoth asserts the shared URL's lookup is the union of both
	// providers' stages with each provider's votes counted exactly once.
	checkBoth := func(when string) {
		t.Helper()
		e, ok := c.GlobalLookup("both.example/")
		if !ok {
			t.Fatalf("%s: both.example/ not found", when)
		}
		var types []int
		for _, s := range e.Stages {
			types = append(types, s.Type)
		}
		sort.Ints(types)
		if want := []int{int(localdb.BlockDNS), int(localdb.BlockHTTP)}; !slices.Equal(types, want) {
			t.Errorf("%s: stage types = %v, want %v (union of both providers)", when, types, want)
		}
		if e.Votes != wantVotes {
			t.Errorf("%s: votes = %v, want %v (each provider's once)", when, e.Votes, wantVotes)
		}
	}

	if err := c.SyncNow(ctx); err != nil {
		t.Fatalf("healthy sync: %v", err)
	}
	if n := c.GlobalCacheLen(); n != 3 {
		t.Fatalf("cache = %d entries after healthy sync, want 3", n)
	}
	checkBoth("healthy sync")

	// Fail one AS's fetches, then the other's: each round errors but keeps
	// the reachable AS's fresh list and the failed AS's stale one.
	w.GlobalDB.Faults().SetOutage(true)
	for i, asn := range []int{asA, asB} {
		when := fmt.Sprintf("AS%d refresh failed", asn)
		w.GlobalDB.Faults().SetPathFilter(fmt.Sprintf("asn=%d", asn))
		err := c.SyncNow(ctx)
		if err == nil || errors.Is(err, core.ErrSyncDegraded) {
			t.Fatalf("%s: partial failure should surface an error, got %v", when, err)
		}
		if n := c.GlobalCacheLen(); n != 3 {
			t.Fatalf("%s: cache = %d entries, want 3 (stale list kept)", when, n)
		}
		checkBoth(when)
		st := c.CountersSnapshot()
		if st["sync-partial"] != i+1 || st["sync-failures"] != i+1 {
			t.Fatalf("%s: counters = %v, want sync-partial=sync-failures=%d", when, st, i+1)
		}
		if got := c.Counter("sync-fetch-failures"); got != i+1 {
			t.Fatalf("%s: sync-fetch-failures = %d, want %d", when, got, i+1)
		}
	}

	// Recovery clears the error path and refreshes everything.
	w.GlobalDB.Faults().SetOutage(false)
	if err := c.SyncNow(ctx); err != nil {
		t.Fatalf("sync after recovery: %v", err)
	}
	if err := c.LastSyncError(); err != nil {
		t.Fatalf("last sync error after recovery = %v", err)
	}
	checkBoth("recovery")
}

func TestSyncCircuitBreaker(t *testing.T) {
	// Consecutive failures open the breaker (local-only mode, no network
	// traffic); after the reset window a half-open probe closes it again,
	// and no pending report is lost or double-posted across the outage.
	w, c, gdb, _ := newSyncWorld(t, func(cfg *core.Config) {
		cfg.Sync = core.SyncPolicy{Retries: -1, BreakerAfter: 2, BreakerReset: 10 * time.Minute}
	}, "ISP-A")
	ctx := context.Background()
	if err := gdb.Register(ctx, "human-test"); err != nil {
		t.Fatal(err)
	}
	c.DB().Put("blocked.example/", 17557, localdb.Blocked, []localdb.Stage{{Type: localdb.BlockDNS}})

	w.GlobalDB.Faults().SetOutage(true)
	for i := 0; i < 2; i++ {
		if err := c.SyncNow(ctx); err == nil {
			t.Fatalf("sync %d succeeded during outage", i)
		}
	}
	if !c.Degraded() {
		t.Fatal("breaker still closed after BreakerAfter failures")
	}
	injected := w.GlobalDB.Faults().Injected()
	if err := c.SyncNow(ctx); !errors.Is(err, core.ErrSyncDegraded) {
		t.Fatalf("open-breaker sync = %v, want ErrSyncDegraded", err)
	}
	if got := w.GlobalDB.Faults().Injected(); got != injected {
		t.Fatalf("open breaker still generated traffic (%d → %d requests faulted)", injected, got)
	}
	if c.Counter("sync-skipped") != 1 {
		t.Fatalf("sync-skipped = %d, want 1", c.Counter("sync-skipped"))
	}

	// The outage ends; after the reset window a half-open probe recovers.
	w.GlobalDB.Faults().SetOutage(false)
	if err := c.SyncNow(ctx); !errors.Is(err, core.ErrSyncDegraded) {
		t.Fatalf("pre-window sync = %v, want still degraded", err)
	}
	w.Clock.Advance(11 * time.Minute)
	if err := c.SyncNow(ctx); err != nil {
		t.Fatalf("half-open probe: %v", err)
	}
	if c.Degraded() {
		t.Fatal("breaker still open after successful probe")
	}
	if c.Counter("sync-circuit-open") != 1 || c.Counter("sync-circuit-close") != 1 {
		t.Fatalf("breaker counters open=%d close=%d, want 1/1",
			c.Counter("sync-circuit-open"), c.Counter("sync-circuit-close"))
	}

	// Exactly-once across the outage: the one pending report was posted
	// once, and nothing is pending anymore.
	if up := w.GlobalDB.StatsSnapshot().Updates; up != 1 {
		t.Fatalf("server updates = %d, want exactly 1 across the outage", up)
	}
	if left := len(c.DB().PendingGlobal()); left != 0 {
		t.Fatalf("%d reports still pending after recovery", left)
	}
}

func TestSyncBatchingAndOverflow(t *testing.T) {
	// SyncMaxPending bounds a round's report intake (overflow deferred, not
	// lost); SyncMaxBatch splits the posts; every record is posted exactly
	// once.
	w, c, gdb, _ := newSyncWorld(t, nil, "ISP-A")
	ctx := context.Background()
	if err := gdb.Register(ctx, "human-test"); err != nil {
		t.Fatal(err)
	}
	const total = core.SyncMaxPending + 2
	for i := 0; i < total; i++ {
		c.DB().Put(fmt.Sprintf("blocked-%d.example/", i), 17557, localdb.Blocked,
			[]localdb.Stage{{Type: localdb.BlockDNS}})
	}

	if err := c.SyncNow(ctx); err != nil {
		t.Fatalf("first round: %v", err)
	}
	if st := c.CountersSnapshot(); st["reports-posted"] != core.SyncMaxPending || st["sync-report-deferred"] != 2 {
		t.Fatalf("counters after first round = %v, want reports-posted=%d sync-report-deferred=2", st, core.SyncMaxPending)
	}
	if left := len(c.DB().PendingGlobal()); left != 2 {
		t.Fatalf("pending after first round = %d, want 2", left)
	}

	if err := c.SyncNow(ctx); err != nil {
		t.Fatalf("second round: %v", err)
	}
	if posted := c.Counter("reports-posted"); posted != total {
		t.Fatalf("posted = %d, want %d", posted, total)
	}
	if up := w.GlobalDB.StatsSnapshot().Updates; up != total {
		t.Fatalf("server updates = %d, want %d (each record exactly once)", up, total)
	}
}

func TestSyncReportFailureRetriesNextRound(t *testing.T) {
	// A failed Report leaves its records pending; the next round posts them
	// without double-posting anything already acknowledged.
	w, c, gdb, _ := newSyncWorld(t, func(cfg *core.Config) {
		cfg.Sync = core.SyncPolicy{Retries: -1}
	}, "ISP-A")
	ctx := context.Background()
	if err := gdb.Register(ctx, "human-test"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		c.DB().Put(fmt.Sprintf("blocked-%d.example/", i), 17557, localdb.Blocked,
			[]localdb.Stage{{Type: localdb.BlockDNS}})
	}
	if err := c.SyncNow(ctx); err != nil { // warm-up round with no faults
		t.Fatalf("warm-up: %v", err)
	}
	if up := w.GlobalDB.StatsSnapshot().Updates; up != 4 {
		t.Fatalf("updates = %d, want 4", up)
	}

	// Now 2 fresh records, and the very next report post fails.
	c.DB().Put("late-0.example/", 17557, localdb.Blocked, []localdb.Stage{{Type: localdb.BlockDNS}})
	c.DB().Put("late-1.example/", 17557, localdb.Blocked, []localdb.Stage{{Type: localdb.BlockDNS}})
	w.GlobalDB.Faults().SetPathFilter(globaldb.PathReport)
	w.GlobalDB.Faults().FailNext(1)
	if err := c.SyncNow(ctx); err == nil {
		t.Fatal("round with failed report returned nil")
	}
	if left := len(c.DB().PendingGlobal()); left != 2 {
		t.Fatalf("pending after failed report = %d, want 2 (kept for retry)", left)
	}
	if err := c.SyncNow(ctx); err != nil {
		t.Fatalf("retry round: %v", err)
	}
	if up := w.GlobalDB.StatsSnapshot().Updates; up != 6 {
		t.Fatalf("updates = %d, want 6 (no loss, no double-post)", up)
	}
}

func TestSyncBackgroundRetryRecovers(t *testing.T) {
	// The background loop retries a failed round with backoff instead of
	// dropping the error on the floor (the old `_ = c.SyncNow(ctx)`).
	w, c := newCaseStudyClient(t, func(cfg *core.Config) {
		cfg.SyncInterval = 30 * time.Second // 100ms real at scale 300
		cfg.ASNProbeAddr = ""
		cfg.Sync = core.SyncPolicy{Retries: 2, BackoffBase: 2 * time.Second, BackoffMax: 5 * time.Second}
	}, "ISP-A")
	if err := c.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The next round's first fetch fails; its in-loop retry must recover.
	w.GlobalDB.Faults().SetPathFilter("asn=")
	w.GlobalDB.Faults().FailNext(1)

	deadline := time.Now().Add(10 * time.Second) //lint:allow-realtime polling a background goroutine's progress needs wall time
	for time.Now().Before(deadline) {
		st := c.CountersSnapshot()
		if st["sync-retries"] >= 1 && st["sync-ok"] >= 2 && !c.Degraded() && c.LastSyncError() == nil {
			return
		}
		time.Sleep(20 * time.Millisecond) //lint:allow-realtime see above
	}
	t.Fatalf("background retry never recovered: %v (last error %v)", c.CountersSnapshot(), c.LastSyncError())
}

// TestLeaderChaseCounted: a list fetch that a fenced node answers with 421
// and a leader hint is re-issued at the leader, and the chase shows up in
// the client's counters as gdb-leader-chases — the one global-DB count the
// hand-written fold used to drop. Counter reads the same registry the
// snapshot does, gdb- names included.
func TestLeaderChaseCounted(t *testing.T) {
	w, c, gdb, _ := newSyncWorld(t, func(cfg *core.Config) { cfg.SyncInterval = -1 }, "ISP-A")
	ctx := context.Background()
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	leader := w.GlobalDBEndpoints[0]
	fenced := w.Net.MustAddHost("fenced-node", "198.51.100.77", "us", w.Net.AS(900))
	l, err := fenced.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	httpx.Serve(l, httpx.HandlerFunc(func(*httpx.Request, netem.Flow) *httpx.Response {
		resp := httpx.NewResponse(globaldb.StatusFenced, []byte("fenced: stale term"))
		resp.Header.Set(globaldb.TermHeader, "2")
		resp.Header.Set(globaldb.LeaderHeader, leader)
		return resp
	}))
	gdb.Endpoints = []string{fenced.IP() + ":80"}

	if err := c.SyncNow(ctx); err != nil {
		t.Fatalf("sync through a fenced node: %v", err)
	}
	snap := c.CountersSnapshot()
	if snap["gdb-leader-chases"] != 1 || snap["gdb-fetch-304"] != 1 {
		t.Fatalf("counters = %v, want one leader chase answered 304 by the leader", snap)
	}
	for k, v := range snap {
		if got := c.Counter(k); got != v {
			t.Errorf("Counter(%q) = %d, snapshot holds %d", k, got, v)
		}
	}
}

func TestSyncBackoffSchedule(t *testing.T) {
	p := core.SyncPolicy{BackoffBase: time.Second, BackoffMax: 8 * time.Second}
	for i, want := range []time.Duration{
		time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second, 8 * time.Second,
	} {
		if got := p.Backoff(i, 0); got != want {
			t.Errorf("Backoff(%d, 0) = %v, want %v", i, got, want)
		}
	}
	// Full jitter extends by DefaultSyncJitterFrac of the delay.
	if got := p.Backoff(1, 1.0); got != 2400*time.Millisecond {
		t.Errorf("Backoff(1, 1.0) = %v, want 2.4s", got)
	}
	// Zero policy uses the documented defaults.
	var zero core.SyncPolicy
	if got := zero.Backoff(0, 0); got != core.DefaultSyncBackoffBase {
		t.Errorf("zero policy base = %v", got)
	}
}
