package experiments

import (
	"context"
	"errors"
	"fmt"
	"time"

	"csaw/internal/censor"
	"csaw/internal/core"
	"csaw/internal/metrics"
	"csaw/internal/netem"
	"csaw/internal/worldgen"
)

// SyncFault measures how the client↔global_DB sync pipeline behaves when
// the DB goes dark (§5: the censor may block the DB itself, and censored
// links are flaky). A fleet of clients measures a blocked URL, then the DB
// suffers a full outage: the clients' circuit breakers must open (no more
// traffic burned against a dead server), the pending reports must survive
// locally, and after the outage ends one half-open probe round must
// reconverge everyone — each report posted exactly once, none lost. A final
// client exercises the in-loop retry/backoff path across a transient
// glitch.
var SyncFault = experiment("sync-fault", scenario{scale: 500, sites: caseStudy}, func(r *rig) *Result {
	w, ispA, ctx := r.w, r.isps[0], context.Background()
	ispA.Censor.SetPolicy(&censor.Policy{
		DNS: map[string]censor.DNSAction{"youtube.com": censor.DNSNXDomain},
	})
	faults := w.GlobalDB.Faults()
	nClients := r.runs(4)

	const breakerAfter = 3
	var clients []*core.Client
	for i := 0; i < nClients; i++ {
		clients = append(clients, r.client(fmt.Sprintf("sf-user-%d", i), int64(i), true, func(cfg *core.Config) {
			cfg.SyncInterval = time.Hour // rounds driven explicitly below
			cfg.ASNProbeAddr = ""
			cfg.Sync = core.SyncPolicy{
				Retries:      -1, // isolate the breaker from in-round retries
				BreakerAfter: breakerAfter,
				BreakerReset: 10 * time.Minute,
			}
		}))
	}

	// Each client measures the blocked URL once → one pending report each.
	pendingBefore := 0
	for _, cl := range clients {
		_ = cl.FetchURL(ctx, worldgen.YouTubeHost+"/")
		cl.WaitIdle()
		pendingBefore += len(cl.DB().PendingGlobal())
	}
	updatesBefore := w.GlobalDB.StatsSnapshot().Updates

	// The DB goes dark. Clients keep trying until their breakers open, then
	// go local-only; further rounds must not reach the network at all.
	faults.SetOutage(true)
	for _, cl := range clients {
		for round := 0; round < breakerAfter; round++ {
			r.hold(cl.SyncNow(ctx) != nil, "sync succeeded during outage")
		}
		r.hold(cl.Degraded(), "breaker closed after %d failed rounds", breakerAfter)
	}
	faultedAtOpen := faults.Injected()
	skipped := 0
	for _, cl := range clients {
		for round := 0; round < 3; round++ {
			err := cl.SyncNow(ctx)
			r.hold(errors.Is(err, core.ErrSyncDegraded), "open-breaker round returned %v", err)
			skipped++
		}
	}
	r.hold(faults.Injected() == faultedAtOpen, "open breakers still sent %d requests", faults.Injected()-faultedAtOpen)

	// Outage ends; after the reset window every client's half-open probe
	// must reconverge it in a single round.
	faults.SetOutage(false)
	outageEnd := w.Clock.Now()
	w.Clock.Advance(11 * time.Minute)
	for i, cl := range clients {
		r.ok(cl.SyncNow(ctx), "client %d recovery round", i)
		r.hold(!cl.Degraded(), "client %d still degraded after recovery", i)
	}
	convergence := w.Clock.Now().Sub(outageEnd)

	// Invariants: every pending report posted exactly once, none left, and
	// everyone's global cache now lists the blocked URL.
	posted := w.GlobalDB.StatsSnapshot().Updates - updatesBefore
	pendingAfter, converged := 0, 0
	for _, cl := range clients {
		pendingAfter += len(cl.DB().PendingGlobal())
		if cl.GlobalCacheLen() > 0 {
			converged++
		}
		cl.Close() // quiesce phase-A loops before the retry-path client runs
	}
	r.hold(posted == pendingBefore, "%d reports pending before the outage but %d updates after (lost or double-posted)", pendingBefore, posted)
	r.hold(pendingAfter == 0, "%d reports still pending after recovery", pendingAfter)
	r.hold(converged == nClients, "only %d/%d clients see the blocked list", converged, nClients)

	// Transient-glitch path: the link to the DB flaps (two dropped connects
	// at the emulated ISP egress); a background-loop client rides it out
	// purely on in-loop retry/backoff, never tripping its breaker.
	rc := r.client("sf-retry-user", 100, true, func(cfg *core.Config) {
		cfg.ASNProbeAddr = ""
		cfg.SyncInterval = 2 * time.Minute
		cfg.Sync = core.SyncPolicy{Retries: 3, BackoffBase: 5 * time.Second, BackoffMax: 20 * time.Second}
	})
	link := w.InjectLinkFault(ispA, worldgen.GlobalDBIP)
	link.SetVerdict(netem.VerdictReset)
	link.FailNext(2)
	deadline := w.Clock.Now().Add(30 * time.Minute)
	var rst map[string]int
	for w.Clock.Now().Before(deadline) {
		rst = rc.CountersSnapshot()
		if rst["sync-retries"] >= 1 && rst["sync-ok"] >= 2 && rc.LastSyncError() == nil {
			break
		}
		w.Clock.Sleep(10 * time.Second)
	}
	r.hold(rst["sync-retries"] >= 1 && rst["sync-ok"] >= 2 && !rc.Degraded(), "retry path never recovered: %v", rst)

	res := &Result{Title: "Sync convergence under global-DB outages"}
	tbl := metrics.Table{Headers: []string{"quantity", "value"}}
	tbl.AddRow("clients", fmt.Sprintf("%d", nClients))
	tbl.AddRow("reports pending at outage start", fmt.Sprintf("%d", pendingBefore))
	tbl.AddRow("reports posted after recovery", fmt.Sprintf("%d", posted))
	tbl.AddRow("reports lost", "0")
	tbl.AddRow("reports double-posted", "0")
	tbl.AddRow("faulted requests until breakers opened", fmt.Sprintf("%d", faultedAtOpen))
	tbl.AddRow("rounds skipped while open (no traffic)", fmt.Sprintf("%d", skipped))
	tbl.AddRow("reconvergence after outage (virtual)", fmtDur(convergence))
	tbl.AddRow("transient glitch: in-loop retries", fmt.Sprintf("%d", rst["sync-retries"]))
	res.Text = tbl.String()
	res.Metric("clients", float64(nClients))
	res.Metric("reports.pending", float64(pendingBefore))
	res.Metric("reports.posted", float64(posted))
	res.Metric("reports.lost", float64(pendingBefore-posted+pendingAfter))
	res.Metric("breaker.faulted_until_open", float64(faultedAtOpen))
	res.Metric("breaker.skipped_rounds", float64(skipped))
	res.Metric("convergence_s", convergence.Seconds())
	res.Metric("retry.in_loop_retries", float64(rst["sync-retries"]))
	res.Note("the breaker caps wasted traffic at BreakerAfter×(ASes+report batches) requests per client; everything pending rides out the outage in the local_DB and posts exactly once on recovery")
	return res
})
