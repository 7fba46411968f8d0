package experiments

import (
	"context"
	"fmt"
	"maps"
	"time"

	"csaw/internal/censor"
	"csaw/internal/core"
	"csaw/internal/globaldb"
	"csaw/internal/metrics"
	"csaw/internal/worldgen"
)

// dbLossFlip is the virtual offset from arming to the censor blackholing
// the global DB primary's IP; the round after runs at flip+1min. In the
// primary-loss scenario the primary's process dies at the same instant, so
// only a promoted follower can keep accepting writes.
const dbLossFlip = 10 * time.Minute

// dbLossWorld is the world both global-DB loss scenarios run in: the case
// study's two censored ASes in front of a primary plus two followers in
// distinct worldgen regions (us / Netherlands / Germany).
func dbLossWorld(missedThreshold int) scenario {
	return scenario{scale: 500, sites: caseStudy,
		world: worldgen.Options{GlobalDBReplicas: 2, GlobalDBMissedThreshold: missedThreshold}}
}

// lossMember is one client of the loss scenarios' fleet with the handles the
// cross-checks need: the core client, its global-DB client (for exact
// failover counters), and its ISP.
type lossMember struct {
	name string
	cl   *core.Client
	gdb  *globaldb.Client
	isp  *worldgen.ISP
	base map[string]int // global-DB counters at the pre-flip quiesced state
}

// delta is the member's global-DB counter movement since the pre-flip
// snapshot, every key included.
func (m *lossMember) delta() map[string]int {
	return metrics.Diff(m.gdb.Counters().Snapshot(), m.base)
}

// lossFleet starts nPer clients per censored AS whose sync rounds the
// experiment drives explicitly.
func lossFleet(r *rig, prefix string, nPer int) []*lossMember {
	var members []*lossMember
	for i := 0; i < nPer; i++ {
		for j, label := range []string{"a", "b"} {
			m := &lossMember{name: fmt.Sprintf("%s-%s-%d", prefix, label, i), isp: r.isps[j]}
			m.cl = r.client(m.name, int64(len(members))*7+11, true, func(cfg *core.Config) {
				cfg.SyncInterval = -1 // rounds driven explicitly
				cfg.ASNProbeAddr = ""
				// Once the blackhole catches the primary it stays benched:
				// every later call goes straight to the first follower, which
				// keeps the per-round failover arithmetic exact.
				cfg.GlobalDB.ReplicaCooldown = 12 * time.Hour
				m.gdb = cfg.GlobalDB
			}, m.isp)
			members = append(members, m)
		}
	}
	return members
}

// measure has the member fetch a blocked page and claims that exactly one
// report is left pending. The parallel fetch path returns as soon as a copy
// of the page is in hand and the blocked verdict settles in the background,
// so the pending queue after WaitIdle is the assertion, not the Result.
func (m *lossMember) measure(r *rig, host string) {
	_ = m.cl.FetchURL(context.Background(), host+"/")
	m.cl.WaitIdle()
	got := len(m.cl.DB().PendingGlobal())
	r.hold(got == 1, "%s has %d pending reports after measuring %s, want 1", m.name, got, host)
}

// flipDBLoss arms the loss epoch on both censors — they keep their
// URL-blocking policies and start dropping SYNs to the primary's IP — and
// moves the clock past the flip.
func flipDBLoss(r *rig, arm func(*worldgen.ISP, int64, time.Duration) ([]censor.Epoch, error)) {
	for i, isp := range r.isps {
		_, err := arm(isp, r.seed+int64(i), dbLossFlip)
		r.ok(err, "arming %s", isp.AS.Name)
	}
	r.w.Clock.Advance(dbLossFlip + time.Minute)
}

// dbLossScenarioTable is the scenario half of both reports.
func dbLossScenarioTable(replicaSet string, nPer int) string {
	scn := metrics.Table{Headers: []string{"quantity", "value"}}
	scn.AddRow("replica set", replicaSet)
	scn.AddRow("censored ASes", "2 (ISP-A, ISP-B)")
	scn.AddRow("clients per AS", fmt.Sprintf("%d", nPer))
	scn.AddRow("flip offset after arming", fmtDur(dbLossFlip))
	return "scenario:\n" + scn.String() + "\nconvergence invariants (all cross-checked exactly):\n"
}

// ReplicaLoss reproduces the §5 resilience argument end to end: the global
// DB runs as a primary plus two followers in different regions, a fleet of
// clients in two censored ASes measures and syncs normally, and then the
// censor blackholes the primary's IP mid-run (the Turkmenistan-style move
// against hosted infrastructure). Every client must fail over to a follower
// within its very next sync round — the cross-replica ETag turns the
// failover fetch into a 304, so the switch costs no list bytes — and the
// crowd keeps converging: a post-flip measurement reported through a
// follower (which forwards writes to the primary) reaches every AS-mate one
// replication pass later. All counters are cross-checked exactly: failovers,
// down transitions, 304/full/delta mix per AS, the censor's SYN drops, and
// the primary's user/update totals.
var ReplicaLoss = experiment("replica-loss", dbLossWorld(0), func(r *rig) *Result {
	w, ispB, ctx := r.w, r.isps[1], context.Background()
	nPer := r.runs(3)
	members := lossFleet(r, "rl", nPer)
	primaryEP := w.GlobalDBEndpoints[0]
	// replicate runs two passes: the first ships the log, the second carries
	// the acks (acks ride the next pull).
	replicate := func() {
		for i := 0; i < 2; i++ {
			r.ok(w.ReplicaSet.SyncAll(ctx), "replication pass")
		}
	}

	// Phase 1 (clean epoch): everyone measures the blocked page and posts
	// its report; two replication passes plus two sync rounds leave every
	// replica byte-identical and every client holding the converged list
	// and its current tag.
	for _, m := range members {
		m.measure(r, worldgen.YouTubeHost)
	}
	for round := 1; round <= 2; round++ {
		for _, m := range members {
			r.ok(m.cl.SyncNow(ctx), "%s pre-flip round %d", m.name, round)
		}
		replicate()
	}
	// Quiesced check: one more round must be all 304s — the fleet and the
	// replicas agree on the list version.
	pre304 := make([]int, len(members))
	for i, m := range members {
		pre304[i] = m.gdb.Counters().Get("fetch-304")
	}
	for i, m := range members {
		r.ok(m.cl.SyncNow(ctx), "%s quiesce round", m.name)
		got := m.gdb.Counters().Get("fetch-304")
		r.hold(got == pre304[i]+1, "%s quiesce round was not a 304 (fetch-304 %d→%d)", m.name, pre304[i], got)
	}
	lag := w.GlobalDB.ReplicationFeed().Stats()
	r.hold(lag.MaxLag == 0 && len(lag.Followers) == 2, "pre-flip feed not quiesced: %+v", lag)
	for _, m := range members {
		m.base = m.gdb.Counters().Snapshot()
		r.hold(m.base["failovers"] == 0 && m.base["replica-down"] == 0, "%s failed over before the flip: %v", m.name, m.base)
	}
	before := w.GlobalDB.StatsSnapshot()
	r.hold(before.Users == 2*nPer && before.Updates == 2*nPer, "primary has %d users / %d updates pre-flip, want %d / %d", before.Users, before.Updates, 2*nPer, 2*nPer)

	flipDBLoss(r, w.ArmReplicaLoss)

	// Failover round: the very next sync round after the flip must succeed
	// for every client — one timed-out attempt against the primary, then a
	// follower answers, and the shared tag makes the answer a 304.
	for _, m := range members {
		r.ok(m.cl.SyncNow(ctx), "%s did not fail over within one sync round", m.name)
		d := m.delta()
		r.hold(maps.Equal(d, map[string]int{"failovers": 1, "replica-down": 1, "fetch-304": 1}),
			"%s failover round moved %v, want exactly one failover, one down transition, one 304", m.name, d)
		r.hold(m.gdb.LastServed() != primaryEP, "%s still served by the blackholed primary %s", m.name, primaryEP)
	}

	// Post-flip drift: one AS-A client measures a second blocked page and
	// reports it through the followers (which forward writes to the
	// primary); two replication passes later every follower serves the
	// grown list.
	reporter := members[0]
	reporter.measure(r, worldgen.PornHost)
	r.ok(reporter.cl.SyncNow(ctx), "reporter drift round")
	r.hold(w.GlobalDB.StatsSnapshot().Updates == before.Updates+1, "post-flip report did not reach the primary (updates %d, want %d)", w.GlobalDB.StatsSnapshot().Updates, before.Updates+1)
	replicate()

	// Reconvergence round: AS-A refetches the grown list from a follower;
	// AS-B's list is untouched, so its clients still 304.
	for _, m := range members {
		r.ok(m.cl.SyncNow(ctx), "%s reconvergence round", m.name)
	}

	// Exact per-client accounting since the pre-flip snapshot. Post-flip
	// API calls: everyone did the failover fetch and the reconvergence
	// fetch; the reporter added one report POST and one drift-round fetch
	// (a 304 — the follower it hit had not replicated yet). All of them
	// were served by a follower, so calls == failovers.
	var sumFailovers, sumDown, sum304, sumRefetch, wantFailovers int
	for _, m := range members {
		d := m.delta()
		refetch := d["fetch-full"] + d["fetch-delta"]
		sumFailovers += d["failovers"]
		sumDown += d["replica-down"]
		sum304 += d["fetch-304"]
		sumRefetch += refetch
		wantCalls, want304, wantRefetch, wantLen := 2, 1, 1, 2
		switch {
		case m == reporter:
			wantCalls, want304 = 4, 2
		case m.isp == ispB:
			want304, wantRefetch, wantLen = 2, 0, 1
		}
		wantFailovers += wantCalls
		r.hold(d["failovers"] == wantCalls && d["replica-down"] == 1, "%s post-flip failovers/down = %d/%d, want %d/1", m.name, d["failovers"], d["replica-down"], wantCalls)
		r.hold(d["fetch-304"] == want304 && refetch == wantRefetch, "%s post-flip fetch mix 304=%d full+delta=%d, want %d/%d",
			m.name, d["fetch-304"], refetch, want304, wantRefetch)
		r.hold(d["leader-chases"] == 0, "%s chased a leader hint %d times; the primary never fenced", m.name, d["leader-chases"])
		r.hold(m.cl.GlobalCacheLen() == wantLen, "%s trusts %d global URLs after reconvergence, want %d", m.name, m.cl.GlobalCacheLen(), wantLen)
	}
	r.hold(sumFailovers == wantFailovers && sumDown == 2*nPer, "fleet failovers/down = %d/%d, want %d/%d", sumFailovers, sumDown, wantFailovers, 2*nPer)

	// The censor saw exactly one dropped SYN per client — the failover
	// round's single attempt against the primary; the benched endpoint is
	// never retried. And each censor flipped its policy exactly once.
	ipDrops := 0
	for _, isp := range r.isps {
		st := &isp.Censor.Counters
		ipDrops += st.Get("ip-drop")
		r.hold(st.Get("ip-drop") == nPer, "%s dropped %d SYNs to the primary, want %d", isp.AS.Name, st.Get("ip-drop"), nPer)
		r.hold(st.Get("epoch-flip") == 1, "%s flipped %d times, want 1", isp.AS.Name, st.Get("epoch-flip"))
	}
	lag = w.GlobalDB.ReplicationFeed().Stats()
	r.hold(lag.MaxLag == 0, "follower lag %d after final replication pass", lag.MaxLag)

	res := &Result{Title: "Failover to follower replicas when the censor blackholes the primary"}
	replicas := len(w.GlobalDBEndpoints)
	conv := metrics.Table{Headers: []string{"invariant", "value"}}
	conv.AddRow("sync rounds to failover (every client)", "1")
	conv.AddRow("failover fetches answered 304 (no list bytes)", fmt.Sprintf("%d", 2*nPer))
	conv.AddRow("healthy→down transitions per client", "1")
	conv.AddRow("dropped SYNs per AS (one per client, then benched)", fmt.Sprintf("%d", nPer))
	conv.AddRow("post-flip report reached primary via follower", "yes")
	conv.AddRow("rounds to reconverge on the grown list", "1")
	conv.AddRow("follower lag at end", fmt.Sprintf("%d", lag.MaxLag))
	res.Text = dbLossScenarioTable(fmt.Sprintf("%d (primary + %d followers)", replicas, replicas-1), nPer) + conv.String()
	res.Metric("clients", float64(2*nPer))
	res.Metric("replicas", float64(replicas))
	res.Metric("failover.rounds", 1)
	res.Metric("failover.total", float64(sumFailovers))
	res.Metric("failover.fetch304", float64(sum304))
	res.Metric("replica.down_transitions", float64(sumDown))
	res.Metric("reconverge.rounds", 1)
	res.Metric("reconverge.refetches", float64(sumRefetch))
	res.Metric("primary.updates", float64(w.GlobalDB.StatsSnapshot().Updates))
	res.Metric("censor.ip_drops", float64(ipDrops))
	res.Metric("replication.max_lag", float64(lag.MaxLag))
	res.Note("the failover fetch is a 304: identically-converged replicas serve the same validator tag, so switching endpoints costs zero list bytes")
	res.Note("writes survive the blackhole: followers forward reports to the primary over their own uncensored links, and the next replication pass serves the grown list back to every AS-mate")
	return res
})
