package experiments

import (
	"context"
	"fmt"
	"time"

	"csaw/internal/core"
	"csaw/internal/globaldb"
	"csaw/internal/metrics"
	"csaw/internal/worldgen"
)

// replicaLossFlip is the virtual offset from arming to the censor
// blackholing the primary's IP; the round after runs at flip+1min.
const replicaLossFlip = 10 * time.Minute

// rlMember is one client of the replica-loss fleet with the handles the
// cross-checks need: the core client, its global-DB client (for exact
// failover counters), and its ISP.
type rlMember struct {
	name string
	cl   *core.Client
	gdb  *globaldb.Client
	isp  *worldgen.ISP
	base globaldb.ClientStats // snapshot at the pre-flip quiesced state
}

// delta is the member's counter movement since the pre-flip snapshot.
func (m *rlMember) delta() globaldb.ClientStats {
	st := m.gdb.Stats()
	return globaldb.ClientStats{
		FetchFull:   st.FetchFull - m.base.FetchFull,
		FetchDelta:  st.FetchDelta - m.base.FetchDelta,
		Fetch304:    st.Fetch304 - m.base.Fetch304,
		ListBytes:   st.ListBytes - m.base.ListBytes,
		Failovers:   st.Failovers - m.base.Failovers,
		ReplicaDown: st.ReplicaDown - m.base.ReplicaDown,
	}
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
func ReplicaLoss(o Options) (*Result, error) {
	scale := o.Scale
	if scale <= 0 {
		scale = 500
	}
	// Two followers + the primary = the 3-replica set; followers land in
	// distinct worldgen regions (us / Netherlands / Germany).
	w, err := worldgen.New(worldgen.Options{
		Scale: scale, Seed: o.seed(),
		GlobalDBReplicas: 2,
	})
	if err != nil {
		return nil, err
	}
	ispA, ispB, err := w.CaseStudy()
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	nPer := o.runs(3)
	primaryEP := w.GlobalDBEndpoints[0]

	var members []*rlMember
	mk := func(isp *worldgen.ISP, label string, i int) error {
		name := fmt.Sprintf("rl-%s-%d", label, i)
		host := w.NewClientHost(name, isp)
		cfg := w.ClientConfig(host, o.seed()+int64(len(members))*7+11)
		cfg.SyncInterval = -1 // rounds driven explicitly below
		cfg.ASNProbeAddr = ""
		// Once the blackhole catches the primary it stays benched: every
		// later call goes straight to the first follower, which keeps the
		// per-round failover arithmetic below exact.
		cfg.GlobalDB.ReplicaCooldown = 12 * time.Hour
		cl, err := core.New(cfg)
		if err != nil {
			return err
		}
		if err := cl.Start(ctx); err != nil {
			cl.Close()
			return fmt.Errorf("replica-loss: %s start: %w", name, err)
		}
		members = append(members, &rlMember{name: name, cl: cl, gdb: cfg.GlobalDB, isp: isp})
		return nil
	}
	for i := 0; i < nPer; i++ {
		if err := mk(ispA, "a", i); err != nil {
			return nil, err
		}
		if err := mk(ispB, "b", i); err != nil {
			return nil, err
		}
	}
	defer func() {
		for _, m := range members {
			m.cl.Close()
		}
	}()

	// Phase 1 (clean epoch): everyone measures the blocked page and posts
	// its report; two replication passes plus two sync rounds leave every
	// replica byte-identical and every client holding the converged list
	// and its current tag.
	for _, m := range members {
		// The parallel fetch path returns as soon as a copy of the page is
		// in hand; the blocked verdict settles in the background, so the
		// pending report queue after WaitIdle is the assertion, not the
		// in-flight Result.
		_ = m.cl.FetchURL(ctx, worldgen.YouTubeHost+"/")
		m.cl.WaitIdle()
		if got := len(m.cl.DB().PendingGlobal()); got != 1 {
			return nil, fmt.Errorf("replica-loss: %s has %d pending reports after the baseline measurement, want 1", m.name, got)
		}
	}
	for round := 0; round < 2; round++ {
		for _, m := range members {
			if err := m.cl.SyncNow(ctx); err != nil {
				return nil, fmt.Errorf("replica-loss: %s pre-flip round %d: %w", m.name, round+1, err)
			}
		}
		// Twice: the first pass ships the log, the second carries the acks
		// (acks ride the next pull).
		for i := 0; i < 2; i++ {
			if err := w.ReplicaSet.SyncAll(ctx); err != nil {
				return nil, fmt.Errorf("replica-loss: replication pass: %w", err)
			}
		}
	}
	// Quiesced check: one more round must be all 304s — the fleet and the
	// replicas agree on the list version.
	pre304 := make([]int, len(members))
	for i, m := range members {
		pre304[i] = m.gdb.Stats().Fetch304
	}
	for i, m := range members {
		if err := m.cl.SyncNow(ctx); err != nil {
			return nil, fmt.Errorf("replica-loss: %s quiesce round: %w", m.name, err)
		}
		if got := m.gdb.Stats().Fetch304; got != pre304[i]+1 {
			return nil, fmt.Errorf("replica-loss: %s quiesce round was not a 304 (Fetch304 %d→%d)", m.name, pre304[i], got)
		}
	}
	if lag := w.GlobalDB.ReplicationFeed().Stats(); lag.MaxLag != 0 || len(lag.Followers) != 2 {
		return nil, fmt.Errorf("replica-loss: pre-flip feed not quiesced: %+v", lag)
	}
	for _, m := range members {
		st := m.gdb.Stats()
		if st.Failovers != 0 || st.ReplicaDown != 0 {
			return nil, fmt.Errorf("replica-loss: %s failed over before the flip: %+v", m.name, st)
		}
		m.base = st
	}
	usersBefore := w.GlobalDB.StatsSnapshot().Users
	updatesBefore := w.GlobalDB.StatsSnapshot().Updates
	if usersBefore != 2*nPer || updatesBefore != 2*nPer {
		return nil, fmt.Errorf("replica-loss: primary has %d users / %d updates pre-flip, want %d / %d",
			usersBefore, updatesBefore, 2*nPer, 2*nPer)
	}

	// The flip: both censors keep their URL-blocking policies and start
	// dropping SYNs to the primary's IP.
	if _, err := w.ArmReplicaLoss(ispA, o.seed(), replicaLossFlip); err != nil {
		return nil, err
	}
	if _, err := w.ArmReplicaLoss(ispB, o.seed()+1, replicaLossFlip); err != nil {
		return nil, err
	}
	w.Clock.Advance(replicaLossFlip + time.Minute)

	// Failover round: the very next sync round after the flip must succeed
	// for every client — one timed-out attempt against the primary, then a
	// follower answers, and the shared tag makes the answer a 304.
	for _, m := range members {
		if err := m.cl.SyncNow(ctx); err != nil {
			return nil, fmt.Errorf("replica-loss: %s did not fail over within one sync round: %w", m.name, err)
		}
		d := m.delta()
		if d.Failovers != 1 || d.ReplicaDown != 1 || d.Fetch304 != 1 || d.FetchFull != 0 || d.FetchDelta != 0 || d.ListBytes != 0 {
			return nil, fmt.Errorf("replica-loss: %s failover round moved %+v, want exactly one failover, one down transition, one 304", m.name, d)
		}
		if served := m.gdb.LastServed(); served == primaryEP {
			return nil, fmt.Errorf("replica-loss: %s still served by the blackholed primary %s", m.name, served)
		}
	}

	// Post-flip drift: one AS-A client measures a second blocked page and
	// reports it through the followers (which forward writes to the
	// primary); two replication passes later every follower serves the
	// grown list.
	reporter := members[0]
	_ = reporter.cl.FetchURL(ctx, worldgen.PornHost+"/")
	reporter.cl.WaitIdle()
	if got := len(reporter.cl.DB().PendingGlobal()); got != 1 {
		return nil, fmt.Errorf("replica-loss: reporter has %d pending reports after the post-flip measurement, want 1", got)
	}
	if err := reporter.cl.SyncNow(ctx); err != nil {
		return nil, fmt.Errorf("replica-loss: reporter drift round: %w", err)
	}
	if got := w.GlobalDB.StatsSnapshot().Updates; got != updatesBefore+1 {
		return nil, fmt.Errorf("replica-loss: post-flip report did not reach the primary (updates %d, want %d)", got, updatesBefore+1)
	}
	for i := 0; i < 2; i++ {
		if err := w.ReplicaSet.SyncAll(ctx); err != nil {
			return nil, fmt.Errorf("replica-loss: post-flip replication pass: %w", err)
		}
	}

	// Reconvergence round: AS-A refetches the grown list from a follower;
	// AS-B's list is untouched, so its clients still 304.
	for _, m := range members {
		if err := m.cl.SyncNow(ctx); err != nil {
			return nil, fmt.Errorf("replica-loss: %s reconvergence round: %w", m.name, err)
		}
	}

	// Exact per-client accounting since the pre-flip snapshot. Post-flip
	// API calls: everyone did the failover fetch and the reconvergence
	// fetch; the reporter added one report POST and one drift-round fetch
	// (a 304 — the follower it hit had not replicated yet). All of them
	// were served by a follower, so calls == failovers.
	var sumFailovers, sumDown, sum304, sumRefetch, wantFailovers int
	for _, m := range members {
		d := m.delta()
		sumFailovers += d.Failovers
		sumDown += d.ReplicaDown
		sum304 += d.Fetch304
		sumRefetch += d.FetchFull + d.FetchDelta
		wantCalls, want304, wantRefetch, wantLen := 2, 1, 1, 2
		switch {
		case m == reporter:
			wantCalls, want304 = 4, 2
		case m.isp == ispB:
			want304, wantRefetch, wantLen = 2, 0, 1
		}
		wantFailovers += wantCalls
		if d.Failovers != wantCalls || d.ReplicaDown != 1 {
			return nil, fmt.Errorf("replica-loss: %s post-flip failovers/down = %d/%d, want %d/1", m.name, d.Failovers, d.ReplicaDown, wantCalls)
		}
		if d.Fetch304 != want304 || d.FetchFull+d.FetchDelta != wantRefetch {
			return nil, fmt.Errorf("replica-loss: %s post-flip fetch mix 304=%d full+delta=%d, want %d/%d",
				m.name, d.Fetch304, d.FetchFull+d.FetchDelta, want304, wantRefetch)
		}
		if got := m.cl.GlobalCacheLen(); got != wantLen {
			return nil, fmt.Errorf("replica-loss: %s trusts %d global URLs after reconvergence, want %d", m.name, got, wantLen)
		}
	}
	if sumFailovers != wantFailovers || sumDown != 2*nPer {
		return nil, fmt.Errorf("replica-loss: fleet failovers/down = %d/%d, want %d/%d", sumFailovers, sumDown, wantFailovers, 2*nPer)
	}

	// The censor saw exactly one dropped SYN per client — the failover
	// round's single attempt against the primary; the benched endpoint is
	// never retried. And each censor flipped its policy exactly once.
	for _, isp := range []*worldgen.ISP{ispA, ispB} {
		if got := isp.Censor.Stats.Get("ip-drop"); got != nPer {
			return nil, fmt.Errorf("replica-loss: %s dropped %d SYNs to the primary, want %d", isp.AS.Name, got, nPer)
		}
		if got := isp.Censor.Stats.Get("epoch-flip"); got != 1 {
			return nil, fmt.Errorf("replica-loss: %s flipped %d times, want 1", isp.AS.Name, got)
		}
	}
	lag := w.GlobalDB.ReplicationFeed().Stats()
	if lag.MaxLag != 0 {
		return nil, fmt.Errorf("replica-loss: follower lag %d after final replication pass", lag.MaxLag)
	}

	res2 := &Result{ID: "replica-loss", Title: "Failover to follower replicas when the censor blackholes the primary"}
	scn := metrics.Table{Headers: []string{"quantity", "value"}}
	scn.AddRow("replica set", fmt.Sprintf("%d (primary + %d followers)", len(w.GlobalDBEndpoints), len(w.GlobalDBEndpoints)-1))
	scn.AddRow("censored ASes", "2 (ISP-A, ISP-B)")
	scn.AddRow("clients per AS", fmt.Sprintf("%d", nPer))
	scn.AddRow("flip offset after arming", fmtDur(replicaLossFlip))
	conv := metrics.Table{Headers: []string{"invariant", "value"}}
	conv.AddRow("sync rounds to failover (every client)", "1")
	conv.AddRow("failover fetches answered 304 (no list bytes)", fmt.Sprintf("%d", 2*nPer))
	conv.AddRow("healthy→down transitions per client", "1")
	conv.AddRow("dropped SYNs per AS (one per client, then benched)", fmt.Sprintf("%d", nPer))
	conv.AddRow("post-flip report reached primary via follower", "yes")
	conv.AddRow("rounds to reconverge on the grown list", "1")
	conv.AddRow("follower lag at end", fmt.Sprintf("%d", lag.MaxLag))
	res2.Text = "scenario:\n" + scn.String() + "\nconvergence invariants (all cross-checked exactly):\n" + conv.String()
	res2.Metric("clients", float64(2*nPer))
	res2.Metric("replicas", float64(len(w.GlobalDBEndpoints)))
	res2.Metric("failover.rounds", 1)
	res2.Metric("failover.total", float64(sumFailovers))
	res2.Metric("failover.fetch304", float64(sum304))
	res2.Metric("replica.down_transitions", float64(sumDown))
	res2.Metric("reconverge.rounds", 1)
	res2.Metric("reconverge.refetches", float64(sumRefetch))
	res2.Metric("primary.updates", float64(w.GlobalDB.StatsSnapshot().Updates))
	res2.Metric("censor.ip_drops", float64(ispA.Censor.Stats.Get("ip-drop")+ispB.Censor.Stats.Get("ip-drop")))
	res2.Metric("replication.max_lag", float64(lag.MaxLag))
	res2.Note("the failover fetch is a 304: identically-converged replicas serve the same validator tag, so switching endpoints costs zero list bytes")
	res2.Note("writes survive the blackhole: followers forward reports to the primary over their own uncensored links, and the next replication pass serves the grown list back to every AS-mate")
	return res2, nil
}
