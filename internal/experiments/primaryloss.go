package experiments

import (
	"context"
	"fmt"

	"csaw/internal/globaldb"
	"csaw/internal/metrics"
	"csaw/internal/worldgen"
)

// primaryLossTicks bounds how many promotion-controller ticks the experiment
// allows for failure detection plus the election. With MissedThreshold 2 the
// expected count is exactly 2 (two missed pulls, then the election), so the
// bound only exists to turn a broken controller into an error instead of a
// hang.
const primaryLossTicks = 6

// PrimaryLoss is the self-healing upgrade of the replica-loss scenario: the
// censor blackholes the primary's IP AND the primary's process dies at the
// same virtual instant — the hosted endpoint is gone, not merely
// unreachable from the censored region. A set that is only SyncAll-pumped
// would stop taking writes (followers only forward). Ticked, the followers
// detect the dead primary by consecutive missed pulls, elect the
// most-caught-up member, and the winner mints the next term and starts
// accepting writes; a client's report that failed in the sync round during
// detection lands in the new leader's term one round later. The old primary
// rejoins as a process, discovers the newer term, demotes itself,
// pushes-then-resyncs, and the set reconverges byte-identically.
var PrimaryLoss = experiment("primary-loss", dbLossWorld(2), func(r *rig) *Result {
	w, set, ctx := r.w, r.w.ReplicaSet, context.Background()
	nPer := r.runs(2)
	members := lossFleet(r, "pl", nPer)
	pending := func(m *lossMember) int { return len(m.cl.DB().PendingGlobal()) }

	// Phase 1 (clean epoch): everyone measures the blocked page and reports
	// it through the founding primary; two controller ticks replicate the
	// stream and carry the acks, leaving the set quiesced.
	for _, m := range members {
		m.measure(r, worldgen.YouTubeHost)
		r.ok(m.cl.SyncNow(ctx), "%s pre-flip sync", m.name)
	}
	for i := 0; i < 2; i++ {
		set.Tick(ctx)
	}
	r.hold(set.Leader() == 0, "leader index %d pre-flip, want the founding primary", set.Leader())
	term, _, _ := w.GlobalDB.TermState()
	r.hold(term == 0, "founding term %d, want 0", term)

	// The flip: both censors blackhole the primary's IP, and the primary's
	// process dies at the same instant.
	flipDBLoss(r, w.ArmPrimaryLoss)
	r.ok(set.Kill(0), "killing the primary")

	// Detection round: the very next sync round finds the endpoint dead.
	// Reads fail over to a follower and are served locally, but a report
	// posted in this round bounces — the follower's forward has nowhere to
	// go yet. The report stays queued; losing the round, not the report, is
	// the contract.
	reporter := members[0]
	reporter.measure(r, worldgen.PornHost)
	detectionErr := reporter.cl.SyncNow(ctx)
	r.hold(pending(reporter) == 1, "detection round left %d pending reports, want the bounced report requeued", pending(reporter))

	// Promotion: the controller ticks on its own cadence between the two
	// sync rounds. MissedThreshold 2 means two missed pulls, then the
	// election promotes the most-caught-up follower.
	ticks := 0
	for set.Leader() <= 0 && ticks < primaryLossTicks {
		set.Tick(ctx)
		ticks++
	}
	promoted := set.Leader()
	if !r.hold(promoted > 0, "no follower promoted within %d ticks", primaryLossTicks) {
		return nil
	}
	leader := set.Nodes[promoted]
	newTerm, newLeaderAddr, _ := leader.Server.TermState()
	r.hold(newTerm >= 1, "promoted node %d is on term %d, want >= 1", promoted, newTerm)
	r.hold(newLeaderAddr == w.GlobalDBEndpoints[promoted], "term %d led from %s, want node %d at %s",
		newTerm, newLeaderAddr, promoted, w.GlobalDBEndpoints[promoted])
	// One more tick lets the remaining follower adopt the new leader.
	set.Tick(ctx)

	// Resume round: the bounced report lands in the new leader's term — the
	// second sync round after the loss.
	updatesBefore := leader.Server.StatsSnapshot().Updates
	r.ok(reporter.cl.SyncNow(ctx), "resume round failed — writes did not resume within 2 sync rounds")
	r.hold(pending(reporter) == 0, "%d reports still pending after the resume round", pending(reporter))
	r.hold(leader.Server.StatsSnapshot().Updates == updatesBefore+1, "new leader updates %d, want %d — the resumed write missed the promoted node",
		leader.Server.StatsSnapshot().Updates, updatesBefore+1)
	// Every other client's next round is served by the replica set too.
	for _, m := range members[1:] {
		r.ok(m.cl.SyncNow(ctx), "%s post-promotion sync", m.name)
	}

	// Rejoin: the old primary's process comes back still believing it
	// leads. Its first reconcile meets term newTerm, self-demotes, pushes
	// its feed to the winner, resyncs from sequence zero, and pulls back the
	// full stream; a few more ticks drain the pulls and acks.
	_, err := set.Restart(0)
	r.ok(err, "restarting the old primary")
	for i := 0; i < 6; i++ {
		set.Tick(ctx)
	}
	r.hold(set.Leader() == promoted, "leader index %d after rejoin, want %d (the rejoined primary must demote, not reclaim)", set.Leader(), promoted)
	r.hold(set.Nodes[0].RoleName() != globaldb.RoleLeader, "rejoined primary still claims leadership")

	// Convergence: every node serves identical aggregates for both censored
	// ASes — the rejoined primary included.
	r.ok(set.CheckIdentical(r.isps[0].AS.Number, r.isps[1].AS.Number), "after rejoin")

	res := &Result{Title: "Follower promotion when the censor kills the primary outright"}
	conv := metrics.Table{Headers: []string{"invariant", "value"}}
	conv.AddRow("controller ticks to a new leader", fmt.Sprintf("%d", ticks))
	conv.AddRow("promoted node / term", fmt.Sprintf("node-%d / term %d", promoted, newTerm))
	conv.AddRow("sync rounds until writes resumed", "2 (detection bounce, then accepted)")
	conv.AddRow("detection-round write bounced", fmt.Sprintf("%v", detectionErr != nil))
	conv.AddRow("rejoined primary demoted and resynced", "yes")
	conv.AddRow("replicas byte-identical after rejoin", "yes")
	res.Text = dbLossScenarioTable(fmt.Sprintf("%d nodes, self-healing (MissedThreshold 2)", len(set.Nodes)), nPer) + conv.String()
	res.Metric("clients", float64(2*nPer))
	res.Metric("replicas", float64(len(set.Nodes)))
	res.Metric("promote.ticks", float64(ticks))
	res.Metric("promote.node", float64(promoted))
	res.Metric("promote.term", float64(newTerm))
	res.Metric("resume.sync_rounds", 2)
	res.Metric("leader.updates", float64(leader.Server.StatsSnapshot().Updates))
	res.Note("the detection-round report bounces (the follower's forward has no live leader yet) but stays queued; the client loses a round, never a report")
	res.Note("the rejoined primary pushes its feed before wiping — acked records survive arbitrary kill schedules; see the chaos sweep for the randomized version of this argument")
	return res
})
