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

// primaryLossFlip is the virtual offset from arming to the censor
// blackholing the primary's IP; the primary's process dies at the same
// instant, so only a promoted follower can keep accepting writes.
const primaryLossFlip = 10 * time.Minute

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
func PrimaryLoss(o Options) (*Result, error) {
	scale := o.Scale
	if scale <= 0 {
		scale = 500
	}
	w, err := worldgen.New(worldgen.Options{
		Scale: scale, Seed: o.seed(),
		GlobalDBReplicas:        2,
		GlobalDBMissedThreshold: 2,
	})
	if err != nil {
		return nil, err
	}
	set := w.ReplicaSet
	ispA, ispB, err := w.CaseStudy()
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	nPer := o.runs(2)

	type member struct {
		name string
		cl   *core.Client
		gdb  *globaldb.Client
	}
	var members []*member
	mk := func(isp *worldgen.ISP, label string, i int) error {
		name := fmt.Sprintf("pl-%s-%d", label, i)
		host := w.NewClientHost(name, isp)
		cfg := w.ClientConfig(host, o.seed()+int64(len(members))*7+11)
		cfg.SyncInterval = -1 // rounds driven explicitly below
		cfg.ASNProbeAddr = ""
		// The blackholed primary stays benched once caught, keeping the
		// per-round accounting exact.
		cfg.GlobalDB.ReplicaCooldown = 12 * time.Hour
		cl, err := core.New(cfg)
		if err != nil {
			return err
		}
		if err := cl.Start(ctx); err != nil {
			cl.Close()
			return fmt.Errorf("primary-loss: %s start: %w", name, err)
		}
		members = append(members, &member{name: name, cl: cl, gdb: cfg.GlobalDB})
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

	// Phase 1 (clean epoch): everyone measures the blocked page and reports
	// it through the founding primary; two controller ticks replicate the
	// stream and carry the acks, leaving the set quiesced.
	for _, m := range members {
		_ = m.cl.FetchURL(ctx, worldgen.YouTubeHost+"/")
		m.cl.WaitIdle()
		if got := len(m.cl.DB().PendingGlobal()); got != 1 {
			return nil, fmt.Errorf("primary-loss: %s has %d pending reports after the baseline measurement, want 1", m.name, got)
		}
		if err := m.cl.SyncNow(ctx); err != nil {
			return nil, fmt.Errorf("primary-loss: %s pre-flip sync: %w", m.name, err)
		}
	}
	for i := 0; i < 2; i++ {
		set.Tick(ctx)
	}
	if li := set.Leader(); li != 0 {
		return nil, fmt.Errorf("primary-loss: leader index %d pre-flip, want the founding primary", li)
	}
	if term, _, _ := w.GlobalDB.TermState(); term != 0 {
		return nil, fmt.Errorf("primary-loss: founding term %d, want 0", term)
	}

	// The flip: both censors blackhole the primary's IP, and the primary's
	// process dies at the same instant.
	if _, err := w.ArmPrimaryLoss(ispA, o.seed(), primaryLossFlip); err != nil {
		return nil, err
	}
	if _, err := w.ArmPrimaryLoss(ispB, o.seed()+1, primaryLossFlip); err != nil {
		return nil, err
	}
	w.Clock.Advance(primaryLossFlip + time.Minute)
	if err := set.Kill(0); err != nil {
		return nil, err
	}

	// Detection round: the very next sync round finds the endpoint dead.
	// Reads fail over to a follower and are served locally, but a report
	// posted in this round bounces — the follower's forward has nowhere to
	// go yet. The report stays queued; losing the round, not the report, is
	// the contract.
	reporter := members[0]
	_ = reporter.cl.FetchURL(ctx, worldgen.PornHost+"/")
	reporter.cl.WaitIdle()
	if got := len(reporter.cl.DB().PendingGlobal()); got != 1 {
		return nil, fmt.Errorf("primary-loss: reporter has %d pending reports post-flip, want 1", got)
	}
	detectionErr := reporter.cl.SyncNow(ctx)
	if got := len(reporter.cl.DB().PendingGlobal()); got != 1 {
		return nil, fmt.Errorf("primary-loss: detection round left %d pending reports, want the bounced report requeued", got)
	}

	// Promotion: the controller ticks on its own cadence between the two
	// sync rounds. MissedThreshold 2 means two missed pulls, then the
	// election promotes the most-caught-up follower.
	ticks := 0
	promoted := -1
	for ; ticks < primaryLossTicks; ticks++ {
		set.Tick(ctx)
		if li := set.Leader(); li > 0 {
			promoted = li
			break
		}
	}
	if promoted <= 0 {
		return nil, fmt.Errorf("primary-loss: no follower promoted within %d ticks", primaryLossTicks)
	}
	ticks++ // the tick that promoted
	leader := set.Nodes[promoted]
	newTerm, newLeaderAddr, _ := leader.Server.TermState()
	if newTerm < 1 {
		return nil, fmt.Errorf("primary-loss: promoted node %d is on term %d, want >= 1", promoted, newTerm)
	}
	if newLeaderAddr != w.GlobalDBEndpoints[promoted] {
		return nil, fmt.Errorf("primary-loss: term %d led from %s, want node %d at %s",
			newTerm, newLeaderAddr, promoted, w.GlobalDBEndpoints[promoted])
	}
	// One more tick lets the remaining follower adopt the new leader.
	set.Tick(ctx)

	// Resume round: the bounced report lands in the new leader's term — the
	// second sync round after the loss.
	updatesBefore := leader.Server.StatsSnapshot().Updates
	if err := reporter.cl.SyncNow(ctx); err != nil {
		return nil, fmt.Errorf("primary-loss: resume round failed — writes did not resume within 2 sync rounds: %w", err)
	}
	if got := len(reporter.cl.DB().PendingGlobal()); got != 0 {
		return nil, fmt.Errorf("primary-loss: %d reports still pending after the resume round", got)
	}
	if got := leader.Server.StatsSnapshot().Updates; got != updatesBefore+1 {
		return nil, fmt.Errorf("primary-loss: new leader updates %d, want %d — the resumed write missed the promoted node", got, updatesBefore+1)
	}
	// Every other client's next round is served by the replica set too.
	for _, m := range members[1:] {
		if err := m.cl.SyncNow(ctx); err != nil {
			return nil, fmt.Errorf("primary-loss: %s post-promotion sync: %w", m.name, err)
		}
	}

	// Rejoin: the old primary's process comes back still believing it
	// leads. Its first reconcile meets term newTerm, self-demotes, pushes
	// its feed to the winner, resyncs from sequence zero, and pulls back the
	// full stream; a few more ticks drain the pulls and acks.
	if _, err := set.Restart(0); err != nil {
		return nil, err
	}
	for i := 0; i < 6; i++ {
		set.Tick(ctx)
	}
	if li := set.Leader(); li != promoted {
		return nil, fmt.Errorf("primary-loss: leader index %d after rejoin, want %d (the rejoined primary must demote, not reclaim)", li, promoted)
	}
	if role := set.Nodes[0].RoleName(); role == globaldb.RoleLeader {
		return nil, fmt.Errorf("primary-loss: rejoined primary still claims leadership")
	}

	// Convergence: every node serves identical aggregates for both censored
	// ASes — the rejoined primary included.
	if err := set.CheckIdentical(ispA.AS.Number, ispB.AS.Number); err != nil {
		return nil, fmt.Errorf("primary-loss: after rejoin: %w", err)
	}

	res := &Result{ID: "primary-loss", Title: "Follower promotion when the censor kills the primary outright"}
	scn := metrics.Table{Headers: []string{"quantity", "value"}}
	scn.AddRow("replica set", fmt.Sprintf("%d nodes, self-healing (MissedThreshold 2)", len(set.Nodes)))
	scn.AddRow("censored ASes", "2 (ISP-A, ISP-B)")
	scn.AddRow("clients per AS", fmt.Sprintf("%d", nPer))
	scn.AddRow("flip offset after arming", fmtDur(primaryLossFlip))
	conv := metrics.Table{Headers: []string{"invariant", "value"}}
	conv.AddRow("controller ticks to a new leader", fmt.Sprintf("%d", ticks))
	conv.AddRow("promoted node / term", fmt.Sprintf("node-%d / term %d", promoted, newTerm))
	conv.AddRow("sync rounds until writes resumed", "2 (detection bounce, then accepted)")
	conv.AddRow("detection-round write bounced", fmt.Sprintf("%v", detectionErr != nil))
	conv.AddRow("rejoined primary demoted and resynced", "yes")
	conv.AddRow("replicas byte-identical after rejoin", "yes")
	res.Text = "scenario:\n" + scn.String() + "\nconvergence invariants (all cross-checked exactly):\n" + conv.String()
	res.Metric("clients", float64(2*nPer))
	res.Metric("replicas", float64(len(set.Nodes)))
	res.Metric("promote.ticks", float64(ticks))
	res.Metric("promote.node", float64(promoted))
	res.Metric("promote.term", float64(newTerm))
	res.Metric("resume.sync_rounds", 2)
	res.Metric("leader.updates", float64(leader.Server.StatsSnapshot().Updates))
	res.Note("the detection-round report bounces (the follower's forward has no live leader yet) but stays queued; the client loses a round, never a report")
	res.Note("the rejoined primary pushes its feed before wiping — acked records survive arbitrary kill schedules; see the chaos sweep for the randomized version of this argument")
	return res, nil
}
