package experiments

import (
	"context"
	"fmt"
	"time"

	"csaw/internal/censor"
	"csaw/internal/core"
	"csaw/internal/localdb"
	"csaw/internal/metrics"
	"csaw/internal/worldgen"
)

// Round counts for the censor-churn experiment. Six post-flip rounds bound
// recovery structurally: the flip round burns the ladder, rounds 2-3 try
// whatever the residual blackhole left unbenched, rounds 4-5 run the
// probation probes of the benched fixes (bench = 45 virtual minutes ≈ two
// round gaps), and by round 6 every applicable fix has a real observed
// average, so EWMA selection has converged on the cheapest survivor.
const (
	churnBaselineRounds = 3
	churnFlipRounds     = 6
	// churnRoundGap separates the two clients' fetches; one full round is
	// two gaps. It clears epoch 1's residual window (2 minutes) before the
	// next client acts, and spaces the explicit sync rounds.
	churnRoundGap = 10 * time.Minute
)

// churnPhase aggregates one client's rounds within one policy epoch.
type churnPhase struct {
	Spikes    int // !OK or PLT > 6× pre-flip steady state
	Degraded  int // between 1.5× and 6×
	Recovered int // PLT within 1.5× of pre-flip steady state
	FirstRec  int // 1-based round index of first recovery; 0 = never
	// steadyNext is the fastest recovered PLT, the next phase's yardstick.
	steadyNext time.Duration
}

func (p *churnPhase) observe(round int, class string, took time.Duration) {
	switch class {
	case "spike":
		p.Spikes++
	case "degraded":
		p.Degraded++
	default:
		p.Recovered++
		if p.FirstRec == 0 {
			p.FirstRec = round
		}
		if p.steadyNext == 0 || took < p.steadyNext {
			p.steadyNext = took
		}
	}
}

// churnClass buckets a fetch against the pre-flip steady-state PLT. The
// measured durations feed only these comparisons — the report renders
// counts, never times, so same-seed runs stay byte-identical despite
// scheduler jitter on the virtual clock. The cutoffs are chosen so no
// structural outcome sits near one: domain fronting (served by the nearby
// CDN replica, never crossing the origin distance) runs ≈1.27× direct,
// the origin-bound fixes ≈1.7× (https, ip-as-hostname), and a spike round
// (a detection timeout plus a residual-blackholed ladder walk) ≥12× —
// every class sits ≥13% (≥0.28 virtual seconds) from its nearest cutoff,
// several times the jitter envelope even in a race build at the reduced
// clock scale.
func churnClass(res *core.Result, steady time.Duration) string {
	if res == nil || !res.OK() {
		return "spike"
	}
	t, s := float64(res.Took), float64(steady)
	switch {
	case t <= 1.5*s:
		return "recovered"
	case t > 6*s:
		return "spike"
	default:
		return "degraded"
	}
}

// churnScale is the censor-churn scenario's clock scale. Its ≈0.3 s virtual
// classification margins are 30 ms of real time at this scale: room for a
// host that stalls a thread for several milliseconds, or for the race
// detector's scheduling overhead, without a round changing class.
const churnScale = 10

// CensorChurn drives two clients through the three-epoch churn scenario
// (worldgen.BuildChurnISP): a clean baseline, a flip to HTTP block pages
// with residual censorship, and a counter-circumvention escalation that
// kills every origin-bound fix (leaving only domain fronting, whose flows
// the censor cannot attribute to the site). Client A measures everything the hard way —
// stale-verdict re-detection, a failover ladder blackholed by residual
// censorship until the budget expires, quarantine benching and probation
// re-probes — and posts its findings; client B rides the crowd: its stale
// local verdict is bypassed by A's fresh global report, so it skips
// straight to a working fix and never spikes at either flip. The invariant
// the paper's §4.3 story needs: after each flip, PLT returns to within
// 1.5× of the pre-flip steady state within the phase, without restarting a
// client.
//
// The clock scale is low (churnScale): classification compares measured
// PLTs against ratio cutoffs, and scheduler jitter is amplified by the
// scale. Moderate last-mile bandwidth keeps serialization visible without
// letting it dominate: circumvented paths carry roughly double the bytes of
// a direct fetch, so at very low bandwidth *every* fix converges to ≈2×
// direct and nothing can land inside the 1.5× recovery cutoff, while at very
// high bandwidth the TLS fixes drift down onto the cutoff itself. 32 KiB/s
// (with ChurnOriginRTT tuned to match) holds the spread described at
// churnClass, with the per-class gaps each ≈0.3 virtual seconds wide so real
// scheduling noise times the clock scale stays far inside them.
var CensorChurn = experiment("censor-churn", scenario{scale: churnScale, world: worldgen.Options{Bandwidth: 32 << 10}, traced: true}, func(r *rig) *Result {
	w, ctx, url := r.w, context.Background(), worldgen.ChurnHost+"/"
	originIP, err := w.AddChurnSite()
	if !r.ok(err, "churn site") {
		return nil
	}
	isp, schedule, err := w.BuildChurnISP(r.seed, originIP)
	if !r.ok(err, "churn ISP") {
		return nil
	}

	mk := func(name string, seed int64) *core.Client {
		return r.client(name, seed, true, func(cfg *core.Config) {
			cfg.Serial = true
			cfg.PSet, cfg.P = true, 0         // trust the crowd fully: B's path is the point
			cfg.SyncInterval = 24 * time.Hour // rounds sync explicitly below
			cfg.ASNProbeAddr = ""
			// Tight enough that a residual-censorship blackhole (45 s per
			// dropped connect) exhausts it mid-walk — so the flip round always
			// leaves at least one fix unbenched for the next round — wide
			// enough that at least one rung always runs to completion and gets
			// benched. Every walk order ends ≥10 s from the budget boundary,
			// far above scheduler jitter.
			cfg.FailoverBudget = 60 * time.Second
			// One completed failure benches (the blackholed walk should bench
			// whatever it touched); the 45-minute bench spans two round gaps,
			// so probation probes land mid-phase and the re-probed averages
			// still have rounds left to converge.
			cfg.Quarantine = core.QuarantinePolicy{
				Strikes:   1,
				BenchBase: 45 * time.Minute,
				BenchMax:  3 * time.Hour,
			}
			cfg.CensorEpoch = isp.Censor.EpochStart
		}, isp)
	}
	a, b := mk("churn-a", 11), mk("churn-b", 23)

	fetch := func(cl *core.Client) *core.Result {
		res := cl.FetchURL(ctx, url)
		cl.WaitIdle()
		return res
	}

	// Baseline: epoch 0 is clean; both clients build NotBlocked records.
	// The fastest baseline round is the steady-state yardstick for the
	// first flip. On the scaled clock a host stall only ever adds time, so
	// the fastest round is the one nearest the stall-free PLT; a stall in
	// one baseline round cannot lift the yardstick and pass a degraded
	// round off as recovered.
	var steadyA, steadyB time.Duration
	for round := 1; round <= churnBaselineRounds; round++ {
		ra, rb := fetch(a), fetch(b)
		for i, res := range []*core.Result{ra, rb} {
			r.hold(res.OK() && res.Status == localdb.NotBlocked, "baseline round %d client %c: status %v err %v", round, 'A'+i, res.Status, res.Err)
		}
		if round == 1 {
			steadyA, steadyB = ra.Took, rb.Took
		}
		steadyA, steadyB = min(steadyA, ra.Took), min(steadyB, rb.Took)
		w.Clock.Advance(churnRoundGap)
	}

	// runPhase drives both clients through one post-flip epoch. Per round:
	// A fetches (and measures), the gap clears any residual window, A posts
	// its report, B downloads it, then B fetches on crowd intelligence.
	runPhase := func(flip censor.Epoch, steadyA, steadyB time.Duration) (pa, pb churnPhase) {
		r.advanceTo(flip.Start.Add(time.Minute))
		name := flip.Policy.Name
		var clA, clB []string
		for round := 1; round <= churnFlipRounds; round++ {
			ra := fetch(a)
			w.Clock.Advance(churnRoundGap)
			r.ok(a.SyncNow(ctx), "%s round %d: A sync", name, round)
			r.ok(b.SyncNow(ctx), "%s round %d: B sync", name, round)
			rb := fetch(b)
			w.Clock.Advance(churnRoundGap)
			ca, cb := churnClass(ra, steadyA), churnClass(rb, steadyB)
			pa.observe(round, ca, ra.Took)
			pb.observe(round, cb, rb.Took)
			clA, clB = append(clA, ca), append(clB, cb)
		}
		// Structural acceptance. A (the measurer): the flip round — a
		// re-detection plus a ladder walk the censor blackholes — must be
		// its only spike, and by the final round EWMA selection must have
		// converged back onto the cheapest surviving fix. B (the crowd
		// rider): never spikes at all, and converges the same way.
		last := churnFlipRounds - 1
		r.hold(clA[0] == "spike" && pa.Spikes == 1, "%s: client A classes %v, want the flip round to be the only spike", name, clA)
		r.hold(clA[last] == "recovered", "%s: client A did not converge back to within 1.5× of pre-flip PLT (%v)", name, clA)
		r.hold(pb.Spikes == 0, "%s: client B spiked despite fresh crowd intelligence (%v)", name, clB)
		r.hold(clB[last] == "recovered", "%s: client B did not converge back to within 1.5× of pre-flip PLT (%v)", name, clB)
		return pa, pb
	}
	p1a, p1b := runPhase(schedule[1], steadyA, steadyB)
	p2a, p2b := runPhase(schedule[2], p1a.steadyNext, p1b.steadyNext)

	// Cross-checks on the machinery the recovery rode on.
	st := &isp.Censor.Counters
	r.hold(st.Get("epoch-flip") == 2, "censor counted %d epoch flips, want 2", st.Get("epoch-flip"))
	r.hold(a.Counter("stale-verdict") == 2, "A stale-verdict = %d, want 2 (one per flip)", a.Counter("stale-verdict"))
	r.hold(a.Counter("stale-global-ignored") == 1, "A stale-global-ignored = %d, want 1 (epoch-1 report at flip 2)", a.Counter("stale-global-ignored"))
	r.hold(b.Counter("stale-verdict") == 2*churnFlipRounds, "B stale-verdict = %d, want %d (every post-flip round rides the crowd)", b.Counter("stale-verdict"), 2*churnFlipRounds)
	r.hold(a.Counter("failover-budget-exhausted") > 0, "the residual blackhole never exhausted A's failover budget")
	r.hold(a.Counter("quarantine-bench") > 0, "no approach was ever benched")
	r.hold(a.Counter("quarantine-parole") > 0, "no benched approach was ever paroled for a probation probe")
	r.hold(st.Get("residual-drop") > 0, "residual censorship never dropped a flow")

	res := &Result{Title: "PLT collapse and crowd-sourced recovery across censor policy flips"}
	tbl := metrics.Table{Headers: []string{"phase", "client", "spike", "degraded", "recovered", "rounds-to-recovery"}}
	for _, row := range []struct {
		phase, client, key string
		p                  churnPhase
	}{
		{"epoch1-blockpage", "A (measures)", "flip1.a", p1a},
		{"epoch1-blockpage", "B (crowd)", "flip1.b", p1b},
		{"epoch2-escalated", "A (measures)", "flip2.a", p2a},
		{"epoch2-escalated", "B (crowd)", "flip2.b", p2b},
	} {
		tbl.AddRow(row.phase, row.client,
			fmt.Sprintf("%d", row.p.Spikes), fmt.Sprintf("%d", row.p.Degraded),
			fmt.Sprintf("%d", row.p.Recovered), fmt.Sprintf("%d", row.p.FirstRec))
		res.Metric(row.key+".spike_rounds", float64(row.p.Spikes))
		res.Metric(row.key+".rounds_to_recovery", float64(row.p.FirstRec))
	}
	sched := metrics.Table{Headers: []string{"epoch", "flip offset (min)", "policy"}}
	for i, ep := range schedule {
		off := int(ep.Start.Sub(schedule[0].Start).Minutes())
		sched.AddRow(fmt.Sprintf("%d", i), fmt.Sprintf("%d", off), ep.Policy.Name)
	}
	// The resilience counters: every one a table row, the keyed ones metrics.
	resil := metrics.Table{Headers: []string{"counter", "value"}}
	for _, c := range []struct {
		label, key string
		n          int
	}{
		{"A stale-verdict re-detections", "a.stale_verdict", a.Counter("stale-verdict")},
		{"A stale global reports ignored", "", a.Counter("stale-global-ignored")},
		{"A failover budgets exhausted", "a.budget_exhausted", a.Counter("failover-budget-exhausted")},
		{"A approaches benched", "a.quarantine_bench", a.Counter("quarantine-bench")},
		{"A probation paroles", "a.quarantine_parole", a.Counter("quarantine-parole")},
		{"B stale-verdict re-detections", "b.stale_verdict", b.Counter("stale-verdict")},
		{"B approaches benched", "", b.Counter("quarantine-bench")},
		{"censor epoch flips", "censor.epoch_flips", st.Get("epoch-flip")},
		{"censor residual windows armed", "", st.Get("residual-arm")},
		{"censor residual flow drops", "censor.residual_drops", st.Get("residual-drop")},
	} {
		resil.AddRow(c.label, fmt.Sprintf("%d", c.n))
		if c.key != "" {
			res.Metric(c.key, float64(c.n))
		}
	}
	res.Text = "epoch schedule:\n" + sched.String() + "\nround classification vs pre-flip steady-state PLT:\n" +
		tbl.String() + "\nresilience machinery:\n" + resil.String()
	res.Note("recovery is in-band: no client restarts; A re-detects at each flip (stale-verdict), B's stale verdicts are overridden by A's fresh global report — B never spikes at either flip")
	res.Note("epoch 1's residual censorship blackholes A's first failover ladder until the per-fetch budget expires; the benched fixes return mid-phase as probation probes with reset averages, and selection converges back onto the cheapest survivor")
	return res
})
