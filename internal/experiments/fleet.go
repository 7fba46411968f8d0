package experiments

import (
	"context"
	"fmt"

	"csaw/internal/fleet"
	"csaw/internal/metrics"
	"csaw/internal/worldgen"
)

// Fleet runs the population-scale workload (internal/fleet) as an
// experiment: Zipf-visited catalog, diurnal sessions, churn, per-AS blocked
// windows — and checks that the global DB's per-AS lists converge exactly
// onto the plan's expectation. Runs scales the population (default 400);
// cmd/csaw-fleet drives the O(10k) version. It counts rather than times, so
// it runs on the event clock, where a PLT would only measure how the
// workers' sleeps summed.
var Fleet = experiment("fleet", scenario{world: worldgen.Options{EventDriven: true}}, func(r *rig) *Result {
	wl := fleet.Workload{
		Population: r.runs(400),
		Seed:       r.seed,
	}.WithDefaults()
	sc, err := r.w.BuildFleetScenario(wl.Sites, wl.ISPs, wl.BlockedFrac)
	if !r.ok(err, "scenario") {
		return nil
	}
	res, err := fleet.Run(context.Background(), r.w, sc, fleet.BuildPlan(wl), fleet.Options{})
	if !r.ok(err, "run") {
		return nil
	}
	s, m := res.Summary, res.Measured
	r.hold(s.Consistent(), "global-DB per-AS lists diverged from plan expectation:\n%s", s.Render())

	out := &Result{Title: fmt.Sprintf("Population-scale fleet (%d clients, %s virtual)", s.Population, wl.Duration)}
	tbl := metrics.Table{Headers: []string{"quantity", "value"}}
	tbl.AddRow("Clients", fmt.Sprintf("%d (churned %d)", s.Population, s.Churned))
	tbl.AddRow("Sessions / fetches (planned)", fmt.Sprintf("%d / %d", s.Sessions, s.Fetches))
	tbl.AddRow("Fetches executed / errors", fmt.Sprintf("%d / %d", m.Fetches, m.FetchErrors))
	tbl.AddRow("Syncs / errors", fmt.Sprintf("%d / %d", m.Syncs, m.SyncErrors))
	tbl.AddRow("Global-DB blocked URLs", fmt.Sprintf("%d over %d ASes", s.BlockedURLs, s.ASesReporting))
	tbl.AddRow("Per-AS lists == plan expectation", fmt.Sprintf("%v", s.Consistent()))
	tbl.AddRow("Peak goroutines", fmt.Sprintf("%d", m.PeakGoroutines))
	out.Metric("population", float64(s.Population))
	out.Metric("fetches", float64(m.Fetches))
	out.Metric("fetch_errors", float64(m.FetchErrors))
	out.Metric("blocked_urls", float64(s.BlockedURLs))
	out.Metric("degraded", float64(m.Degraded))
	out.Metric("peak_goroutines", float64(m.PeakGoroutines))
	out.Text = tbl.String()
	out.Note("summary is byte-identical across same-seed runs; see internal/fleet for the determinism contract")
	return out
})
