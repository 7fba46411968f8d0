package experiments

import (
	"context"
	"fmt"
	"time"

	"csaw/internal/censor"
	"csaw/internal/globaldb"
	"csaw/internal/localdb"
	"csaw/internal/metrics"
	"csaw/internal/worldgen"
)

// deltaSyncSizes are the converged per-AS URL universes the experiment
// compares. Each size lives in its own AS so the lists are independent;
// the committed benchmark's db-sync workload tracks the same ratio at 2000.
var deltaSyncSizes = []int{100, 1000}

// DeltaSync measures the client-visible payoff of versioned delta sync
// (§5's scaling concern: the sync traffic must not grow with the crowd's
// accumulated knowledge). For each universe size a seeder converges an AS
// list of N URLs and a syncing client downloads it once in full; then each
// drift round a fresh reporter adds one URL and the syncer refetches with
// its tag. The server answers with a delta carrying only the changed entry,
// so steady-state bytes/sync stays flat while the full-list baseline grows
// linearly with N — the ratio collapses as the universe grows, and at the
// largest size it must clear a ≤ 20% gate.
func DeltaSync(o Options) (*Result, error) {
	scale := o.Scale
	if scale <= 0 {
		scale = 1000
	}
	w, err := worldgen.New(worldgen.Options{Scale: scale, Seed: o.seed()})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	rounds := o.runs(5)

	mkClient := func(isp *worldgen.ISP, name, token string) (*globaldb.Client, error) {
		host := w.NewClientHost(name, isp)
		c := &globaldb.Client{
			Endpoints: w.GlobalDBEndpoints, Host: worldgen.GlobalDBHost, Clock: w.Clock,
			ReportDial: host.Dial, FetchDial: host.Dial,
			Timeout: 5 * time.Minute, // a 100k-entry body takes a while on one emulated link
		}
		if err := c.Register(ctx, token); err != nil {
			return nil, fmt.Errorf("delta-sync: %s register: %w", name, err)
		}
		return c, nil
	}

	type row struct {
		n          int
		fullBytes  int
		deltaMean  float64
		ratio      float64
		fetchDelta int
	}
	var rows []row
	for si, n := range deltaSyncSizes {
		asn := 70000 + si
		isp, err := w.AddISP(asn, fmt.Sprintf("delta-isp-%d", si), &censor.Policy{})
		if err != nil {
			return nil, err
		}
		seeder, err := mkClient(isp, fmt.Sprintf("ds-seed-%d", si), "human-seeder")
		if err != nil {
			return nil, err
		}
		// One batch: the seeder's report count — and with it the vote
		// weight 1/d on every seeded entry — is fixed once, so later drift
		// from other reporters changes exactly one entry per round.
		recs := make([]localdb.Record, n)
		for i := range recs {
			recs[i] = localdb.Record{
				URL: fmt.Sprintf("u%05d.as%d.example/", i, asn), ASN: asn,
				Status: localdb.Blocked, Stages: []localdb.Stage{{Type: localdb.BlockDNS}},
				Measured: w.Clock.Now(),
			}
		}
		if acc, err := seeder.Report(ctx, recs); err != nil || acc != n {
			return nil, fmt.Errorf("delta-sync: seeding %d URLs: accepted %d, err %v", n, acc, err)
		}

		syncer, err := mkClient(isp, fmt.Sprintf("ds-sync-%d", si), "human-syncer")
		if err != nil {
			return nil, err
		}
		entries, err := syncer.FetchBlocked(ctx, asn)
		if err != nil {
			return nil, fmt.Errorf("delta-sync: initial full fetch (n=%d): %w", n, err)
		}
		if len(entries) != n {
			return nil, fmt.Errorf("delta-sync: full fetch returned %d entries, want %d", len(entries), n)
		}
		st := syncer.Stats()
		if st.FetchFull != 1 {
			return nil, fmt.Errorf("delta-sync: initial fetch was not a full body: %+v", st)
		}
		fullBytes := st.ListBytes

		deltaBytes := 0
		for r := 0; r < rounds; r++ {
			// A fresh reporter each round: its first-ever report leaves
			// every other reporter's vote weights untouched, so the delta
			// is exactly the one new entry.
			drifter, err := mkClient(isp, fmt.Sprintf("ds-drift-%d-%d", si, r), "human-drifter")
			if err != nil {
				return nil, err
			}
			rec := localdb.Record{
				URL: fmt.Sprintf("drift%03d.as%d.example/", r, asn), ASN: asn,
				Status: localdb.Blocked, Stages: []localdb.Stage{{Type: localdb.BlockHTTP, Detail: "blockpage"}},
				Measured: w.Clock.Now(),
			}
			if acc, err := drifter.Report(ctx, []localdb.Record{rec}); err != nil || acc != 1 {
				return nil, fmt.Errorf("delta-sync: drift round %d: accepted %d, err %v", r, acc, err)
			}
			before := syncer.Stats()
			entries, err = syncer.FetchBlocked(ctx, asn)
			if err != nil {
				return nil, fmt.Errorf("delta-sync: drift fetch %d (n=%d): %w", r, n, err)
			}
			after := syncer.Stats()
			if after.FetchDelta != before.FetchDelta+1 {
				return nil, fmt.Errorf("delta-sync: drift fetch %d (n=%d) was not delta-encoded: %+v", r, n, after)
			}
			if len(entries) != n+r+1 {
				return nil, fmt.Errorf("delta-sync: merged list has %d entries after drift %d, want %d", len(entries), r, n+r+1)
			}
			deltaBytes += after.ListBytes - before.ListBytes
		}
		mean := float64(deltaBytes) / float64(rounds)
		rows = append(rows, row{
			n: n, fullBytes: fullBytes, deltaMean: mean,
			ratio: mean / float64(fullBytes), fetchDelta: syncer.Stats().FetchDelta,
		})
	}

	// Shape gates: the delta payload must not scale with the universe (the
	// changed set is one entry regardless of N), so the ratio collapses —
	// and at the largest universe it clears the CI gate with a wide margin.
	small, large := rows[0], rows[len(rows)-1]
	if large.deltaMean > 3*small.deltaMean {
		return nil, fmt.Errorf("delta-sync: delta bytes grew with the universe: %.0f @ n=%d vs %.0f @ n=%d",
			small.deltaMean, small.n, large.deltaMean, large.n)
	}
	if large.ratio > 0.20 {
		return nil, fmt.Errorf("delta-sync: steady-state delta/full = %.3f at n=%d, gate is 0.20", large.ratio, large.n)
	}
	if large.ratio >= small.ratio {
		return nil, fmt.Errorf("delta-sync: ratio did not collapse with universe growth: %.3f → %.3f", small.ratio, large.ratio)
	}

	res := &Result{ID: "delta-sync", Title: "Delta sync keeps bytes/sync flat as the URL universe grows"}
	tbl := metrics.Table{Headers: []string{"universe (URLs)", "full fetch (bytes)", "mean delta/sync (bytes)", "delta/full", "delta rounds"}}
	for _, r := range rows {
		tbl.AddRow(fmt.Sprintf("%d", r.n), fmt.Sprintf("%d", r.fullBytes),
			fmt.Sprintf("%.0f", r.deltaMean), fmt.Sprintf("%.4f", r.ratio), fmt.Sprintf("%d", r.fetchDelta))
	}
	res.Text = tbl.String()
	for _, r := range rows {
		res.Metric(fmt.Sprintf("full_bytes.%d", r.n), float64(r.fullBytes))
		res.Metric(fmt.Sprintf("delta_bytes.%d", r.n), r.deltaMean)
		res.Metric(fmt.Sprintf("ratio.%d", r.n), r.ratio)
	}
	res.Metric("gate.ratio_max", 0.20)
	res.Note("every drift round changes one entry, so the delta payload is O(changed) while the full body is O(universe); this experiment fails above 20%% at the largest size, and the committed benchmark tracks the same ratio as globaldb.fetch_delta_ratio")
	return res, nil
}
