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
// largest size it must clear a ≤ 20% gate. It measures bytes, not time, so
// it runs on the event clock and its report is byte-exact.
var DeltaSync = experiment("delta-sync", scenario{world: worldgen.Options{EventDriven: true}}, func(r *rig) *Result {
	w, ctx, rounds := r.w, context.Background(), r.runs(5)
	// A 100k-entry body takes a while on one emulated link.
	mkClient := func(isp *worldgen.ISP, name, token string) *globaldb.Client {
		return r.reporter(name, token, 5*time.Minute, isp)
	}
	blocked := func(url string, asn int, stage localdb.Stage) localdb.Record {
		return localdb.Record{URL: url, ASN: asn, Status: localdb.Blocked, Stages: []localdb.Stage{stage}, Measured: w.Clock.Now()}
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
		isp := r.addISP(ispRow{asn, fmt.Sprintf("delta-isp-%d", si), &censor.Policy{}})
		seeder := mkClient(isp, fmt.Sprintf("ds-seed-%d", si), "human-seeder")
		// One batch: the seeder's report count — and with it the vote
		// weight 1/d on every seeded entry — is fixed once, so later drift
		// from other reporters changes exactly one entry per round.
		recs := make([]localdb.Record, n)
		for i := range recs {
			recs[i] = blocked(fmt.Sprintf("u%05d.as%d.example/", i, asn), asn, localdb.Stage{Type: localdb.BlockDNS})
		}
		acc, err := seeder.Report(ctx, recs)
		r.hold(err == nil && acc == n, "seeding %d URLs: accepted %d, err %v", n, acc, err)

		syncer := mkClient(isp, fmt.Sprintf("ds-sync-%d", si), "human-syncer")
		entries, err := syncer.FetchBlocked(ctx, asn)
		r.ok(err, "initial full fetch (n=%d)", n)
		r.hold(len(entries) == n, "full fetch returned %d entries, want %d", len(entries), n)
		st := syncer.Counters()
		r.hold(st.Get("fetch-full") == 1, "initial fetch was not a full body: %v", st.Snapshot())
		fullBytes := st.Get("list-bytes")

		deltaBytes := 0
		for round := 0; round < rounds; round++ {
			// A fresh reporter each round: its first-ever report leaves
			// every other reporter's vote weights untouched, so the delta
			// is exactly the one new entry.
			drifter := mkClient(isp, fmt.Sprintf("ds-drift-%d-%d", si, round), "human-drifter")
			acc, err := drifter.Report(ctx, []localdb.Record{blocked(fmt.Sprintf("drift%03d.as%d.example/", round, asn), asn,
				localdb.Stage{Type: localdb.BlockHTTP, Detail: "blockpage"})})
			r.hold(err == nil && acc == 1, "drift round %d: accepted %d, err %v", round, acc, err)
			before := st.Snapshot()
			entries, err = syncer.FetchBlocked(ctx, asn)
			r.ok(err, "drift fetch %d (n=%d)", round, n)
			moved := metrics.Diff(st.Snapshot(), before)
			r.hold(moved["fetch-delta"] == 1, "drift fetch %d (n=%d) was not delta-encoded: %v", round, n, moved)
			r.hold(len(entries) == n+round+1, "merged list has %d entries after drift %d, want %d", len(entries), round, n+round+1)
			deltaBytes += moved["list-bytes"]
		}
		mean := float64(deltaBytes) / float64(rounds)
		rows = append(rows, row{
			n: n, fullBytes: fullBytes, deltaMean: mean,
			ratio: mean / float64(fullBytes), fetchDelta: st.Get("fetch-delta"),
		})
	}

	// Shape gates: the delta payload must not scale with the universe (the
	// changed set is one entry regardless of N), so the ratio collapses —
	// and at the largest universe it clears the CI gate with a wide margin.
	small, large := rows[0], rows[len(rows)-1]
	r.hold(large.deltaMean <= 3*small.deltaMean, "delta bytes grew with the universe: %.0f @ n=%d vs %.0f @ n=%d",
		small.deltaMean, small.n, large.deltaMean, large.n)
	r.hold(large.ratio <= 0.20, "steady-state delta/full = %.3f at n=%d, gate is 0.20", large.ratio, large.n)
	r.hold(large.ratio < small.ratio, "ratio did not collapse with universe growth: %.3f → %.3f", small.ratio, large.ratio)

	res := &Result{Title: "Delta sync keeps bytes/sync flat as the URL universe grows"}
	tbl := metrics.Table{Headers: []string{"universe (URLs)", "full fetch (bytes)", "mean delta/sync (bytes)", "delta/full", "delta rounds"}}
	for _, row := range rows {
		tbl.AddRow(fmt.Sprintf("%d", row.n), fmt.Sprintf("%d", row.fullBytes),
			fmt.Sprintf("%.0f", row.deltaMean), fmt.Sprintf("%.4f", row.ratio), fmt.Sprintf("%d", row.fetchDelta))
		res.Metric(fmt.Sprintf("full_bytes.%d", row.n), float64(row.fullBytes))
		res.Metric(fmt.Sprintf("delta_bytes.%d", row.n), row.deltaMean)
		res.Metric(fmt.Sprintf("ratio.%d", row.n), row.ratio)
	}
	res.Text = tbl.String()
	res.Metric("gate.ratio_max", 0.20)
	res.Note("every drift round changes one entry, so the delta payload is O(changed) while the full body is O(universe); this experiment fails above 20%% at the largest size, and the committed benchmark tracks the same ratio as globaldb.fetch_delta_ratio")
	return res
})
