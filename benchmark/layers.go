package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// The per-layer table: every layer measured from outside through its public
// functions, the same way whatever workload the traced run belongs to. It
// ends with reduced runs of the four workloads themselves, which supply the
// numbers only a whole run has (sync mix, recovery time, goroutine peak).

// cost is one call's mean host time and allocation count.
type cost struct{ ns, allocs float64 }

// table collects one layer group's metrics, name → value.
type table map[string]float64

// put records c as <name>_ns and <name>_allocs.
func (t table) put(name string, c cost) { t[name+"_ns"], t[name+"_allocs"] = c.ns, c.allocs }

// loopCost times n calls of op and returns the per-call mean. With prep set,
// prep(i) runs before each call outside the measurement, which then brackets
// every call on its own (ReadMemStats stops the world, so this form is for
// small n).
func loopCost(n int, prep, op func(i int) error) (cost, error) {
	if n < 1 {
		n = 1
	}
	if prep == nil {
		for i := 0; i < n/10+1; i++ { // warm caches and pools
			if err := op(i); err != nil {
				return cost{}, err
			}
		}
		sec, err := timed(func() error {
			for i := 0; i < n; i++ {
				if err := op(i); err != nil {
					return err
				}
			}
			return nil
		})
		return cost{float64(sec.wall) / float64(n), float64(sec.allocs) / float64(n)}, err
	}
	var wall time.Duration
	var allocs uint64
	var m0, m1 runtime.MemStats
	for i := 0; i < n; i++ {
		if err := prep(i); err != nil {
			return cost{}, err
		}
		runtime.ReadMemStats(&m0)
		t0 := now()
		err := op(i)
		wall += since(t0)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return cost{}, err
		}
		allocs += m1.Mallocs - m0.Mallocs
	}
	return cost{float64(wall) / float64(n), float64(allocs) / float64(n)}, nil
}

// layerSizes are the reduced workloads the table ends with.
var layerSizes = sizes{
	fleetClients:  1000,
	ladderPerRung: 250,
	syncClients:   200, syncASes: 8, syncURLs: 500, syncOps: 2000,
	ingestUsers: 2000, ingestASes: 8, ingestUniverse: 1000, ingestPosts: 4096,
	deltaHistory: 256,
}

// layerTable runs the whole table.
func layerTable(cfg runConfig) (map[string]float64, error) {
	it := func(n int) int { return max(3, n/cfg.sz.microDiv) }
	sz := layerSizes
	if cfg.sz.microDiv > 1 {
		sz = cfg.sz
	}
	out := map[string]float64{}
	merge := func(m map[string]float64, err error) error {
		for k, v := range m {
			out[k] = v
		}
		return err
	}
	ctx := context.Background()

	if err := merge(vtimeLayer(it)); err != nil {
		return nil, fmt.Errorf("vtime: %w", err)
	}
	if err := merge(worldgenLayer(cfg.seed, it)); err != nil {
		return nil, fmt.Errorf("worldgen: %w", err)
	}
	if err := merge(planLayer(cfg.seed, cfg.sz.fleetClients, it)); err != nil {
		return nil, fmt.Errorf("fleet plan: %w", err)
	}
	if err := merge(pureLayers(it)); err != nil {
		return nil, fmt.Errorf("pure layers: %w", err)
	}
	if err := merge(storageLayer(cfg.scratch, it)); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	if err := merge(replicaLayer(cfg.seed, it)); err != nil {
		return nil, fmt.Errorf("replica: %w", err)
	}
	if err := merge(globaldbLayer(filepath.Join(cfg.scratch, "layer-db"), sz, it)); err != nil {
		return nil, fmt.Errorf("globaldb: %w", err)
	}

	// The fetch ladder: per-rung fetch cost, and the flight recorder's
	// overhead from rounds alternated between a ladder without it and one
	// with it. The in-world layer fixtures share the first ladder's world.
	plain, flight := &ladderWL{sz: sz}, &ladderWL{sz: sz, flight: true}
	var perOp [2][]float64
	var opTimes []time.Duration
	for i, wl := range []*ladderWL{plain, flight} {
		if err := wl.setup(cfg.seed, nil, 0, 0); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		wl.sz.ladderPerRung = (sz.ladderPerRung + 3) / 4
		perOp[i] = make([]float64, 0, 4)
	}
	for r := 0; r < 4; r++ {
		for i, wl := range []*ladderWL{plain, flight} {
			var rr roundResult
			sec, err := timed(func() (err error) {
				rr, err = wl.round(ctx, nil, 0, r)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("ladder: %w", err)
			}
			perOp[i] = append(perOp[i], float64(sec.wall)/float64(rr.ops))
			if wl == plain {
				opTimes = append(opTimes, rr.opTimes...)
			}
		}
	}
	out["trace.fetch_overhead_ratio"] = median(perOp[1]) / median(perOp[0])
	out["core.fetch_p99_us"] = durQuantileUS(opTimes, 0.99)
	for k, v := range plain.extras() {
		if k != "virtual_ms_per_op" {
			out[k] = v
		}
	}
	for i, rung := range ladderRungs {
		c, err := loopCost(sz.ladderPerRung, nil, func(int) error { _, err := plain.l.fetch(ctx, i); return err })
		if err != nil {
			return nil, fmt.Errorf("ladder %s: %w", rung, err)
		}
		out["core.fetch."+rung+"_allocs"] = c.allocs
	}
	if err := merge(inWorld(plain.l, it)); err != nil {
		return nil, fmt.Errorf("in-world layers: %w", err)
	}
	for _, wl := range []*ladderWL{plain, flight} {
		if _, err := wl.verify(nil, 0, 0); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		if err := wl.release(); err != nil {
			return nil, err
		}
	}

	// A reduced fleet, then Client.SyncNow against the world it populated.
	fl := &fleetWL{sz: sz}
	if err := fl.setup(cfg.seed, nil, 0, 0); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	var frr roundResult
	sec, err := timed(func() (err error) {
		frr, err = fl.round(ctx, nil, 0, 0)
		return err
	})
	if err != nil || frr.failed > 0 {
		return nil, fmt.Errorf("fleet: %d failures: %v", frr.failed, err)
	}
	out["fleet.run_s"] = sec.wall.Seconds()
	for k, v := range fl.extras() {
		switch k {
		case "op_p50_us":
		case "sync_bytes_per_round":
			out["fleet.sync_bytes_per_round"] = v
		default:
			out[k] = v
		}
	}
	if err := merge(syncLayer(fl.fw, cfg.seed, it)); err != nil {
		return nil, fmt.Errorf("core sync: %w", err)
	}

	// Reduced db-sync and db-ingest: the sync mix, tail latencies, recovery.
	sy := &syncWL{dbBase: dbBase{sz: sz, dir: cfg.scratch}}
	if err := oneRoundOf(sy, cfg.seed); err != nil {
		return nil, fmt.Errorf("db-sync: %w", err)
	}
	for k, v := range sy.extras() {
		switch k {
		case "recover_s", "globaldb.report_post_p99_us":
		case "sync_bytes_per_round":
			out["globaldb.sync_bytes_per_round"] = v
		default:
			out[k] = v
		}
	}
	in := &ingestWL{dbBase: dbBase{sz: sz, dir: cfg.scratch}}
	if err := oneRoundOf(in, cfg.seed); err != nil {
		return nil, fmt.Errorf("db-ingest: %w", err)
	}
	ie := in.extras()
	out["globaldb.report_post_p99_us"] = ie["globaldb.report_post_p99_us"]
	out["globaldb.recover_ms"] = ie["recover_s"] * 1000
	return out, nil
}

// oneRoundOf sets a workload up, runs one round and verifies it.
func oneRoundOf(wl workload, seed int64) error {
	if err := wl.setup(seed, nil, 0, 0); err != nil {
		return err
	}
	rr, err := wl.round(context.Background(), nil, 0, 0)
	if err != nil {
		return err
	}
	wrong, err := wl.verify(nil, 0, 0)
	if err != nil {
		return err
	}
	if rr.failed+wrong > 0 {
		return fmt.Errorf("%d operations failed, %d outputs wrong", rr.failed, wrong)
	}
	return wl.release()
}

// globaldbLayer measures the DB's request kinds one at a time through its
// handler: registration, a five-report post, and the three answers to a
// list fetch (full body, 304, delta).
func globaldbLayer(dir string, sz sizes, it func(int) int) (map[string]float64, error) {
	const asn = 65200
	users := it(200_000) / 100 // 2000 at full size
	if users < 50 {
		users = 50 // a list long enough that a delta is smaller than it
	}
	b := &dbBase{sz: sz, dir: dir}
	if err := b.open(users*2, []int{asn}); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	// Registration: the first half registers before the measurement (they
	// are the reporters below), the second half is the measured loop.
	for u := 0; u < users; u++ {
		if err := b.register(u, nil, 0, 0); err != nil {
			return nil, err
		}
	}
	c, err := loopCost(users, nil, func(i int) error { return b.register(users+i, nil, 0, 0) })
	if err != nil {
		return nil, err
	}
	out["globaldb.register_ns"] = c.ns

	// Fill: every reporter posts its two batches; the measured posts are
	// re-reports of the same batches.
	bodies := make([][]byte, 0, 2*users)
	for u := 0; u < users; u++ {
		for half := 0; half < 2; half++ {
			refs := make([]urlRef, ingestBatch)
			for j := range refs {
				refs[j] = urlRef{asn, (u*7 + (half*ingestBatch+j)*13) % sz.syncURLs}
			}
			body, err := b.reportBody(u, refs)
			if err != nil {
				return nil, err
			}
			if !b.post(body, ingestBatch) {
				return nil, fmt.Errorf("fill post rejected")
			}
			bodies = append(bodies, body)
		}
	}
	post := func(i int) error {
		if !b.post(bodies[i%len(bodies)], ingestBatch) {
			return fmt.Errorf("report rejected")
		}
		return nil
	}
	c, err = loopCost(it(5_000), nil, post)
	if err != nil {
		return nil, err
	}
	out["globaldb.report_ns"], out["globaldb.report_allocs"] = c.ns/ingestBatch, c.allocs/ingestBatch

	target := dbPathFetch + "?asn=" + strconv.Itoa(asn)
	tag := ""
	fetch := func(inm string, wantStatus int, wantDelta bool) func(int) error {
		return func(int) error {
			use := inm
			if inm == "current" {
				use = tag
			}
			rep := b.db.call("GET", target, "10.254.0.3", use, "", nil)
			if rep.status != wantStatus || rep.delta != wantDelta {
				return fmt.Errorf("GET answered %d (delta=%v), want %d (delta=%v)", rep.status, rep.delta, wantStatus, wantDelta)
			}
			tag = rep.etag
			return nil
		}
	}
	c, err = loopCost(it(50_000), nil, fetch("", 200, false))
	if err != nil {
		return nil, err
	}
	out["globaldb.fetch_full_ns"], out["globaldb.fetch_full_allocs"] = c.ns, c.allocs
	c, err = loopCost(it(50_000), nil, fetch("current", 304, false))
	if err != nil {
		return nil, err
	}
	out["globaldb.fetch_304_ns"], out["globaldb.fetch_304_allocs"] = c.ns, c.allocs
	// Delta: a reporter adds one URL (the list's version moves), then the
	// fetch presents the tag from before.
	extra := 0
	c, err = loopCost(it(200_000)/2000, func(i int) error {
		extra++
		body, err := b.reportBody(i%users, []urlRef{{asn, sz.syncURLs + extra}})
		if err != nil {
			return err
		}
		if !b.post(body, 1) {
			return fmt.Errorf("delta prep post rejected")
		}
		return nil
	}, fetch("current", 200, true))
	if err != nil {
		return nil, err
	}
	out["globaldb.fetch_delta_ns"], out["globaldb.fetch_delta_allocs"] = c.ns, c.allocs
	return out, b.release()
}
