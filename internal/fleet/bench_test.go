package fleet

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"

	"csaw/internal/trace"
	"csaw/internal/worldgen"
)

// --- The end-to-end fleet run ------------------------------------------

// benchWorkload is the per-iteration fleet run: big enough that the sync
// plane and worker pool matter, small enough for -bench=. CI budgets.
func benchWorkload() Workload {
	return Workload{
		Population:   150,
		Duration:     30 * time.Minute,
		Seed:         17,
		Sites:        120,
		ISPs:         6,
		BlockedFrac:  0.18,
		MeanSessions: 1.5,
		MaxFetches:   3,
	}
}

func runBenchFleet(tb testing.TB) *RunResult {
	wl := benchWorkload()
	w, err := worldgen.New(worldgen.Options{Scale: 2400, Seed: wl.Seed})
	if err != nil {
		tb.Fatalf("world: %v", err)
	}
	sc, err := w.BuildFleetScenario(wl.Sites, wl.ISPs, wl.BlockedFrac)
	if err != nil {
		tb.Fatalf("scenario: %v", err)
	}
	// The benchmark runs with the flight recorder attached at the default
	// 1-in-64 sampling: BENCH_fleet.json's numbers are the *traced* cost, so
	// a recorder hot-path regression shows up in the acceptance trajectory
	// instead of hiding behind an untraced benchmark.
	opts := Options{
		Workers: 32,
		Trace:   trace.New(w.Clock, trace.NewStreamSink(io.Discard), trace.WithSampling(trace.DefaultSampleN)),
	}
	res, err := Run(context.Background(), w, sc, BuildPlan(wl), opts)
	if err != nil {
		tb.Fatalf("run: %v", err)
	}
	return res
}

// BenchmarkFleetRun drives a full fleet run per iteration and republishes
// its headline numbers as benchmark metrics.
func BenchmarkFleetRun(b *testing.B) {
	b.ReportAllocs()
	var last *RunResult
	for i := 0; i < b.N; i++ {
		last = runBenchFleet(b)
	}
	m := last.Measured
	b.ReportMetric(float64(m.Fetches), "fetches")
	b.ReportMetric(float64(m.PeakGoroutines), "peak-goroutines")
	b.ReportMetric(float64(m.Syncs), "syncs")
	if d, ok := m.PLT["direct"]; ok {
		b.ReportMetric(d.P50, "direct-p50-s")
	}
}

// --- The population-vs-throughput curve ---------------------------------

// popPoint is one point of the population curve: one full fleet run at a
// given population, clock engine, and virtual observation window, reduced
// to its throughput headline plus the sync-path mix — the per-population
// record of what one sync round costs on the wire now that delta sync is
// the driver's default path (deltaHistoryFor sizes the server's edit
// history to the fleet).
type popPoint struct {
	Population        int            `json:"population"`
	Mode              string         `json:"mode"` // "event" | "scaled"
	WindowHours       float64        `json:"window_hours"`
	Fetches           int            `json:"fetches"`
	RealSeconds       float64        `json:"real_seconds"`
	FetchesPerRealSec float64        `json:"fetches_per_real_sec"`
	PeakGoroutines    int            `json:"peak_goroutines"`
	DeltaSync         DeltaSyncStats `json:"delta_sync"`
}

// curveScale is the scaled-clock baseline's scale for the 10k points —
// csaw-fleet's auto choice at that population (any higher and scheduler
// stalls eat into virtual deadlines). The scaled engine keeps the
// real-sleeping execution model the pre-scheduler goroutine-per-client
// driver had, so these runs are the baseline the event_speedup_10k gate
// compares against.
const curveScale = 600

// steadyWindow is the engine-comparison observation window: three virtual
// days, the regime the paper's pilot deployment actually ran in (weeks of
// wall time, a handful of sessions per client per day). A workload's session
// and fetch counts are per-client draws independent of the window, so
// stretching the window keeps the work identical and exposes the structural
// difference between the engines: the scaled clock's wall time has a
// hardware-independent floor of window/scale (72h/600 = 432 real seconds —
// that is what "goroutine-backed clients sleeping real time" costs), while
// the event engine's wall time tracks CPU work only, unchanged from the 2h
// window. More cores shrink the event side further and cannot shrink the
// floor, so the gated ratio is conservative on any multicore CI box.
const steadyWindow = 72 * time.Hour

func runCurvePoint(tb testing.TB, population int, eventDriven bool, window time.Duration) popPoint {
	wl := Workload{Population: population, Seed: 17, Duration: window}.WithDefaults()
	wopts := worldgen.Options{Seed: wl.Seed, EventDriven: eventDriven}
	mode := "event"
	if !eventDriven {
		wopts.Scale = curveScale
		mode = "scaled"
	}
	w, err := worldgen.New(wopts)
	if err != nil {
		tb.Fatalf("world: %v", err)
	}
	sc, err := w.BuildFleetScenario(wl.Sites, wl.ISPs, wl.BlockedFrac)
	if err != nil {
		tb.Fatalf("scenario: %v", err)
	}
	start := time.Now() //lint:allow-realtime benchmark measures real throughput by design
	res, err := Run(context.Background(), w, sc, BuildPlan(wl), Options{})
	if err != nil {
		tb.Fatalf("run (%d clients, %s): %v", population, mode, err)
	}
	real := time.Since(start).Seconds() //lint:allow-realtime see above
	if !res.Summary.Consistent() {
		tb.Errorf("curve point (%d clients, %s) diverged from plan expectation:\n%s",
			population, mode, res.Summary.Render())
	}
	return popPoint{
		Population:        population,
		Mode:              mode,
		WindowHours:       wl.Duration.Hours(),
		Fetches:           res.Measured.Fetches,
		RealSeconds:       real,
		FetchesPerRealSec: float64(res.Measured.Fetches) / real,
		PeakGoroutines:    res.Measured.PeakGoroutines,
		DeltaSync:         res.Measured.DeltaSync(),
	}
}

// --- The BENCH_fleet.json emitter --------------------------------------

// benchFleetDoc is the emitted schema; .github/workflows/ci.yml uploads the
// file as an artifact via `make bench-fleet`. Schema 2 added the
// population-vs-throughput curve and its event_speedup_10k gate; schema 3
// has no sync_round object.
type benchFleetDoc struct {
	Schema    int    `json:"schema"`
	Generated string `json:"generated"`

	FleetRun struct {
		Population        int     `json:"population"`
		Fetches           int     `json:"fetches"`
		RealSeconds       float64 `json:"real_seconds"`
		FetchesPerRealSec float64 `json:"fetches_per_real_sec"`
		Measured
	} `json:"fleet_run"`

	// PopulationCurve: same-seed default workloads at growing populations,
	// all on the default 2h window (the numbers csaw-fleet reproduces),
	// plus the engine-comparison pair at 10k clients on the steady-state
	// 72h window. EventSpeedup10k is that pair's fetches-per-real-second
	// ratio, gated ≥10: the scaled engine pays the window/scale real-sleep
	// floor the pre-scheduler driver was built on, the event engine does
	// not. The 100k point is emitted only under CSAW_BENCH_FLEET_FULL=1.
	PopulationCurve []popPoint `json:"population_curve"`
	EventSpeedup10k float64    `json:"event_speedup_10k"`
}

// TestEmitBenchFleet writes BENCH_fleet.json when CSAW_BENCH_FLEET_OUT is
// set (`make bench-fleet`), and enforces the trajectory's acceptance gate:
// the discrete-event engine must push ≥10× the scaled engine's
// fetches-per-real-second at 10k clients on the 72h steady-state window
// (see steadyWindow for why that is the honest comparison). Set
// CSAW_BENCH_FLEET_FULL=1 to extend the curve to 100k clients.
func TestEmitBenchFleet(t *testing.T) {
	out := os.Getenv("CSAW_BENCH_FLEET_OUT")
	if out == "" {
		t.Skip("set CSAW_BENCH_FLEET_OUT=BENCH_fleet.json to emit the benchmark document")
	}

	var doc benchFleetDoc
	doc.Schema = 3
	doc.Generated = time.Now().UTC().Format(time.RFC3339) //lint:allow-realtime artifact timestamp for the operator
	start := time.Now()                                   //lint:allow-realtime benchmark measures real throughput by design
	res := runBenchFleet(t)
	real := time.Since(start).Seconds() //lint:allow-realtime see above
	doc.FleetRun.Population = res.Summary.Population
	doc.FleetRun.Fetches = res.Measured.Fetches
	doc.FleetRun.RealSeconds = real
	doc.FleetRun.FetchesPerRealSec = float64(res.Measured.Fetches) / real
	doc.FleetRun.Measured = res.Measured

	event1k := runCurvePoint(t, 1_000, true, 0)
	event10k := runCurvePoint(t, 10_000, true, 0)
	scaled10k := runCurvePoint(t, 10_000, false, 0)
	eventSteady := runCurvePoint(t, 10_000, true, steadyWindow)
	scaledSteady := runCurvePoint(t, 10_000, false, steadyWindow)
	doc.PopulationCurve = []popPoint{event1k, event10k, scaled10k, eventSteady, scaledSteady}
	if os.Getenv("CSAW_BENCH_FLEET_FULL") != "" {
		doc.PopulationCurve = append(doc.PopulationCurve, runCurvePoint(t, 100_000, true, 0))
	}
	doc.EventSpeedup10k = eventSteady.FetchesPerRealSec / scaledSteady.FetchesPerRealSec

	raw, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	raw = append(raw, '\n')
	if err := os.WriteFile(out, raw, 0o644); err != nil {
		t.Fatalf("write %s: %v", out, err)
	}
	t.Logf("fleet run: %d fetches in %.2fs", doc.FleetRun.Fetches, real)
	for _, p := range doc.PopulationCurve {
		t.Logf("curve: %6d clients %-6s %4.0fh window %7d fetches in %7.2fs → %8.0f fetches/s (peak %d goroutines)",
			p.Population, p.Mode, p.WindowHours, p.Fetches, p.RealSeconds, p.FetchesPerRealSec, p.PeakGoroutines)
		d := p.DeltaSync
		t.Logf("       sync path: %d full, %d delta, %d 304; %d list bytes (%.0f bytes/sync)",
			d.FetchFull, d.FetchDelta, d.Fetch304, d.ListBytes, d.BytesPerSync)
	}
	t.Logf("event speedup at 10k clients (72h steady-state window): %.1fx", doc.EventSpeedup10k)
	if doc.EventSpeedup10k < 10 {
		t.Errorf("event-engine speedup %.2fx at 10k clients (72h window) below the 10x acceptance gate", doc.EventSpeedup10k)
	}
	if !res.Summary.Consistent() {
		t.Errorf("fleet run diverged from plan expectation:\n%s", res.Summary.Render())
	}
}
