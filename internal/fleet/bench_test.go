package fleet

import (
	"context"
	"io"
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
	// 1-in-64 sampling: its numbers are the *traced* cost, so a recorder
	// hot-path regression shows up instead of hiding behind an untraced
	// benchmark.
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
