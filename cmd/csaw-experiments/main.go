// csaw-experiments regenerates the paper's tables and figures on the
// emulated internet.
//
// Usage:
//
//	csaw-experiments [-run all|id1,id2,...] [-runs N] [-scale S] [-seed N]
//	                 [-trace trace.jsonl] [-list]
//
// Each experiment prints its rendered table/summary and key metrics; the
// IDs match the paper artifacts (table1, figure5a, ...). See DESIGN.md for
// the per-experiment index and EXPERIMENTS.md for recorded paper-vs-
// measured results.
//
// -trace hands trace-aware experiments (trace-breakdown) a flight recorder
// streaming JSONL spans to the given file; experiments that build several
// worlds share the one stream. -trace-profile picks the record profile:
// "timing" (default, human-facing durations floor-quantized to the tick)
// or "deterministic" (schedule-invariant structure only — same seed, same
// bytes; what the churn soak diffs).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"csaw/internal/experiments"
	"csaw/internal/trace"
	"csaw/internal/vtime"
)

func main() {
	var (
		run          = flag.String("run", "all", "comma-separated experiment IDs, or 'all'")
		runs         = flag.Int("runs", 0, "override per-series sample count (0 = paper defaults)")
		scale        = flag.Float64("scale", 0, "virtual clock scale (0 = per-experiment default)")
		seed         = flag.Int64("seed", 1, "random seed")
		list         = flag.Bool("list", false, "list experiment IDs and exit")
		traceOut     = flag.String("trace", "", "write flight-recorder spans from trace-aware experiments as JSONL to this file")
		traceProfile = flag.String("trace-profile", "timing", "trace record profile: timing (quantized durations) or deterministic (schedule-invariant, byte-identical per seed)")
	)
	flag.Parse()

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-22s %s\n", r.ID, r.Title)
		}
		return
	}

	var selected []experiments.Runner
	if *run == "all" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*run, ",") {
			r := experiments.Find(strings.TrimSpace(id))
			if r == nil {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, *r)
		}
	}

	opts := experiments.Options{Runs: *runs, Scale: *scale, Seed: *seed}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "csaw-experiments:", err)
			os.Exit(1)
		}
		defer f.Close()
		var profile []trace.Option
		switch *traceProfile {
		case "timing":
			profile = append(profile, trace.WithTiming(trace.DefaultTick))
		case "deterministic":
			// No timing option: records carry only the schedule-invariant
			// structure, so a re-run with the same seed is byte-identical.
		default:
			fmt.Fprintf(os.Stderr, "unknown -trace-profile %q (want timing or deterministic)\n", *traceProfile)
			os.Exit(2)
		}
		// One shared stream: each trace-aware experiment builds its world
		// (and clock) lazily, so Options carries a factory, not a tracer.
		sink := trace.NewStreamSink(f)
		opts.Trace = func(clock *vtime.Clock) *trace.Tracer {
			return trace.New(clock, sink, profile...)
		}
		fmt.Fprintf(os.Stderr, "tracing trace-aware experiments to %s (%s profile)\n", *traceOut, *traceProfile)
	}
	fmt.Printf("seed: %d\n\n", *seed)
	failed := 0
	for _, r := range selected {
		start := time.Now() //lint:allow-realtime reporting wall-clock runtime to the operator
		res, err := r.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "!! %s failed: %v\n", r.ID, err)
			failed++
			continue
		}
		fmt.Println(res.Render())
		//lint:allow-realtime reporting wall-clock runtime to the operator
		fmt.Printf("(%s finished in %.1fs wall)\n\n", r.ID, time.Since(start).Seconds())
	}
	if failed > 0 {
		os.Exit(1)
	}
}
