// csaw-fleet drives a population-scale fleet of C-Saw clients through the
// emulated internet (internal/fleet) and prints the run's deterministic
// summary: same seed and population → byte-identical stdout, regardless of
// host load or worker count. The schedule-dependent measurements (PLT
// distributions, sync volume, peak goroutines) go to -o as JSON.
//
// Usage:
//
//	csaw-fleet [-population N | -clients N] [-duration D] [-seed N]
//	           [-sites N] [-isps N] [-blocked-frac F] [-workers N]
//	           [-o measured.json] [-progress]
//	           [-trace trace.jsonl] [-trace-sample N] [-allocs ledger.txt]
//
// The run measures counts, not latency, so it uses the discrete-event
// clock: virtual time jumps straight to the next timer, a 100k-client run
// finishes in real seconds, and the PLT / virtual-seconds measurements
// describe the shared event clock rather than page-load latency.
//
// -trace streams flight-recorder spans (sampled 1-in-N URLs, deterministic
// hash) as JSONL. Tracing forces workers=1 and serial clients so the trace
// content — not just the summary — is byte-identical across same-seed runs.
//
// -allocs writes the run's allocation ledger: allocations and bytes per
// planned fetch, by package, each allocation counted (MemProfileRate 1) and
// attributed to the first frame of its stack outside the runtime and the
// standard library. It forces workers=1 and serial clients, so that the
// ledger is the same run to run, and cannot be combined with -trace.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"csaw/internal/fleet"
	"csaw/internal/trace"
	"csaw/internal/worldgen"
)

func main() {
	var (
		population  = flag.Int("population", 500, "number of clients")
		duration    = flag.Duration("duration", 0, "virtual observation window (0 = workload default, 2h)")
		seed        = flag.Int64("seed", 1, "seed for the workload plan and all client randomness")
		sites       = flag.Int("sites", 0, "site catalog size (0 = workload default)")
		isps        = flag.Int("isps", 0, "number of censoring ISPs (0 = workload default)")
		blockedFrac = flag.Float64("blocked-frac", 0, "fraction of the catalog each AS blocks (0 = workload default)")
		workers     = flag.Int("workers", fleet.DefaultWorkers, "driver worker-pool size")
		out         = flag.String("o", "", "write the measured (timing-dependent) section as JSON to this file")
		progress    = flag.Bool("progress", false, "print live counters to stderr every virtual minute")
		traceOut    = flag.String("trace", "", "write flight-recorder spans as JSONL to this file (forces workers=1, serial clients)")
		traceSample = flag.Int("trace-sample", trace.DefaultSampleN, "trace one URL in N (deterministic hash-of-URL)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		allocsOut   = flag.String("allocs", "", "write the run's allocations per fetch by package to this file (forces workers=1, serial clients; not with -trace)")
	)
	flag.IntVar(population, "clients", 500, "number of clients (alias for -population)")
	flag.Parse()
	if *allocsOut != "" {
		if *traceOut != "" {
			fatal(fmt.Errorf("-allocs and -trace exclude each other: the tracer's allocations would be the ledger's"))
		}
		runtime.MemProfileRate = 1
	}

	wl := fleet.Workload{
		Population:  *population,
		Duration:    *duration,
		Seed:        *seed,
		Sites:       *sites,
		ISPs:        *isps,
		BlockedFrac: *blockedFrac,
	}.WithDefaults()

	w, err := worldgen.New(worldgen.Options{EventDriven: true, Seed: wl.Seed})
	if err != nil {
		fatal(err)
	}
	sc, err := w.BuildFleetScenario(wl.Sites, wl.ISPs, wl.BlockedFrac)
	if err != nil {
		fatal(err)
	}
	plan := fleet.BuildPlan(wl)
	opts := fleet.Options{Workers: *workers}
	var traceFile *os.File
	var traceSink *trace.SortedSink
	var tracer *trace.Tracer
	if *traceOut != "" {
		// Deterministic-trace discipline: a parallel fleet's per-fetch branch
		// choices depend on cross-client sync timing, so trace content is
		// only byte-stable when the whole run is single-threaded.
		opts.Workers = 1
		opts.SerialClients = true
		traceFile, err = os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		traceSink = trace.NewSortedSink(traceFile)
		tracer = trace.New(w.Clock, traceSink, trace.WithSampling(*traceSample))
		opts.Trace = tracer
	}
	if *allocsOut != "" {
		opts.Workers = 1
		opts.SerialClients = true
	}
	fmt.Fprintf(os.Stderr, "plan: %s (event-driven clock, %d workers)\n", plan, opts.Workers)
	if tracer != nil {
		fmt.Fprintf(os.Stderr, "tracing to %s (1 in %d URLs; serial clients)\n", *traceOut, *traceSample)
	}
	if *progress {
		opts.Progress = func(s fleet.Snapshot) {
			fmt.Fprintf(os.Stderr, "[%7.0fs virtual] joined %d left %d | sessions %d fetches %d (%d err) | syncs %d (%d err) | goroutines %d\n",
				s.VirtualElapsed.Seconds(), s.Joined, s.Left, s.Sessions, s.Fetches,
				s.FetchErrors, s.Syncs, s.SyncErrors, s.Goroutines)
		}
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	var before ledger
	var mem runtime.MemStats
	if *allocsOut != "" {
		before = readLedger()
		runtime.ReadMemStats(&mem)
	}
	start := time.Now() //lint:allow-realtime reporting wall-clock runtime to the operator
	res, err := fleet.Run(context.Background(), w, sc, plan, opts)
	if err != nil {
		fatal(err)
	}
	if *allocsOut != "" {
		after := readLedger()
		mallocs, total := mem.Mallocs, mem.TotalAlloc
		runtime.ReadMemStats(&mem)
		f, err := os.Create(*allocsOut)
		if err != nil {
			fatal(err)
		}
		if err := writeLedger(f, before, after, plan.Fetches, mem.Mallocs-mallocs, mem.TotalAlloc-total); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "allocation ledger written to %s\n", *allocsOut)
	}
	w.Close()
	//lint:allow-realtime reporting wall-clock runtime to the operator
	fmt.Fprintf(os.Stderr, "run finished in %.1fs wall\n", time.Since(start).Seconds())

	if tracer != nil {
		if err := traceSink.Flush(); err != nil {
			fatal(err)
		}
		if err := traceFile.Close(); err != nil {
			fatal(err)
		}
		started, sampled := tracer.Stats()
		fmt.Fprintf(os.Stderr, "trace: %d spans recorded of %d fetches\n", sampled, started)
	}

	// stdout carries only the deterministic summary — the byte-identical
	// same-seed artifact.
	fmt.Print(res.Summary.Render())

	// The measured section is written even when the consistency check is
	// about to fail the run: its counters (fetch/sync errors, degraded
	// clients) are exactly what diagnosing a divergence needs.
	if *out != "" {
		raw, err := json.MarshalIndent(&res.Measured, "", "  ")
		if err != nil {
			fatal(err)
		}
		raw = append(raw, '\n')
		if err := os.WriteFile(*out, raw, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "measured section written to %s\n", *out)
	} else {
		fmt.Fprint(os.Stderr, res.Measured.Render())
	}

	if !res.Summary.Consistent() {
		fmt.Fprintln(os.Stderr, "ERROR: global-DB per-AS lists diverged from the plan expectation")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "csaw-fleet:", err)
	os.Exit(1)
}
