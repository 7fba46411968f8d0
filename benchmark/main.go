// Command benchmark is the repository's one committed benchmark: four fixed
// workloads on the discrete-event clock, end-to-end metrics from timed runs,
// per-layer metrics and a span trace from traced runs. See README.md.
//
// One run, as the driver invokes it:
//
//	benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// prints one JSON object as the last line of standard output. Without
// --workload it runs the whole suite in child processes and writes
// benchmark/out/results.json; with -compare A.json B.json it compares two
// such files.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

const (
	// outDir is where runs leave their artifacts (ignored by git).
	outDir = "benchmark/out"
	// specPath is the benchmark's declaration: bounds, run length, names.
	specPath = "BENCHMARK.json"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload: "+fmt.Sprint(workloadNames)+" (default: the whole suite)")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 0, "time budget of one run's timed rounds (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1 = traced run: spans, CPU profile and the per-layer table")
		compare  = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	)
	flag.Parse()
	if err := realMain(*workload, *seed, *seconds, *trace != 0, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func realMain(workload string, seed int64, seconds float64, trace, compare bool, args []string) error {
	if compare || workload == "" || seconds <= 0 {
		sp, err := loadSpec(specPath)
		if err != nil {
			return err
		}
		if seconds <= 0 {
			seconds = float64(sp.RunSeconds)
		}
		switch {
		case compare && len(args) != 2:
			return fmt.Errorf("-compare wants two result files")
		case compare:
			return compareFiles(sp, args[0], args[1])
		case workload == "":
			return runSuite(sp, seed, seconds)
		}
	}
	scratch := filepath.Join(outDir, fmt.Sprintf("scratch-%d", os.Getpid()))
	cfg := runConfig{
		workload: workload, seed: seed, seconds: seconds, trace: trace,
		sz: fullSizes, scratch: scratch,
	}
	if trace {
		cfg.traceOut = filepath.Join(outDir, "trace-"+workload+".jsonl")
	}
	m, err := runOnce(cfg)
	if rmErr := os.RemoveAll(scratch); err == nil {
		err = rmErr
	}
	if err != nil {
		return err
	}
	return report(m, trace)
}

// wireMetric is one reported value.
type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

// report prints the run: the facts the suite records, then — as the last
// line — the result object. A run whose outputs were wrong reports them and
// fails.
func report(m *measurement, trace bool) error {
	facts, err := json.Marshal(m.runFacts)
	if err != nil {
		return err
	}
	fmt.Printf("facts %s\n", facts)

	metrics := make(map[string]wireMetric)
	if trace {
		for _, name := range perLayerNames() {
			v, ok := m.metrics[name]
			if !ok {
				return fmt.Errorf("per-layer metric %s was not measured", name)
			}
			metrics[name] = wireMetric{v, unitOf(name)}
		}
	} else {
		for _, e := range endToEnd {
			metrics[e.name] = wireMetric{m.metrics[e.name], e.unit}
		}
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %16.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	if len(m.spans) > 0 {
		fmt.Printf("%-44s %9s %12s %12s\n", "span", "count", "total", "self")
		for _, r := range m.spans {
			fmt.Printf("%-44s %9d %12v %12v\n", r.name, r.count, r.total, r.self)
		}
	}
	if !m.correct() {
		return fmt.Errorf("incorrect outputs: %d of %d operations failed: %s", m.failed, m.attempted, m.problem)
	}
	line, err := json.Marshal(resultLine{true, m.attempted, m.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}
