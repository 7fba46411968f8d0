package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read the benchmark declaration: %w", err)
	}
	var sp benchSpec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

// runRecord is one child run as the suite keeps it.
type runRecord struct {
	runFacts
	Seed      int64              `json:"seed"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	WallS     float64            `json:"wall_s"`
	Metrics   map[string]float64 `json:"metrics"`
}

// summaryStat is a metric over the timed runs.
type summaryStat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// workloadResult is everything the suite measured for one workload.
type workloadResult struct {
	Why      string                 `json:"why"`
	Runs     []runRecord            `json:"runs"`
	EndToEnd map[string]summaryStat `json:"end_to_end"`
	Traced   runRecord              `json:"traced"`
}

// resultSet is benchmark/out/results.json, and the committed baseline sets.
type resultSet struct {
	Claim      *string                    `json:"claim"` // always null: the benchmark claims no gain
	Commit     string                     `json:"commit"`
	Date       string                     `json:"date"`
	NProc      int                        `json:"nproc"`
	GoVersion  string                     `json:"go_version"`
	Seed       int64                      `json:"seed"`
	RunSeconds float64                    `json:"run_seconds"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

// runChild runs one measurement in a fresh process (so peak RSS, GC state
// and allocation counters belong to that run alone) and parses what it
// printed.
func runChild(workload string, seed int64, seconds float64, trace bool) (runRecord, error) {
	self, err := os.Executable()
	if err != nil {
		return runRecord{}, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", t)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	t0 := now()
	if err := cmd.Run(); err != nil {
		return runRecord{}, fmt.Errorf("%s (seed %d, trace %s): %w\n%s", workload, seed, t, err, stdout.String())
	}
	rec := runRecord{Seed: seed, WallS: since(t0).Seconds(), Metrics: map[string]float64{}}
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		last = sc.Text()
		if facts, ok := strings.CutPrefix(last, "facts "); ok {
			if err := json.Unmarshal([]byte(facts), &rec.runFacts); err != nil {
				return runRecord{}, fmt.Errorf("%s: facts line: %w", workload, err)
			}
		}
	}
	var res resultLine
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return runRecord{}, fmt.Errorf("%s: result line: %w", workload, err)
	}
	if !res.Correct {
		return runRecord{}, fmt.Errorf("%s: run reported incorrect outputs", workload)
	}
	rec.Attempted, rec.Failed = res.Attempted, res.Failed
	for k, v := range res.Metrics {
		rec.Metrics[k] = v.Value
	}
	return rec, nil
}

// suiteRepeats is the suite's number of timed runs per workload.
const suiteRepeats = 3

// runSuite runs every workload — suiteRepeats timed runs and one traced run
// each — prints the tables and writes results.json.
func runSuite(sp *benchSpec, seed int64, seconds float64) error {
	if seconds <= 0 {
		seconds = float64(sp.RunSeconds)
	}
	set := &resultSet{
		Commit: gitCommit(), Date: now().UTC().Format(time.RFC3339),
		NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
		Seed: seed, RunSeconds: seconds, Workloads: map[string]*workloadResult{},
	}
	units := map[string]string{}
	for _, e := range sp.EndToEnd {
		units[e.Name] = e.Unit
	}
	for _, w := range sp.Workloads {
		wr := &workloadResult{Why: w.Why, EndToEnd: map[string]summaryStat{}}
		set.Workloads[w.Name] = wr
		for i := 0; i < suiteRepeats; i++ {
			fmt.Fprintf(os.Stderr, "%s: timed run %d/%d\n", w.Name, i+1, suiteRepeats)
			rec, err := runChild(w.Name, seed, seconds, false)
			if err != nil {
				return err
			}
			if i > 0 && rec.SummarySHA != wr.Runs[0].SummarySHA {
				return fmt.Errorf("%s: summary digest differs between runs of seed %d", w.Name, seed)
			}
			wr.Runs = append(wr.Runs, rec)
		}
		fmt.Fprintf(os.Stderr, "%s: traced run\n", w.Name)
		traced, err := runChild(w.Name, seed, seconds, true)
		if err != nil {
			return err
		}
		if traced.SummarySHA != wr.Runs[0].SummarySHA {
			return fmt.Errorf("%s: traced run's summary digest differs", w.Name)
		}
		wr.Traced = traced
		fmt.Printf("\n== %s ==  %s\n", w.Name, w.Why)
		for _, e := range sp.EndToEnd {
			var vs []float64
			for _, r := range wr.Runs {
				vs = append(vs, r.Metrics[e.Name])
			}
			st := summaryStat{Median: median(vs), Min: quantile(vs, 0), Max: quantile(vs, 1), N: len(vs), Unit: e.Unit}
			wr.EndToEnd[e.Name] = st
			fmt.Printf("  %-18s %14.6g %-6s (min %.6g, max %.6g, n=%d)\n", e.Name, st.Median, e.Unit, st.Min, st.Max, st.N)
		}
		fmt.Printf("  %-18s %14d of %d\n", "failed", wr.Runs[0].Failed, wr.Runs[0].Attempted)
		for _, l := range sp.PerLayer {
			fmt.Printf("  %-40s %14.6g %s\n", l.Name, traced.Metrics[l.Name], l.Unit)
		}
		if a := traced.Metrics["cpu_share.attributed"]; w.Name == "fleet-10k" && a < 0.90 {
			return fmt.Errorf("fleet-10k: CPU profile attributes only %.3f of samples to a layer (want ≥ 0.90)", a)
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "results.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", path)
	return nil
}

// gitCommit is the checkout's commit, when it is a git checkout.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// compareFiles prints, per workload row, each end-to-end metric's two
// medians, their ratio with its base, the bound, and a verdict; it fails if
// anything regressed or an invariant (summary digest, simulated latency,
// failures) differs.
func compareFiles(sp *benchSpec, pathA, pathB string) error {
	load := func(p string) (*resultSet, error) {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rs resultSet
		if err := json.Unmarshal(b, &rs); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &rs, nil
	}
	a, err := load(pathA)
	if err != nil {
		return err
	}
	b, err := load(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("A = %s (%s, %s)\nB = %s (%s, %s)\n", pathA, a.Commit, a.Date, pathB, b.Commit, b.Date)
	bad := 0
	for _, w := range sp.Workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			return fmt.Errorf("%s: missing from one of the sets", w.Name)
		}
		fmt.Printf("\n== %s ==\n%-18s %14s %14s %10s %7s  %s\n", w.Name, "metric", "A median", "B median", "B/A", "bound", "verdict")
		for _, e := range sp.EndToEnd {
			va, vb := values(wa, e.Name), values(wb, e.Name)
			ma, mb := median(va), median(vb)
			verdict := "ok"
			worse := mb/ma - 1
			if e.Better == "higher" {
				worse = 1 - mb/ma
			}
			switch {
			case spread(va) > e.Bound || spread(vb) > e.Bound:
				// A spread wider than the bound cannot resolve a change of
				// that size — unless every B run beats every A run.
				if !allBetter(va, vb, e.Better) {
					verdict = "unresolved"
				}
			case worse > e.Bound:
				verdict = "regressed"
				bad++
			}
			fmt.Printf("%-18s %14.6g %14.6g %7.4f×A %6.0f%%  %s\n", e.Name, ma, mb, mb/ma, e.Bound*100, verdict)
		}
		if ca, cb := calib(wa), calib(wb); math.Abs(cb/ca-1) > 0.10 {
			fmt.Printf("  machine drift: calib_ms %.1f vs %.1f differ by more than 10%%; timings are not comparable\n", ca, cb)
		}
		if wa.Runs[0].SummarySHA != wb.Runs[0].SummarySHA && a.Seed == b.Seed {
			fmt.Printf("  summary digest differs: %s vs %s\n", wa.Runs[0].SummarySHA, wb.Runs[0].SummarySHA)
			bad++
		}
		for _, r := range append(append([]runRecord{}, wa.Runs...), wb.Runs...) {
			if r.Failed != 0 {
				fmt.Printf("  a run had %d failed operations\n", r.Failed)
				bad++
			}
		}
	}
	if a.Seed == b.Seed {
		// Simulated latency is a function of the seed alone.
		ta, tb := a.Workloads["fetch-ladder"].Traced.Metrics, b.Workloads["fetch-ladder"].Traced.Metrics
		var names []string
		for n := range ta {
			if strings.HasSuffix(n, "_virtual_ms") {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			if ta[n] != tb[n] {
				fmt.Printf("\n%s differs: %v vs %v (must be bit-equal)\n", n, ta[n], tb[n])
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d regressions or broken invariants", bad)
	}
	fmt.Println("\nno regression")
	return nil
}

func values(w *workloadResult, metric string) []float64 {
	var vs []float64
	for _, r := range w.Runs {
		vs = append(vs, r.Metrics[metric])
	}
	return vs
}

// spread is the range of vs as a share of its median.
func spread(vs []float64) float64 {
	return (quantile(vs, 1) - quantile(vs, 0)) / median(vs)
}

// allBetter reports whether every B value beats every A value.
func allBetter(a, b []float64, better string) bool {
	if better == "higher" {
		return quantile(b, 0) > quantile(a, 1)
	}
	return quantile(b, 1) < quantile(a, 0)
}

func calib(w *workloadResult) float64 {
	var vs []float64
	for _, r := range w.Runs {
		vs = append(vs, r.CalibMS)
	}
	return median(vs)
}
