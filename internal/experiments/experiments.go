// Package experiments regenerates every table and figure of the paper's
// evaluation on the emulated internet. Each runner declares the scenario
// world it needs (rig.go builds it), drives real C-Saw clients (or raw
// transports for the baselines), and returns a Result with the rendered
// report plus the key numbers, which EXPERIMENTS.md records against the
// paper's values.
//
// Absolute numbers depend on the emulated latency/bandwidth model; what is
// expected to reproduce is the *shape*: orderings, rough factors, and
// crossovers (see DESIGN.md).
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"csaw/internal/trace"
	"csaw/internal/vtime"
)

// Options tunes an experiment run.
type Options struct {
	// Scale is the virtual clock scale; 0 selects a per-experiment default.
	Scale float64
	// Runs overrides the per-series sample count (paper defaults: 200 for
	// Figure 1, 100 for Figure 5, 50 for Table 5). Benchmarks shrink it.
	Runs int
	// Seed drives all randomness.
	Seed int64
	// Trace, when set, is called with a scenario world's clock to build the
	// flight recorder that experiment's clients record into (csaw-experiments
	// -trace). Experiments that support tracing (trace-breakdown) call it
	// once per world; each world has its own clock, hence the factory shape.
	Trace func(clock *vtime.Clock) *trace.Tracer
}

// Result is one regenerated table or figure.
type Result struct {
	ID      string
	Title   string
	Text    string
	Metrics map[string]float64
	Notes   []string
}

// Metric records a key number.
func (r *Result) Metric(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]float64)
	}
	r.Metrics[name] = v
}

// Note records a free-form observation.
func (r *Result) Note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Render produces the full textual report.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n%s", r.ID, r.Title, r.Text)
	if len(r.Metrics) > 0 {
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString("key metrics:\n")
		for _, k := range keys {
			fmt.Fprintf(&b, "  %-40s %10.3f\n", k, r.Metrics[k])
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner is a registered experiment.
type Runner struct {
	ID    string
	Title string
	Run   func(Options) (*Result, error)
}

// All returns every experiment in paper order.
func All() []Runner {
	return []Runner{
		{"table1", "Filtering mechanisms of ISP-A vs ISP-B", Table1},
		{"figure1a", "HTTPS/DF vs static proxies (YouTube home)", Figure1a},
		{"figure1b", "HTTPS vs Tor by exit location", Figure1b},
		{"figure1c", "Lantern vs IP-as-hostname (keyword filter)", Figure1c},
		{"figure2", "Blocking-type mix across 8 ASes", Figure2},
		{"table2", "Ping latency to static proxies", Table2},
		{"table5", "Detection time per blocking type", Table5},
		{"figure5a", "Serial vs parallel redundancy (blocked pages)", Figure5a},
		{"figure5b", "Redundancy on a small unblocked page", Figure5b},
		{"figure5c", "Redundancy on a larger unblocked page", Figure5c},
		{"figure6a", "How many redundant Tor copies help", Figure6a},
		{"figure6b", "URL aggregation saves local_DB records", Figure6b},
		{"table6", "Median PLT vs direct re-measurement probability p", Table6},
		{"figure7a", "C-Saw vs Lantern vs Tor (DNS-blocked page)", Figure7a},
		{"figure7b", "C-Saw vs Lantern vs Tor (unblocked page)", Figure7b},
		{"figure7c", "C-Saw w/ Lantern vs w/ Tor (multi-stage blocking)", Figure7c},
		{"table7", "Pilot deployment aggregates", Table7},
		{"wild", "C-Saw in the wild: the Nov 2017 blocking timeline", Wild},
		{"classifier", "Two-phase block-page classifier operating point", Classifier},
		{"ablation-selective", "Ablation: selective redundancy", AblationSelectiveRedundancy},
		{"ablation-voting", "Ablation: vote-based trust vs false reports", AblationVoting},
		{"ablation-multihoming", "Ablation: multihoming adaptation", AblationMultihoming},
		{"ablation-explore", "Ablation: exploration cadence n", AblationExplore},
		{"ablation-fingerprint", "Ablation: censor-visible request footprint (§8)", AblationFingerprint},
		{"sync-fault", "Sync convergence under global-DB outages", SyncFault},
		{"censor-churn", "PLT collapse and crowd-sourced recovery across censor policy flips", CensorChurn},
		{"replica-loss", "Failover to follower replicas when the censor blackholes the primary", ReplicaLoss},
		{"primary-loss", "Follower promotion when the censor kills the primary outright", PrimaryLoss},
		{"delta-sync", "Delta sync keeps bytes/sync flat as the URL universe grows", DeltaSync},
		{"fleet", "Population-scale fleet workload", Fleet},
		{"trace-breakdown", "PLT phase breakdown behind ISP-B (flight recorder)", TraceBreakdown},
	}
}

// Find returns the runner with the given ID, or nil.
func Find(id string) *Runner {
	for _, r := range All() {
		if r.ID == id {
			return &r
		}
	}
	return nil
}

// fmtDur renders a virtual duration in seconds.
func fmtDur(d time.Duration) string { return fmt.Sprintf("%.2fs", d.Seconds()) }
