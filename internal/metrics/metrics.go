// Package metrics provides the small statistics toolkit the experiment
// harness uses: named event counters, empirical distributions (for the
// paper's CDF figures), percentiles, moving averages (the circumvention
// module's PLT estimator), and plain-text table/CDF rendering for
// experiment reports.
package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"csaw/internal/seedrand"
)

// Distribution is an accumulating empirical distribution. It is safe for
// concurrent Add.
//
// Two modes exist. The exact mode (NewDistribution) stores every sample:
// percentiles are exact, memory is O(n). The reservoir mode (NewReservoir)
// keeps a bounded uniform sample via Vitter's Algorithm R plus exact
// running count/sum/min/max, so fleet-scale runs can fold millions of PLT
// samples into a fixed footprint; percentiles are then estimates over the
// reservoir while N, Mean, Min and Max stay exact. The reservoir's
// randomness comes from a caller-seeded source so same-seed runs keep the
// repository's determinism guarantee.
type Distribution struct {
	mu     sync.Mutex
	vals   []float64
	sorted bool

	// Reservoir state. cap == 0 means exact mode; then n == len(vals) and
	// sum/min/max mirror the stored samples.
	cap      int
	rng      *rand.Rand
	n        int64
	sum      float64
	min, max float64
}

// NewDistribution returns an empty exact distribution.
func NewDistribution() *Distribution { return &Distribution{} }

// NewReservoir returns a bounded distribution holding at most capacity
// samples, replacing uniformly at random (Algorithm R) once full. The seed
// drives the replacement choices; thread it from the experiment seed.
func NewReservoir(capacity int, seed int64) *Distribution {
	if capacity <= 0 {
		panic("metrics: non-positive reservoir capacity")
	}
	return &Distribution{cap: capacity, rng: seedrand.New(seed)}
}

// Add records a value.
func (d *Distribution) Add(v float64) {
	d.mu.Lock()
	d.addLocked(v)
	d.mu.Unlock()
}

// addLocked folds one observation in. Caller holds d.mu.
func (d *Distribution) addLocked(v float64) {
	if d.n == 0 || v < d.min {
		d.min = v
	}
	if d.n == 0 || v > d.max {
		d.max = v
	}
	d.n++
	d.sum += v
	if d.cap == 0 || len(d.vals) < d.cap {
		d.vals = append(d.vals, v)
		d.sorted = false
		return
	}
	// Algorithm R: the i-th observation (1-based) replaces a random slot
	// with probability cap/i.
	if j := d.rng.Int63n(d.n); j < int64(d.cap) {
		d.vals[j] = v
		d.sorted = false
	}
}

// AddDuration records a duration in seconds.
func (d *Distribution) AddDuration(v time.Duration) { d.Add(v.Seconds()) }

// N returns the number of observations (not the stored sample size).
func (d *Distribution) N() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int(d.n)
}

// SampleSize returns how many samples are held in memory: N() in exact
// mode, at most the reservoir capacity otherwise.
func (d *Distribution) SampleSize() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.vals)
}

func (d *Distribution) sortedVals() []float64 {
	if !d.sorted {
		sort.Float64s(d.vals)
		d.sorted = true
	}
	return d.vals
}

// Percentile returns the p-th percentile (p in [0,100]) by linear
// interpolation, or NaN when empty.
func (d *Distribution) Percentile(p float64) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	vals := d.sortedVals()
	n := len(vals)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return vals[0]
	}
	rank := p / 100 * float64(n-1)
	lo := int(rank)
	if lo >= n-1 {
		return vals[n-1]
	}
	frac := rank - float64(lo)
	return vals[lo]*(1-frac) + vals[lo+1]*frac
}

// Median returns the 50th percentile.
func (d *Distribution) Median() float64 { return d.Percentile(50) }

// Mean returns the arithmetic mean over every observation (exact in both
// modes), or NaN when empty.
func (d *Distribution) Mean() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.n == 0 {
		return math.NaN()
	}
	return d.sum / float64(d.n)
}

// Min returns the smallest observation (exact in both modes), or NaN.
func (d *Distribution) Min() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.n == 0 {
		return math.NaN()
	}
	return d.min
}

// Max returns the largest observation (exact in both modes), or NaN.
func (d *Distribution) Max() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.n == 0 {
		return math.NaN()
	}
	return d.max
}

// Smooth folds sample v into the exponentially weighted moving average avg
// with smoothing factor alpha (0 < alpha ≤ 1): the average the
// circumvention module keeps per (approach, URL) to pick the lowest-PLT
// method (§4.3.2). A series' first sample is its first average. The
// average is a plain float64 its owner keeps under its own lock.
func Smooth(alpha, avg, v float64) float64 { return alpha*v + (1-alpha)*avg }

// Table renders experiment results as aligned plain text.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Series is a named distribution, for multi-line CDF summaries.
type Series struct {
	Name string
	Dist *Distribution
}

// SummarizeCDFs renders percentile summaries for several series — the
// textual stand-in for the paper's CDF plots.
func SummarizeCDFs(title string, series []Series) string {
	t := Table{
		Title:   title,
		Headers: []string{"series", "n", "p10", "p25", "median", "p75", "p90", "p95", "mean"},
	}
	for _, s := range series {
		t.AddRow(s.Name,
			fmt.Sprintf("%d", s.Dist.N()),
			fmtSec(s.Dist.Percentile(10)),
			fmtSec(s.Dist.Percentile(25)),
			fmtSec(s.Dist.Median()),
			fmtSec(s.Dist.Percentile(75)),
			fmtSec(s.Dist.Percentile(90)),
			fmtSec(s.Dist.Percentile(95)),
			fmtSec(s.Dist.Mean()),
		)
	}
	return t.String()
}

func fmtSec(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.2fs", v)
}
