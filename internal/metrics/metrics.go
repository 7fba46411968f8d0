// Package metrics provides the small statistics toolkit the experiment
// harness uses: named event counters, empirical distributions (for the
// paper's CDF figures and the fleet's PLT per source), percentiles, and
// plain-text table/CDF rendering for experiment reports.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// Distribution is an accumulating empirical distribution. It is safe for
// concurrent Add.
//
// It stores every sample, so percentiles are exact and a function of the
// samples alone, not of the order they arrived in, and two distributions
// merge by concatenation. Memory is O(n): 8 bytes a sample. The largest
// consumer, the fleet's PLT per source, holds about 40,000 samples
// (318 KB) at 10,000 clients.
type Distribution struct {
	mu     sync.Mutex
	vals   []float64
	sorted bool
	sum    float64
}

// NewDistribution returns an empty distribution.
func NewDistribution() *Distribution { return &Distribution{} }

// Add records a value.
func (d *Distribution) Add(v float64) {
	d.mu.Lock()
	d.vals = append(d.vals, v)
	d.sorted = false
	d.sum += v
	d.mu.Unlock()
}

// AddDuration records a duration in seconds.
func (d *Distribution) AddDuration(v time.Duration) { d.Add(v.Seconds()) }

// N returns the number of observations.
func (d *Distribution) N() int {
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

// Mean returns the arithmetic mean, or NaN when empty.
func (d *Distribution) Mean() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.vals) == 0 {
		return math.NaN()
	}
	return d.sum / float64(len(d.vals))
}

// Max returns the largest observation, or NaN when empty.
func (d *Distribution) Max() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.vals) == 0 {
		return math.NaN()
	}
	return d.sortedVals()[len(d.vals)-1]
}

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
