package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestPercentiles(t *testing.T) {
	d := NewDistribution()
	for i := 1; i <= 100; i++ {
		d.Add(float64(i))
	}
	if m := d.Median(); math.Abs(m-50.5) > 0.01 {
		t.Errorf("median = %f", m)
	}
	if p := d.Percentile(0); p != 1 {
		t.Errorf("p0 = %f", p)
	}
	if p := d.Percentile(100); p != 100 {
		t.Errorf("p100 = %f", p)
	}
	if p := d.Percentile(95); math.Abs(p-95.05) > 0.01 {
		t.Errorf("p95 = %f", p)
	}
	if mean := d.Mean(); math.Abs(mean-50.5) > 0.01 {
		t.Errorf("mean = %f", mean)
	}
	if d.Min() != 1 || d.Max() != 100 || d.N() != 100 {
		t.Error("min/max/n wrong")
	}
}

func TestEmptyDistribution(t *testing.T) {
	d := NewDistribution()
	if !math.IsNaN(d.Median()) || !math.IsNaN(d.Mean()) || !math.IsNaN(d.Min()) || !math.IsNaN(d.Max()) {
		t.Error("empty distribution should be NaN everywhere")
	}
}

func TestSingleSample(t *testing.T) {
	d := NewDistribution()
	d.Add(7)
	for _, p := range []float64{0, 50, 100} {
		if d.Percentile(p) != 7 {
			t.Errorf("p%f = %f", p, d.Percentile(p))
		}
	}
}

// TestEWMA: a series that starts at its first sample, 10, and smooths 20
// and then 5 in with alpha 0.5 averages 15 and then 10.
func TestEWMA(t *testing.T) {
	avg := 10.0
	avg = Smooth(0.5, avg, 20)
	if math.Abs(avg-15) > 1e-9 {
		t.Fatalf("after 20 = %f, want 15", avg)
	}
	avg = Smooth(0.5, avg, 5)
	if math.Abs(avg-10) > 1e-9 {
		t.Fatalf("after 5 = %f, want 10", avg)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := Table{Title: "Table X", Headers: []string{"col", "value"}}
	tbl.AddRow("a", "1")
	tbl.AddRow("long-name", "2")
	s := tbl.String()
	if !strings.Contains(s, "Table X") || !strings.Contains(s, "long-name") {
		t.Fatalf("render = %q", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), s)
	}
}

func TestSummarizeCDFs(t *testing.T) {
	a := NewDistribution()
	a.AddDuration(time.Second)
	a.AddDuration(2 * time.Second)
	s := SummarizeCDFs("Figure N", []Series{{Name: "direct", Dist: a}, {Name: "empty", Dist: NewDistribution()}})
	if !strings.Contains(s, "direct") || !strings.Contains(s, "1.50s") || !strings.Contains(s, "-") {
		t.Fatalf("summary = %q", s)
	}
}

// TestQuickPercentileBounds property-tests: percentiles are within [min,
// max] and monotone in p.
func TestQuickPercentileBounds(t *testing.T) {
	f := func(raw []float64) bool {
		var vals []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		d := NewDistribution()
		for _, v := range vals {
			d.Add(v)
		}
		sort.Float64s(vals)
		prev := math.Inf(-1)
		for _, p := range []float64{0, 10, 25, 50, 75, 90, 99, 100} {
			q := d.Percentile(p)
			if q < vals[0] || q > vals[len(vals)-1] {
				return false
			}
			if q < prev {
				return false
			}
			prev = q
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
