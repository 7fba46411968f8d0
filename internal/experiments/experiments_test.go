package experiments

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"csaw/internal/httpx"
	"csaw/internal/vtime"
	"csaw/internal/worldgen"
)

// pinned is the test's table: every experiment's reduced run count (the
// seed is always 3) and how tightly its report is pinned. exact reports
// carry counts and categories only and must render byte-identically;
// the others render measured virtual durations — scaled real time, so
// scheduler jitter reaches the last digits (DESIGN.md, "Determinism") —
// and are pinned by shape: the render with every number replaced by '#'
// and table padding collapsed, plus the sorted metric-key set. An
// experiment without a row fails TestExperiments.
var pinned = map[string]struct {
	runs  int
	exact bool
}{
	"table1":   {2, true},
	"figure1a": {3, false},
	"figure1b": {6, false},
	"figure1c": {3, false},
	"figure2":  {2, true},
	"table2":   {2, false},
	"table5":   {2, false},
	"figure5a": {1, false},
	"figure5b": {8, false},
	"figure5c": {8, false},
	"figure6a": {4, false},
	"figure6b": {2, true},
	"table6":   {3, false},
	"figure7a": {3, false},
	"figure7b": {3, false},
	"figure7c": {2, false},
	"table7":   {12, true},
	// wild reports counts only, but its timeline is sorted by report time
	// and the three Instagram reports land within one virtual minute in
	// scheduler order; the '#' pass hides the AS numbers that swap.
	"wild":                 {2, false},
	"classifier":           {1, true},
	"ablation-selective":   {4, false},
	"ablation-voting":      {30, true},
	"ablation-multihoming": {4, false},
	"ablation-explore":     {8, true},
	"ablation-fingerprint": {3, true},
	"sync-fault":           {3, false},
	"censor-churn":         {1, true},
	"replica-loss":         {2, true},
	"primary-loss":         {2, true},
	"delta-sync":           {3, true},
	"fleet":                {50, false},
	"trace-breakdown":      {1, false},
}

var (
	numberRE = regexp.MustCompile(`-?[0-9]+(\.[0-9]+)?`)
	padRE    = regexp.MustCompile(`  +|--+`)
)

// shape reduces a result to what survives scheduler jitter: numbers become
// '#', runs of column padding and rule dashes (whose length follows the
// widest cell, so "9.98s" vs "10.02s" moves them) collapse to one character,
// and the metric keys — which the '#' pass would blur where they embed an
// ASN or a size — are listed verbatim.
func shape(res *Result) string {
	s := numberRE.ReplaceAllString(res.Render(), "#")
	s = padRE.ReplaceAllStringFunc(s, func(m string) string { return m[:1] })
	var lines []string
	for _, l := range strings.Split(s, "\n") {
		lines = append(lines, strings.TrimRight(l, " "))
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(lines, "\n") + "metric keys:\n" + strings.Join(keys, "\n") + "\n"
}

// verdicts holds each experiment's outcome ("" = matches its golden) from
// the latest TestExperiments pass, so the per-experiment TestSmoke* names
// that run after it report the same run instead of repeating it.
var verdicts = map[string]string{}

// pin runs one experiment at its pinned run count, holds the report to
// testdata/<id>.golden and returns what is wrong with it. CSAW_UPDATE_SHAPE=1
// (make shape) rewrites the file instead — after an intentional change to a
// report, never to paper over an unexplained diff.
func pin(t *testing.T, id string) string {
	r, p := Find(id), pinned[id]
	if r == nil {
		return "no runner " + id
	}
	if p.runs == 0 {
		return id + ": no row in the pinned table — add its run count and golden (make shape)"
	}
	res, err := r.Run(Options{Runs: p.runs, Seed: 3})
	if err != nil {
		return id + ": " + err.Error()
	}
	t.Log("\n" + res.Render())
	got := shape(res)
	if p.exact {
		got = res.Render()
	}
	path := filepath.Join("testdata", id+".golden")
	if os.Getenv("CSAW_UPDATE_SHAPE") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			return err.Error()
		}
		return ""
	}
	want, err := os.ReadFile(path)
	if err != nil {
		return id + ": " + err.Error() + " (make shape writes it)"
	}
	if got != string(want) {
		return id + ": report differs from " + path + "\n--- got ---\n" + got + "--- want ---\n" + string(want)
	}
	return ""
}

// TestExperiments holds every registered experiment to its golden: 12
// byte-exact, 19 by shape. It ranges over All(), so a new experiment cannot
// dodge it, and a golden whose experiment is gone fails too.
func TestExperiments(t *testing.T) {
	ids := map[string]bool{}
	for _, r := range All() {
		ids[r.ID] = true
		t.Run(r.ID, func(t *testing.T) {
			verdicts[r.ID] = pin(t, r.ID)
			if v := verdicts[r.ID]; v != "" {
				t.Error(v)
			}
		})
	}
	for id := range pinned {
		if !ids[id] {
			t.Errorf("pinned table names %s, which All() does not register", id)
		}
	}
	files, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if id := strings.TrimSuffix(filepath.Base(f), ".golden"); !ids[id] {
			t.Errorf("%s has no experiment", f)
		}
	}
}

// failingFetcher fails every fetch with errPage after failFrom good ones.
type failingFetcher struct{ failFrom, calls int }

var errPage = errors.New("page did not load")

func (f *failingFetcher) Fetch(context.Context, string, string) (*httpx.Response, error) {
	if f.calls++; f.calls > f.failFrom {
		return nil, errPage
	}
	return httpx.NewResponse(200, []byte("<html></html>")), nil
}

// TestLoadsWrapsThePageError pins the one place a load's error is wrapped:
// under every failure policy the claim a failed series breaks unwraps to the
// error the page load returned (the selective-redundancy ablation used to
// wrap a nil error instead, reporting "%!w(<nil>)").
func TestLoadsWrapsThePageError(t *testing.T) {
	for _, tc := range []struct {
		name     string
		fail     failPolicy
		failFrom int // the first failFrom of the 4 loads succeed
		broken   bool
		recorded int
	}{
		{"failAny", failAny, 2, true, 2},
		{"failFirst", failFirst, 0, true, 1},
		{"failFirst counts a later failure at its PLT", failFirst, 1, false, 4},
		{"tolerateHalf", tolerateHalf, 1, true, 1},
		{"tolerateHalf drops up to half", tolerateHalf, 2, false, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := &rig{w: &worldgen.World{Clock: vtime.New(1000)}}
			dist := r.loads("series", 4, pacing{}, tc.fail, r.page(&failingFetcher{failFrom: tc.failFrom}, "site.example"))
			err := errors.Join(r.broken...)
			if tc.broken != (err != nil) {
				t.Fatalf("broken claims = %v, want broken=%v", err, tc.broken)
			}
			if tc.broken && (!errors.Is(err, errPage) || strings.Contains(err.Error(), "%!w")) {
				t.Errorf("claim %q does not wrap the page error", err)
			}
			if dist.N() != tc.recorded {
				t.Errorf("recorded %d loads, want %d", dist.N(), tc.recorded)
			}
		})
	}
}
