package main

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// allocRises compares the last row of an ALLOC_HISTORY file with the one
// before it and lists each package whose allocations per fetch rose by more
// than 1 % and by more than 0.01, unless a "# waiver <package>: <reason>"
// line sits directly above the last row. The 0.01 floor keeps a package
// near zero from failing on a stray allocation, which the two-decimal
// figures round to a rise of 0.01. A package missing from the earlier row
// counts as 0 there.
func allocRises(history string) ([]string, error) {
	var rows [][]string // the data rows, fields split
	var waivers []string
	waived := map[string]bool{}
	for _, line := range strings.Split(history, "\n") {
		switch {
		case strings.HasPrefix(line, "# waiver "):
			waivers = append(waivers, line)
		case strings.HasPrefix(line, "#") || strings.TrimSpace(line) == "":
			waivers = nil
		default:
			rows = append(rows, strings.Fields(line))
			clear(waived)
			for _, w := range waivers {
				pkg, _, ok := strings.Cut(strings.TrimPrefix(w, "# waiver "), ":")
				if !ok {
					return nil, fmt.Errorf("waiver %q names no package before a colon", w)
				}
				waived[strings.TrimSpace(pkg)] = true
			}
			waivers = nil
		}
	}
	if len(rows) < 2 {
		return nil, fmt.Errorf("%d data rows, want at least 2", len(rows))
	}
	before, err := rowAllocs(rows[len(rows)-2])
	if err != nil {
		return nil, err
	}
	after, err := rowAllocs(rows[len(rows)-1])
	if err != nil {
		return nil, err
	}
	var rises []string
	for pkg, n := range after {
		was := before[pkg]
		if d := n - was; d > 1 && d*100 > was && !waived[pkg] {
			rises = append(rises, fmt.Sprintf("%s %d.%02d -> %d.%02d", pkg, was/100, was%100, n/100, n%100))
		}
	}
	slices.Sort(rises)
	return rises, nil
}

// rowAllocs reads a row's per-package allocations per fetch, in
// hundredths; total= and memstats= are not packages.
func rowAllocs(fields []string) (map[string]int, error) {
	if len(fields) < 4 {
		return nil, fmt.Errorf("row %q: too few fields", strings.Join(fields, " "))
	}
	allocs := map[string]int{}
	for _, f := range fields[3:] {
		pkg, val, ok := strings.Cut(f, "=")
		count, _, ok2 := strings.Cut(val, "/")
		whole, frac, ok3 := strings.Cut(count, ".")
		w, err := strconv.Atoi(whole)
		h, err2 := strconv.Atoi(frac)
		if !ok || !ok2 || !ok3 || len(frac) != 2 || err != nil || err2 != nil {
			return nil, fmt.Errorf("row %s: field %q is not <package>=<allocs>/<bytes> with two decimals", fields[0], f)
		}
		if pkg != "total" && pkg != "memstats" {
			allocs[pkg] = w*100 + h
		}
	}
	return allocs, nil
}

// TestAllocHistoryHoldsEveryPackage holds the committed ledger's last row to
// the row before it: no package allocates more per fetch without a waiver.
func TestAllocHistoryHoldsEveryPackage(t *testing.T) {
	b, err := os.ReadFile("../../ALLOC_HISTORY")
	if err != nil {
		t.Fatal(err)
	}
	rises, err := allocRises(string(b))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rises {
		t.Errorf("ALLOC_HISTORY: %s allocations per fetch, with no waiver line above the last row", r)
	}
}

// TestAllocRisesCatchesRegression: the check fails a synthetic regressed
// row, and passes it once each regressed package has a waiver.
func TestAllocRisesCatchesRegression(t *testing.T) {
	const base = "# header\n" +
		"40 abc 2026-10-19 total=10.00/100 memstats=11.00/110 httpx=5.00/50 netem=2.00/20 censor=0.06/2 tlsx=3.00/30\n"
	for _, c := range []struct {
		name, rows string
		want       []string
	}{
		{"unchanged", "41 def 2026-10-20 total=10.00/100 memstats=11.00/110 httpx=5.00/50 netem=2.00/20 censor=0.06/2 tlsx=3.00/30\n", nil},
		{"falls", "41 def 2026-10-20 total=9.00/90 memstats=10.00/100 httpx=4.00/40 netem=2.00/20 censor=0.06/2 tlsx=3.00/30\n", nil},
		{"a stray allocation", "41 def 2026-10-20 total=10.01/100 memstats=11.01/110 httpx=5.00/50 netem=2.00/20 censor=0.07/2 tlsx=3.00/30\n", nil},
		{"within 1 %", "41 def 2026-10-20 total=10.05/100 memstats=11.05/110 httpx=5.05/50 netem=2.00/20 censor=0.06/2 tlsx=3.00/30\n", nil},
		{"regressed", "41 def 2026-10-20 total=10.36/100 memstats=11.36/110 httpx=5.06/50 netem=2.00/20 censor=0.08/2 tlsx=3.00/30 web=0.20/9\n",
			[]string{"censor 0.06 -> 0.08", "httpx 5.00 -> 5.06", "web 0.00 -> 0.20"}},
		{"waived", "# waiver httpx: the new field costs one allocation per request\n# waiver censor: counted\n# waiver web: new\n" +
			"41 def 2026-10-20 total=10.36/100 memstats=11.36/110 httpx=5.06/50 netem=2.00/20 censor=0.08/2 tlsx=3.00/30 web=0.20/9\n", nil},
		{"a waiver not directly above", "# waiver httpx: stale\n# another comment\n" +
			"41 def 2026-10-20 total=10.06/100 memstats=11.06/110 httpx=5.06/50 netem=2.00/20 censor=0.06/2 tlsx=3.00/30\n",
			[]string{"httpx 5.00 -> 5.06"}},
	} {
		rises, err := allocRises(base + c.rows)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got, want := strings.Join(rises, "; "), strings.Join(c.want, "; "); got != want {
			t.Errorf("%s: rises %q, want %q", c.name, got, want)
		}
	}
	if _, err := allocRises(base); err == nil {
		t.Error("one data row passes the check")
	}
}
