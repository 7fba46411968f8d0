package core

import (
	"fmt"
	"math/rand"
	"testing"

	"csaw/internal/localdb"
	"csaw/internal/metrics"
)

// White-box property tests for the §4.3.2 approach selection: the EWMA
// machinery is exercised directly on a skeletal Client (no network, no
// world), so the properties hold by the arithmetic, not by scenario luck.

// newSelectClient builds the minimal Client the selection path touches.
// ExploreEvery is set beyond any test's access count so the deterministic
// best-EWMA ordering is what's under test.
func newSelectClient(seed int64, approaches []*Approach) *Client {
	return &Client{
		cfg: &Config{Approaches: approaches, ExploreEvery: 1 << 30},
		//lint:allow-rand seeded test randomness
		rng:      rand.New(rand.NewSource(seed)),
		counters: new(metrics.Counters).In(clientScope),
	}
}

func relay(name string) *Approach {
	return &Approach{Name: name, Kind: KindRelay, Handles: handlesAll}
}

// TestSelectOrderInvariantUnderPermutation: the chosen approach depends only
// on each approach's own observation sequence, not on how the sequences
// were interleaved globally — the EWMA is per-(approach, URL) state, so any
// permutation of reports that preserves per-approach order must elect the
// same winner.
func TestSelectOrderInvariantUnderPermutation(t *testing.T) {
	const url = "blocked.example/"
	// Per-approach observation sequences with distinct final EWMAs.
	seqs := [][]float64{
		{3.0, 2.5, 2.8},            // tor: settles high
		{1.2, 0.9, 1.1, 0.8},       // https: settles lowest
		{failurePenaltySeconds, 4}, // proxy: penalized
	}
	total := 0
	for _, s := range seqs {
		total += len(s)
	}
	winner := ""
	// 40 seeded interleavings, each a permutation of `flat` that keeps every
	// approach's observations in order (stable shuffle by next-index draw).
	for trial := 0; trial < 40; trial++ {
		apps := []*Approach{relay("tor"), relay("https"), relay("proxy")}
		c := newSelectClient(int64(trial), apps)
		//lint:allow-rand seeded test randomness
		rng := rand.New(rand.NewSource(int64(trial) * 131))
		idx := make([]int, len(seqs)) // next unconsumed observation per approach
		remaining := total
		for remaining > 0 {
			ai := rng.Intn(len(seqs))
			if idx[ai] >= len(seqs[ai]) {
				continue
			}
			c.ewmaObserve(apps[ai], url, seqs[ai][idx[ai]])
			idx[ai]++
			remaining--
		}
		got := c.selectApproach(nil, url, nil)
		if got == nil {
			t.Fatal("no approach selected")
		}
		if winner == "" {
			winner = got.Name
		} else if got.Name != winner {
			t.Fatalf("trial %d: interleaving changed the winner: %s vs %s", trial, got.Name, winner)
		}
	}
	if winner != "https" {
		t.Errorf("winner %s; want https (lowest settled EWMA)", winner)
	}
}

// TestSelectUntriedWinsTies: an approach with no observations scores an
// optimistic zero, so it must beat any approach with a real (positive)
// average — and among several untried candidates the reservoir tie-break
// must reach each of them across seeds, not just the first in config order.
func TestSelectUntriedWinsTies(t *testing.T) {
	const url = "blocked.example/"
	picked := make(map[string]int)
	for seed := int64(0); seed < 200; seed++ {
		apps := []*Approach{relay("tried"), relay("fresh-a"), relay("fresh-b")}
		c := newSelectClient(seed, apps)
		c.ewmaObserve(apps[0], url, 0.4) // a genuinely good, but tried, approach
		got := c.selectApproach(nil, url, nil)
		if got == nil {
			t.Fatal("no approach selected")
		}
		if got.Name == "tried" {
			t.Fatalf("seed %d: tried approach (EWMA 0.4) beat an untried one", seed)
		}
		picked[got.Name]++
	}
	if picked["fresh-a"] == 0 || picked["fresh-b"] == 0 {
		t.Errorf("tie-break never reached one untried candidate: %v", picked)
	}
}

// TestSelectCheaperApproachOvertakes: a failing local-ish approach sits at
// the failure penalty while a relay serves steadily; once the cheap approach
// starts succeeding, geometric EWMA decay must hand it the selection within
// a bounded number of successes (alpha 0.3 ⇒ ~13 to fall from 120s under a
// 2s incumbent).
func TestSelectCheaperApproachOvertakes(t *testing.T) {
	const url = "blocked.example/"
	apps := []*Approach{relay("cheap"), relay("tor")}
	c := newSelectClient(1, apps)
	// History: cheap failed twice (two penalties), tor has served steadily.
	c.ewmaObserve(apps[0], url, failurePenaltySeconds)
	c.ewmaObserve(apps[0], url, failurePenaltySeconds)
	for i := 0; i < 10; i++ {
		c.ewmaObserve(apps[1], url, 2.0)
	}
	if got := c.selectApproach(nil, url, nil); got.Name != "tor" {
		t.Fatalf("with cheap penalized, selection = %s, want tor", got.Name)
	}
	overtook := -1
	for i := 0; i < 30; i++ {
		c.ewmaObserve(apps[0], url, 0.5) // cheap starts succeeding
		c.ewmaObserve(apps[1], url, 2.0) // tor keeps its steady state
		if got := c.selectApproach(nil, url, nil); got.Name == "cheap" {
			overtook = i + 1
			break
		}
	}
	if overtook < 0 {
		t.Fatal("cheap approach never overtook the relay in 30 successes")
	}
	if overtook > 20 {
		t.Errorf("overtake took %d successes; EWMA decay should need ~13", overtook)
	}
	t.Logf("overtook after %d successes", overtook)
}

// TestSelectLocalFixPreferred: an applicable local fix wins over relays
// regardless of their averages (§4.3.2's tiering), and exploration (every
// n-th access) still only draws among relays when no local fix applies.
func TestSelectLocalFixPreferred(t *testing.T) {
	const url = "dns-blocked.example/"
	stages := []localdb.Stage{{Type: localdb.BlockDNS}}
	local := &Approach{
		Name: "gdns",
		Kind: KindLocalFix,
		Handles: func(string, []localdb.Stage) bool {
			return true
		},
	}
	apps := []*Approach{relay("tor"), local}
	c := newSelectClient(3, apps)
	c.ewmaObserve(apps[0], url, 0.1) // relay looks excellent
	c.ewmaObserve(local, url, 5.0)   // local fix looks slow
	if got := c.selectApproach(nil, url, stages); got.Name != "gdns" {
		t.Fatalf("selection = %s; the applicable local fix must win the tier", got.Name)
	}
	// Unknown stages (nil): only relays qualify.
	if got := c.selectApproach(nil, url, nil); got.Name != "tor" {
		t.Fatalf("selection with unknown stages = %s, want the relay", got.Name)
	}
}

// TestSelectExploreCadence: with ExploreEvery = n, every n-th access to the
// same URL draws from the full relay pool instead of the best average —
// counted over many accesses, the "explore" counter must tick exactly on
// the cadence.
func TestSelectExploreCadence(t *testing.T) {
	const url = "blocked.example/"
	apps := []*Approach{relay("a"), relay("b"), relay("c")}
	c := newSelectClient(5, apps)
	c.cfg.ExploreEvery = 4
	c.ewmaObserve(apps[0], url, 0.5)
	c.ewmaObserve(apps[1], url, 1.0)
	c.ewmaObserve(apps[2], url, 2.0)
	const accesses = 40
	for i := 0; i < accesses; i++ {
		if c.selectApproach(nil, url, nil) == nil {
			t.Fatal("no approach selected")
		}
	}
	if got, want := c.counters.Get("explore"), accesses/4; got != want {
		t.Errorf("explore fired %d times over %d accesses (n=4), want %d", got, accesses, want)
	}
}

// TestCandidateOrderTiersAndBounds: failover order puts the selected
// approach first, then remaining applicable local fixes, then relays in
// EWMA order, truncated to four attempts.
func TestCandidateOrderTiersAndBounds(t *testing.T) {
	const url = "blocked.example/"
	stages := []localdb.Stage{{Type: localdb.BlockDNS}}
	mkLocal := func(name string) *Approach {
		return &Approach{Name: name, Kind: KindLocalFix, Handles: func(string, []localdb.Stage) bool { return true }}
	}
	l1, l2 := mkLocal("fix-1"), mkLocal("fix-2")
	r1, r2, r3 := relay("r1"), relay("r2"), relay("r3")
	c := newSelectClient(9, []*Approach{r1, l1, r2, l2, r3})
	c.ewmaObserve(r1, url, 3.0)
	c.ewmaObserve(r2, url, 1.0)
	c.ewmaObserve(r3, url, 2.0)
	c.ewmaObserve(l2, url, 9.0)

	order := c.candidateOrder(url, stages, l1)
	if len(order) != 4 {
		t.Fatalf("candidate order has %d entries, want the 4-attempt cap", len(order))
	}
	var names []string
	for _, a := range order {
		names = append(names, a.Name)
	}
	want := []string{"fix-1", "fix-2", "r2", "r3"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("candidate order %v, want %v", names, want)
	}
}
