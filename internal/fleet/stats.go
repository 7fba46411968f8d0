package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"time"

	"csaw/internal/metrics"
)

// Stats is the driver's live aggregate state. Workers update it as they go;
// Snapshot serves the live counters cmd/csaw-fleet prints while a run is in
// flight.
type Stats struct {
	// events counts the driver's own events: "joined", "left", "sessions",
	// "fetches", "fetch-errors", "syncs", "sync-errors" and "degraded".
	events metrics.Counters
	// clients folds every retired client's CountersSnapshot.
	clients metrics.Counters

	// plt holds every successful fetch's PLT per Result.Source, so its
	// quantiles are exact and do not depend on the order the workers
	// deliver them in. That costs 8 bytes a fetch: about 318 KB at
	// 10,000 clients, 3.2 MB at 100,000.
	mu  sync.Mutex
	plt map[string]*metrics.Distribution
}

func newStats() *Stats {
	return &Stats{plt: make(map[string]*metrics.Distribution)}
}

func (st *Stats) recordFetch(source string, took time.Duration, failed bool) {
	st.events.Add("fetches", 1)
	if failed {
		st.events.Add("fetch-errors", 1)
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	d := st.plt[source]
	if d == nil {
		d = metrics.NewDistribution()
		st.plt[source] = d
	}
	d.AddDuration(took)
}

// pltStats summarizes each source's PLT distribution.
func (st *Stats) pltStats() map[string]PLTStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make(map[string]PLTStats, len(st.plt))
	for src, d := range st.plt {
		out[src] = PLTStats{
			N: d.N(), P50: d.Percentile(50), P95: d.Percentile(95),
			Mean: d.Mean(), Max: d.Max(),
		}
	}
	return out
}

// Snapshot is a point-in-time copy of the live counters.
type Snapshot struct {
	VirtualElapsed time.Duration
	Joined, Left   int
	Sessions       int
	Fetches        int
	FetchErrors    int
	Syncs          int
	SyncErrors     int
	Goroutines     int
}

func (st *Stats) snapshot(elapsed time.Duration, goroutines int) Snapshot {
	ev := st.events.Snapshot()
	return Snapshot{
		VirtualElapsed: elapsed,
		Joined:         ev["joined"], Left: ev["left"],
		Sessions: ev["sessions"],
		Fetches:  ev["fetches"], FetchErrors: ev["fetch-errors"],
		Syncs: ev["syncs"], SyncErrors: ev["sync-errors"],
		Goroutines: goroutines,
	}
}

// ASSummary is one AS's slice of the deterministic summary: the population
// assigned there, the policy's blocked-set size, and what the global DB
// ended up listing — which must equal the plan-level expectation.
type ASSummary struct {
	ASN           int
	Clients       int
	PolicyBlocked int
	Expected      int    // |blocked ∩ visited| from the plan
	Listed        int    // entries the global DB serves for this AS
	ExpectedHash  string // fnv64 over the sorted expected URL set
	ListedHash    string // fnv64 over the sorted listed URL set
}

// Summary is the deterministic half of a run result: pure plan aggregates
// plus the final global-DB contents. Same seed ⇒ byte-identical Render.
type Summary struct {
	Population    int
	Seed          int64
	Sites         int
	ISPs          int
	Sessions      int
	Fetches       int
	Churned       int
	DistinctSites int

	RegisteredUsers int
	BlockedURLs     int // distinct URLs reported blocked anywhere
	BlockedDomains  int
	ASesReporting   int
	BlockTypes      int

	PerAS []ASSummary
}

// Render produces the canonical summary text — the byte-identical artifact
// of the determinism gate.
func (s Summary) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== fleet summary (seed %d) ==\n", s.Seed)
	fmt.Fprintf(&b, "population      %6d   (churned %d)\n", s.Population, s.Churned)
	fmt.Fprintf(&b, "catalog         %6d sites, %d ISPs\n", s.Sites, s.ISPs)
	fmt.Fprintf(&b, "plan            %6d sessions, %d fetches, %d distinct sites\n",
		s.Sessions, s.Fetches, s.DistinctSites)
	fmt.Fprintf(&b, "global_DB       %6d users, %d blocked URLs, %d domains, %d ASes, %d block types\n",
		s.RegisteredUsers, s.BlockedURLs, s.BlockedDomains, s.ASesReporting, s.BlockTypes)
	fmt.Fprintf(&b, "%-8s %8s %8s %8s %8s  %-18s %s\n",
		"AS", "clients", "policy", "expected", "listed", "expected-hash", "listed-hash")
	for _, a := range s.PerAS {
		fmt.Fprintf(&b, "%-8d %8d %8d %8d %8d  %-18s %s\n",
			a.ASN, a.Clients, a.PolicyBlocked, a.Expected, a.Listed, a.ExpectedHash, a.ListedHash)
	}
	return b.String()
}

// Consistent reports whether every AS's listed set matches the plan-level
// expectation — the end-to-end correctness check (measure → report → sync →
// aggregate) the soak test asserts.
func (s Summary) Consistent() bool {
	for _, a := range s.PerAS {
		if a.Listed != a.Expected || a.ListedHash != a.ExpectedHash {
			return false
		}
	}
	return true
}

// PLTStats summarizes one source's page-load-time distribution (virtual
// seconds).
type PLTStats struct {
	N    int     `json:"n"`
	P50  float64 `json:"p50_s"`
	P95  float64 `json:"p95_s"`
	Mean float64 `json:"mean_s"`
	Max  float64 `json:"max_s"`
}

// Measured is the timing-dependent half of a run result: everything here
// depends on how the workers interleave and is excluded from the
// determinism comparison.
type Measured struct {
	VirtualSeconds float64             `json:"virtual_seconds"`
	Workers        int                 `json:"workers"`
	Fetches        int                 `json:"fetches"`
	FetchErrors    int                 `json:"fetch_errors"`
	Sessions       int                 `json:"sessions"`
	Syncs          int                 `json:"syncs"`
	SyncErrors     int                 `json:"sync_errors"`
	Joined         int                 `json:"joined"`
	Left           int                 `json:"left"`
	Degraded       int                 `json:"degraded_clients"`
	PeakGoroutines int                 `json:"peak_goroutines"`
	Updates        int                 `json:"updates"`
	PLT            map[string]PLTStats `json:"plt_by_source"`
	Counters       map[string]int      `json:"client_counters"`
}

// DeltaSyncStats is the sync-path mix of a run: how the fleet's list
// downloads split across full bodies, delta responses, and 304s, and what
// one list exchange cost on the wire. The counts come from the per-client
// global-DB counters folded at retire time, so they cover every client that
// completed its timeline.
type DeltaSyncStats struct {
	FetchFull  int `json:"fetch_full"`
	FetchDelta int `json:"fetch_delta"`
	Fetch304   int `json:"fetch_304"`
	ListBytes  int `json:"list_bytes"`
	// BytesPerSync is ListBytes over all list exchanges (full + delta + 304):
	// the average wire cost of keeping one client's list current for one
	// sync round.
	BytesPerSync float64 `json:"bytes_per_sync"`
}

// DeltaSync extracts the sync-path mix from the folded client counters.
func (m Measured) DeltaSync() DeltaSyncStats {
	d := DeltaSyncStats{
		FetchFull:  m.Counters["gdb-fetch-full"],
		FetchDelta: m.Counters["gdb-fetch-delta"],
		Fetch304:   m.Counters["gdb-fetch-304"],
		ListBytes:  m.Counters["gdb-list-bytes"],
	}
	if n := d.FetchFull + d.FetchDelta + d.Fetch304; n > 0 {
		d.BytesPerSync = float64(d.ListBytes) / float64(n)
	}
	return d
}

// Render formats the measured section for humans.
func (m Measured) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "-- measured (not deterministic) --\n")
	fmt.Fprintf(&b, "virtual span    %.1fs, %d workers\n", m.VirtualSeconds, m.Workers)
	fmt.Fprintf(&b, "fetches         %d (%d errors), %d sessions\n", m.Fetches, m.FetchErrors, m.Sessions)
	fmt.Fprintf(&b, "syncs           %d (%d errors), %d updates, %d degraded clients\n",
		m.Syncs, m.SyncErrors, m.Updates, m.Degraded)
	fmt.Fprintf(&b, "lifecycle       %d joined, %d left early, peak %d goroutines\n",
		m.Joined, m.Left, m.PeakGoroutines)
	if d := m.DeltaSync(); d.FetchFull+d.FetchDelta+d.Fetch304 > 0 {
		fmt.Fprintf(&b, "sync path       %d full, %d delta, %d 304; %d list bytes (%.0f/sync)\n",
			d.FetchFull, d.FetchDelta, d.Fetch304, d.ListBytes, d.BytesPerSync)
	}
	srcs := make([]string, 0, len(m.PLT))
	for s := range m.PLT {
		srcs = append(srcs, s)
	}
	sort.Strings(srcs)
	for _, s := range srcs {
		p := m.PLT[s]
		fmt.Fprintf(&b, "plt %-18s n=%-6d p50=%.2fs p95=%.2fs mean=%.2fs max=%.2fs\n",
			s, p.N, p.P50, p.P95, p.Mean, p.Max)
	}
	return b.String()
}

// RunResult pairs both halves.
type RunResult struct {
	Summary  Summary
	Measured Measured
}

// setHash is the order-independent fingerprint of a URL set: fnv64 over the
// sorted, newline-joined members.
func setHash(set map[string]bool) (int, string) {
	urls := make([]string, 0, len(set))
	for u := range set {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	h := fnv.New64a()
	for _, u := range urls {
		h.Write([]byte(u))
		h.Write([]byte{'\n'})
	}
	return len(urls), fmt.Sprintf("%016x", h.Sum64())
}
