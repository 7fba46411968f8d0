package core_test

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"csaw/internal/censor"
	"csaw/internal/core"
	"csaw/internal/globaldb"
	"csaw/internal/localdb"
	"csaw/internal/worldgen"
)

// fetchByteBudget is what one warmed direct fetch of a 15 KiB page may
// allocate, everything counted: client, resolver, emulated network, origin.
// The page crosses the network by reference (rendered once at the origin,
// segments moved between pipes, see netem.Conn.WriteOwned), so the reader's
// own copy of the body is the only page-sized allocation and a fetch costs
// 25 KiB (28 KiB under -race, whose sync.Pool drops entries; 118 KiB before
// the page path went zero-copy). A second page-sized allocation — a
// re-render, a staging buffer, a copy-in — adds 15 KiB or more and lands
// over the budget.
const fetchByteBudget = 36 << 10

// TestFetchByteBudget keeps the zero-copy page path from eroding silently.
func TestFetchByteBudget(t *testing.T) {
	w, err := worldgen.New(worldgen.Options{EventDriven: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.StandardSites(); err != nil {
		t.Fatal(err)
	}
	isp, err := w.AddISP(64500, "clean-isp", &censor.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	host := w.NewClientHost("budget-client", isp)
	c, err := core.New(core.Config{
		Host: host, Clock: w.Clock,
		LDNS: w.LDNSAddrs(host), GDNS: []string{w.PublicDNSAddr},
		Serial: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fetch := func() {
		res := c.FetchURL(context.Background(), worldgen.SmallHost+"/")
		if !res.OK() || res.Source != "direct" || len(res.Resp.Body) != 15<<10+3 {
			t.Fatalf("fetch: %+v (err=%v)", res, res.Err)
		}
	}
	for i := 0; i < 5; i++ {
		fetch() // the verdict, the rendered page, the pools
	}
	const fetches = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < fetches; i++ {
		fetch()
	}
	runtime.ReadMemStats(&after)
	perFetch := (after.TotalAlloc - before.TotalAlloc) / fetches
	t.Logf("%d bytes (%.1f KiB) allocated per fetch", perFetch, float64(perFetch)/1024)
	if perFetch > fetchByteBudget {
		t.Errorf("a warmed direct fetch allocates %d bytes, budget %d", perFetch, fetchByteBudget)
	}
}

// TestNoChangeSyncBudget: a sync round the DB answers with 304, with nothing
// pending, pays for the HTTP exchange and never for the list — the client's
// copy is the one the global-DB client already holds, so there is nothing to
// rebuild. The same client syncs against 10 and then 1,000 entries for its
// AS; the no-change round must cost the same at both sizes, to within one
// entry. The cheapest of several rounds is compared, which drops the rounds
// where a collection emptied a pool; the race detector's sync.Pool discards a
// quarter of all Puts at random, which no number of rounds averages out to
// within an entry, so the comparison runs in plain builds only.
func TestNoChangeSyncBudget(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation bytes are not exact under the race detector")
			}
		}
	}
	w, c, gdb, host := newSyncWorld(t, nil, "ISP-A")
	ctx := context.Background()
	seeder := newReporter(t, w, host, "human-seeder")
	seeded := 0
	noChangeRound := func(entries int) uint64 {
		t.Helper()
		var recs []localdb.Record
		for ; seeded < entries; seeded++ {
			recs = append(recs, localdb.Record{
				URL: fmt.Sprintf("site-%04d.example/", seeded), ASN: c.ASN(), Status: localdb.Blocked,
				Stages: []localdb.Stage{{Type: localdb.BlockHTTP, Detail: "blockpage"}},
			})
		}
		if _, err := seeder.Report(ctx, recs); err != nil {
			t.Fatal(err)
		}
		if err := c.SyncNow(ctx); err != nil { // takes the new list
			t.Fatal(err)
		}
		if _, ok := gdb.Lookup(c.ASN(), recs[len(recs)-1].URL); !ok {
			t.Fatalf("client does not hold the %d-entry list", entries)
		}
		before304 := c.CountersSnapshot()["gdb-fetch-304"]
		cheapest := ^uint64(0)
		const rounds = 10
		for i := 0; i < rounds; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := c.SyncNow(ctx); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			cheapest = min(cheapest, after.TotalAlloc-before.TotalAlloc)
		}
		if got := c.CountersSnapshot()["gdb-fetch-304"] - before304; got != rounds {
			t.Fatalf("%d of %d rounds were answered 304", got, rounds)
		}
		return cheapest
	}
	small, large := noChangeRound(10), noChangeRound(1000)
	t.Logf("no-change sync round: %d bytes holding 10 entries, %d holding 1000", small, large)
	if oneEntry := uint64(unsafe.Sizeof(globaldb.Entry{})); large > small+oneEntry {
		t.Errorf("a no-change round allocates %d bytes holding 1000 entries against %d holding 10: it pays for the list", large, small)
	}
}
