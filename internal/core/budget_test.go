package core_test

import (
	"context"
	"runtime"
	"testing"

	"csaw/internal/censor"
	"csaw/internal/core"
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
