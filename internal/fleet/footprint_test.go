package fleet

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"csaw/internal/core"
	"csaw/internal/worldgen"
)

// clientByteBudget is what one joined, idle fleet client may keep live on
// the heap: its host, core client, local DB, global-DB client and its
// registration, everything a join leaves behind. A join leaves 2.1 KiB;
// it left 3.6 KiB when each client built its own approach set, classifier,
// two counters maps and empty tables.
const clientByteBudget = 2560

// TestClientFootprint joins light clients through the fleet's own join
// path (built, registered, list synced once), collects, and charges the
// live heap's growth to them. A population is as large as its clients are
// small: whatever one client holds that the others hold too belongs to the
// world, not to the client.
func TestClientFootprint(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector's shadow state inflates the heap")
			}
		}
	}
	wl := Workload{Population: 1000, Seed: 1}.WithDefaults()
	w, err := worldgen.New(worldgen.Options{EventDriven: true, Seed: wl.Seed})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	sc, err := w.BuildFleetScenario(wl.Sites, wl.ISPs, wl.BlockedFrac)
	if err != nil {
		t.Fatal(err)
	}
	plan := BuildPlan(wl)
	ctx := context.Background()
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	clients := make([]*core.Client, len(plan.Clients))
	for i := range plan.Clients {
		cl, err := joinClient(ctx, w, sc, &plan.Clients[i], Options{})
		if err != nil {
			t.Fatalf("client %d join: %v", i, err)
		}
		clients[i] = cl
	}
	after := live()
	perClient := (int64(after) - int64(before)) / int64(len(clients))
	for _, cl := range clients {
		cl.Close()
	}
	t.Logf("%d bytes (%.2f KiB) live per joined client", perClient, float64(perClient)/1024)
	if perClient > clientByteBudget {
		t.Errorf("a joined client holds %d bytes, budget %d", perClient, clientByteBudget)
	}
}
