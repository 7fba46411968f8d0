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
// registration, everything a join leaves behind. A join leaves 1.2 KiB
// (DESIGN.md, "Scale architecture", has the parts).
const clientByteBudget = 1280

// sessionByteBudget is what one fleet client may keep live after its first
// session: everything a join leaves plus what the session's fetches and
// sync made of the client's own (local DB records, its selection table,
// counts, the connection budget, the life context, its reports on the
// server). A session leaves 3.1 KiB.
const sessionByteBudget = 4096

// TestClientFootprint joins light clients through the fleet's own join
// path (built, registered, list synced once), collects, and charges the
// live heap's growth to them. It then runs each client's first planned
// session as the driver does (fetch its URLs, settle, sync) and charges
// the growth again. A population is as large as its clients are small:
// whatever one client holds that the others hold too belongs to the
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
	// The plan is live at every reading (the session phase reads it last):
	// collected between two readings, its few hundred bytes a client would
	// be taken off the clients' bill.
	plan := BuildPlan(wl)
	ctx := context.Background()
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	perClient := func(after, before uint64, n int) int64 {
		return (int64(after) - int64(before)) / int64(n)
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
	joined := live()
	defer func() {
		for _, cl := range clients {
			cl.Close()
		}
	}()
	idle := perClient(joined, before, len(clients))
	t.Logf("%d bytes (%.2f KiB) live per joined client", idle, float64(idle)/1024)
	if idle > clientByteBudget {
		t.Errorf("a joined client holds %d bytes, budget %d", idle, clientByteBudget)
	}

	// The first session warms what every client shares — the sites' pages,
	// the server's lists — as much as it fills what is the client's own.
	// The world's part is charged to no client: a warm-up session on a
	// client outside the count fetches every URL the counted ones will.
	warmPlan := ClientPlan{Index: len(plan.Clients), ISP: plan.Clients[0].ISP, Seed: plan.Clients[0].Seed}
	warm, err := joinClient(ctx, w, sc, &warmPlan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sessions int
	for i := range plan.Clients {
		if ss := plan.Clients[i].Sessions; len(ss) > 0 {
			sessions++
			for _, url := range ss[0].URLs {
				warm.FetchURL(ctx, url)
			}
		}
	}
	warm.WaitIdle()
	warm.Close()
	warmed := live()
	for i, cl := range clients {
		if ss := plan.Clients[i].Sessions; len(ss) > 0 {
			for _, url := range ss[0].URLs {
				cl.FetchURL(ctx, url)
			}
			cl.WaitIdle()
			if err := cl.SyncNow(ctx); err != nil {
				t.Fatalf("client %d sync: %v", i, err)
			}
		}
	}
	after := live()
	session := idle + perClient(after, warmed, sessions)
	t.Logf("%d bytes (%.2f KiB) live per client after its first session (%d of %d clients have one)",
		session, float64(session)/1024, sessions, len(clients))
	if session > sessionByteBudget {
		t.Errorf("a client holds %d bytes after its first session, budget %d", session, sessionByteBudget)
	}
}
