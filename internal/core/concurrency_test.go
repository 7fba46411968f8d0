package core_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"csaw/internal/censor"
	"csaw/internal/core"
	"csaw/internal/localdb"
	"csaw/internal/worldgen"
)

// TestConcurrentClientUse hammers one client's fetch, sync, and stats paths
// from many goroutines, specifically racing the global-DB client's list swap
// (SyncNow) against Lookup (FetchURL) and length/stat reads. It exists to
// run under -race; the assertions are secondary.
func TestConcurrentClientUse(t *testing.T) {
	w, c, gdb, _ := newSyncWorld(t, func(cfg *core.Config) {
		cfg.MaxConns = 32
	}, "ISP-A")
	w.ISPs["ISP-A"].Censor.SetPolicy(&censor.Policy{
		DNS: map[string]censor.DNSAction{"youtube.com": censor.DNSNXDomain},
	})
	ctx := context.Background()
	if err := gdb.Register(ctx, "human-test"); err != nil {
		t.Fatal(err)
	}
	// Enough pending reports and server-side entries that every sync round
	// swaps in a new list.
	for i := 0; i < 8; i++ {
		c.DB().Put(fmt.Sprintf("pre-%d.example/", i), 17557, localdb.Blocked,
			[]localdb.Stage{{Type: localdb.BlockDNS}})
	}

	const (
		fetchers = 4
		syncers  = 2
		readers  = 4
		rounds   = 8
	)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < fetchers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			for r := 0; r < rounds; r++ {
				url := worldgen.YouTubeHost + "/"
				if r%2 == 1 {
					url = worldgen.NewsHost + "/"
				}
				// Load-induced timeouts are fine here; data races are what
				// this test is for.
				_ = c.FetchURL(ctx, url)
			}
		}(i)
	}
	for i := 0; i < syncers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for r := 0; r < rounds; r++ {
				_ = c.SyncNow(ctx) //lint:allow-droperr contention stress; overlapping syncs legitimately fail
			}
		}()
	}
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for r := 0; r < rounds*4; r++ {
				_ = c.GlobalCacheLen()
				_ = c.Counter("served-direct")
				_ = c.CountersSnapshot()
				_ = c.LastSyncError() //lint:allow-droperr the read races the sync writers; its value is not under test
				_ = c.Degraded()
				_ = c.Multihomed()
				time.Sleep(time.Millisecond) //lint:allow-realtime real-time stagger to vary interleavings under -race
			}
		}()
	}
	close(start)
	wg.Wait()
	c.WaitIdle()

	// The pre-seeded reports must have landed exactly once despite
	// concurrent SyncNow calls racing over the same pending queue... or at
	// least once each with no losses; the server's per-(url,asn) idempotency
	// plus MarkPosted means none may be left pending.
	if err := c.SyncNow(ctx); err != nil {
		t.Fatalf("final sync: %v", err)
	}
	if left := len(c.DB().PendingGlobal()); left != 0 {
		t.Fatalf("%d reports still pending after concurrent syncs", left)
	}
	if c.GlobalCacheLen() == 0 {
		t.Fatal("global cache empty after syncs against a seeded DB")
	}
}
