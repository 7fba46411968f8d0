package globaldb

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// liveHeap is the heap a full collection leaves.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestStoreFootprint holds what a durable store keeps per stored report, at
// an ingest-shaped size: 2,000 users filing ten reports each over 4 ASes of
// 1,000 URLs, every report one of four stage lists, then re-reporting, with
// three compactions done. The live heap per report is held to its measured
// value plus about 10 %: a report holds its URL and stage list through its
// slot, and no "url|asn" key. And nothing snapshot-sized stays reachable
// between compactions: the live heap a compaction leaves is under a quarter
// of the snapshot file's size above the one it found, since the store keeps
// only where each user's section lies in the file, not the file's bytes.
func TestStoreFootprint(t *testing.T) {
	const (
		users, ases, perAS, batch = 2000, 4, 1000, 5
		reports                   = users * 2 * batch
		// The budget: 229 B per report measured on linux/amd64 (go1.24),
		// plus about 10 %.
		budget = 252
	)
	stages := [][]WireStage{{{Type: 1, Detail: "nxdomain"}}, {{Type: 2, Detail: "rst"}}, {{Type: 3, Detail: "blockpage"}}, {}}
	// A user's reports are a function of the user, its half and the time:
	// the test keeps none of them. Each post brings its own URL strings and
	// stage lists, as a decoded body does.
	post := func(s *store, u, half int, now time.Time) {
		t.Helper()
		rs := make([]Report, batch)
		for j := range rs {
			k := half*batch + j
			i := (u*7919 + k*104729) % perAS // ten distinct URLs per user
			list := slices.Clone(stages[i%len(stages)])
			for l := range list {
				list[l].Detail = strings.Clone(list[l].Detail)
			}
			rs[j] = Report{URL: fmt.Sprintf("site-%04d.example/", i), ASN: 65100 + u%ases, Stages: list, Tm: now}
		}
		if _, ok := s.ingest(fmt.Sprintf("%016x", u), now, rs); !ok {
			t.Fatal("ingest rejected")
		}
	}
	rng := rand.New(rand.NewSource(1))
	rereport := func(s *store, round int) {
		now := t0.Add(time.Duration(round) * time.Minute)
		for i := 0; i < users/2; i++ {
			post(s, rng.Intn(users), rng.Intn(2), now)
		}
	}

	before := liveHeap()
	s := mustOpenStore(t, StoreOptions{Dir: t.TempDir(), SnapshotEvery: -1})
	for u := 0; u < users; u++ {
		s.addUser(fmt.Sprintf("%016x", u))
		post(s, u, 0, t0)
		post(s, u, 1, t0)
	}
	compact(t, s)
	rereport(s, 1)
	held := liveHeap()
	compact(t, s)
	after := liveHeap()
	fi, err := os.Stat(s.snapPath())
	if err != nil {
		t.Fatal(err)
	}
	rereport(s, 2)
	compact(t, s)
	perReport := float64(liveHeap()-before) / reports
	t.Logf("live heap %.0f B per stored report; a compaction left %d B more than it found, of a %d B snapshot", perReport, int64(after)-int64(held), fi.Size())
	if perReport > budget {
		t.Errorf("the store holds %.0f B of live heap per stored report, over the %d B budget", perReport, budget)
	}
	if grew := int64(after) - int64(held); grew >= fi.Size()/4 {
		t.Errorf("a compaction left %d B more live heap than it found, a quarter or more of the %d B snapshot", grew, fi.Size())
	}
	runtime.KeepAlive(s)
}
