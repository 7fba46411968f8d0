package globaldb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

var t0 = time.Unix(1_000_000_000, 0)

func mkReports(rng *rand.Rand, n, ases int) []Report {
	out := make([]Report, n)
	for i := range out {
		out[i] = Report{
			URL:    fmt.Sprintf("site%d.example/", rng.Intn(40)),
			ASN:    100 + rng.Intn(ases),
			Stages: []WireStage{{Type: 1, Detail: "nxdomain"}},
			Tm:     t0,
		}
	}
	return out
}

// TestSnapshotCacheNoRebuildOnRepeatedReads is the satellite regression test:
// repeated BlockedForAS reads of an unchanged AS must serve the cached sorted
// snapshot, not re-aggregate and re-sort per call (the seed behavior).
func TestSnapshotCacheNoRebuildOnRepeatedReads(t *testing.T) {
	s := mustOpenStore(t, StoreOptions{})
	s.addUser("u1")
	if _, ok := s.ingest("u1", t0, []Report{
		{URL: "a.example/", ASN: 100, Tm: t0},
		{URL: "b.example/", ASN: 100, Tm: t0},
	}); !ok {
		t.Fatal("ingest rejected")
	}

	first := s.blockedForAS(100)
	if len(first) != 2 || s.rebuilds.Load() != 1 {
		t.Fatalf("first read: %d entries, %d rebuilds, want 2 entries from 1 rebuild",
			len(first), s.rebuilds.Load())
	}
	for i := 0; i < 50; i++ {
		if got := s.blockedForAS(100); len(got) != 2 {
			t.Fatalf("read %d: %d entries", i, len(got))
		}
		s.fetchResponse(100, "")
	}
	if n := s.rebuilds.Load(); n != 1 {
		t.Fatalf("unchanged AS rebuilt %d times across repeated reads, want 1", n)
	}

	// A write to the AS invalidates exactly once more.
	s.ingest("u1", t0.Add(time.Minute), []Report{{URL: "c.example/", ASN: 100, Tm: t0}})
	s.blockedForAS(100)
	s.blockedForAS(100)
	if n := s.rebuilds.Load(); n != 2 {
		t.Fatalf("rebuilds after one write = %d, want 2", n)
	}

	// Writes to a different AS leave this snapshot alone.
	s.ingest("u1", t0.Add(2*time.Minute), []Report{{URL: "c.example/", ASN: 200, Tm: t0}})
	// (new key changes u1's d, which DOES affect AS 100's votes — so that
	// must rebuild. Re-posting an existing AS-200 key afterwards must not.)
	s.blockedForAS(100)
	if n := s.rebuilds.Load(); n != 3 {
		t.Fatalf("rebuilds after cross-AS d change = %d, want 3", n)
	}
	s.ingest("u1", t0.Add(3*time.Minute), []Report{{URL: "c.example/", ASN: 200, Tm: t0}})
	s.blockedForAS(100)
	if n := s.rebuilds.Load(); n != 3 {
		t.Fatalf("AS-100 rebuilt on an unrelated AS-200 re-post (rebuilds=%d)", n)
	}
}

// TestShardedMatchesLegacy drives an identical randomized workload into both
// stores and requires the same aggregation: entries, order, votes (up to
// float summation order), reporters, and stats.
func TestShardedMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	leg, sh := newLegacyStore(), mustOpenStore(t, StoreOptions{})
	const users, ases = 30, 4
	for u := 0; u < users; u++ {
		id := fmt.Sprintf("user-%02d", u)
		leg.addUser(id)
		sh.addUser(id)
	}
	for round := 0; round < 20; round++ {
		u := fmt.Sprintf("user-%02d", rng.Intn(users))
		batch := mkReports(rng, 1+rng.Intn(6), ases)
		now := t0.Add(time.Duration(round) * time.Minute)
		a1, ok1 := leg.ingest(u, now, batch)
		a2, ok2 := sh.ingest(u, now, batch)
		if a1 != a2 || ok1 != ok2 {
			t.Fatalf("round %d: ingest diverged (%d,%v) vs (%d,%v)", round, a1, ok1, a2, ok2)
		}
	}
	leg.revoke("user-03")
	sh.revoke("user-03")

	for asn := 100; asn < 100+ases; asn++ {
		le, se := leg.blockedForAS(asn), sh.blockedForAS(asn)
		if len(le) != len(se) {
			t.Fatalf("asn %d: %d vs %d entries", asn, len(le), len(se))
		}
		for i := range le {
			l, s := le[i], se[i]
			if l.URL != s.URL || l.Reporters != s.Reporters || !l.LastTp.Equal(s.LastTp) {
				t.Fatalf("asn %d entry %d: %+v vs %+v", asn, i, l, s)
			}
			if math.Abs(l.Votes-s.Votes) > 1e-9 {
				t.Fatalf("asn %d %s: votes %v vs %v", asn, l.URL, l.Votes, s.Votes)
			}
		}
	}

	ls, ss := leg.stats(), sh.stats()
	if ls.Users != ss.Users || ls.BlockedURLs != ss.BlockedURLs ||
		ls.BlockedDomains != ss.BlockedDomains || ls.ASes != ss.ASes ||
		ls.Updates != ss.Updates {
		t.Fatalf("stats diverged: %+v vs %+v", ls, ss)
	}
}

// TestShardedRevokeInvalidates: a revocation must drop the client's votes
// from already-cached snapshots.
func TestShardedRevokeInvalidates(t *testing.T) {
	s := mustOpenStore(t, StoreOptions{})
	s.addUser("good")
	s.addUser("bad")
	s.ingest("good", t0, []Report{{URL: "a.example/", ASN: 100, Tm: t0}})
	s.ingest("bad", t0, []Report{{URL: "a.example/", ASN: 100, Tm: t0}})
	if e := s.blockedForAS(100); len(e) != 1 || e[0].Reporters != 2 {
		t.Fatalf("before revoke: %+v", e)
	}
	s.revoke("bad")
	if e := s.blockedForAS(100); len(e) != 1 || e[0].Reporters != 1 {
		t.Fatalf("after revoke: %+v", e)
	}
	if _, ok := s.ingest("bad", t0, []Report{{URL: "b.example/", ASN: 100, Tm: t0}}); ok {
		t.Fatal("revoked uuid may not ingest")
	}
}

// TestShardedUpdatesDedup: the updates counter counts unique (uuid, url|asn)
// keys, so ack-lost re-posts cannot inflate it.
func TestShardedUpdatesDedup(t *testing.T) {
	s := mustOpenStore(t, StoreOptions{})
	s.addUser("u1")
	batch := []Report{
		{URL: "a.example/", ASN: 100, Tm: t0},
		{URL: "b.example/", ASN: 100, Tm: t0},
	}
	for i := 0; i < 3; i++ {
		if _, ok := s.ingest("u1", t0.Add(time.Duration(i)*time.Minute), batch); !ok {
			t.Fatal("ingest rejected")
		}
	}
	if got := s.stats().Updates; got != 2 {
		t.Fatalf("updates = %d after re-posts, want 2 unique", got)
	}
}
