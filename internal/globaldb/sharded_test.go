package globaldb

import (
	"bytes"
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

// TestSnapshotCacheNoRebuildOnRepeatedReads: aggregation is the write
// path's work. A record refolds the slots it touches, once; no read of any
// kind refolds anything (the seed re-aggregated and re-sorted per call, and
// until the view was write-maintained the first reader after a write did).
func TestSnapshotCacheNoRebuildOnRepeatedReads(t *testing.T) {
	s := mustOpenStore(t, StoreOptions{})
	s.addUser("u1")
	if _, ok := s.ingest("u1", t0, []Report{
		{URL: "a.example/", ASN: 100, Tm: t0},
		{URL: "b.example/", ASN: 100, Tm: t0},
	}); !ok {
		t.Fatal("ingest rejected")
	}
	refolds := func(when string, want int64) {
		t.Helper()
		if n := s.refolds.Load(); n != want {
			t.Fatalf("%s: %d refolds, want %d", when, n, want)
		}
	}
	refolds("first batch of two", 2)
	tag := s.fetchResponse(100, "").tag
	for i := 0; i < 50; i++ {
		if got := s.blockedForAS(100); len(got) != 2 {
			t.Fatalf("read %d: %d entries", i, len(got))
		}
		s.fetchResponse(100, "")
		s.fetchResponse(100, tag)
		s.fetchResponse(100, "0.0")
	}
	refolds("repeated reads of an unchanged AS", 2)

	// A new key moves u1's d, so all three of its slots refold — in the fold.
	s.ingest("u1", t0.Add(time.Minute), []Report{{URL: "c.example/", ASN: 100, Tm: t0}})
	refolds("one new key", 5)
	if res := s.fetchResponse(100, tag); res.notModified || len(s.blockedForAS(100)) != 3 {
		t.Fatalf("read after the write: %+v", res)
	}
	refolds("reads after the write", 5)

	// A new key in a different AS changes u1's d, which DOES affect AS 100's
	// votes: its three slots refold beside the new one.
	tag = s.fetchResponse(100, "").tag
	s.ingest("u1", t0.Add(2*time.Minute), []Report{{URL: "c.example/", ASN: 200, Tm: t0}})
	refolds("cross-AS d change", 9)
	if s.fetchResponse(100, "").tag == tag {
		t.Fatal("AS 100's tag did not move with its votes")
	}
	// Re-posting that key afterwards refolds its one slot and leaves AS 100 alone.
	tag = s.fetchResponse(100, "").tag
	s.ingest("u1", t0.Add(3*time.Minute), []Report{{URL: "c.example/", ASN: 200, Tm: t0}})
	refolds("AS-200 re-post", 10)
	if got := s.fetchResponse(100, "").tag; got != tag {
		t.Fatalf("AS 100's tag moved on an unrelated AS-200 re-post: %q -> %q", tag, got)
	}
}

// TestWriteCostIndependentOfASSize: a write costs the slots it touches, not
// the AS they sit in. One new-key report by a ten-URL client refolds the
// same number of slots in a 100-URL and a 10,000-URL AS, and a vote-refresh
// re-report refolds exactly its batch and stamps nothing.
func TestWriteCostIndependentOfASSize(t *testing.T) {
	cost := func(size int) (newKey, refresh int64) {
		s := mustOpenStore(t, StoreOptions{})
		const asn, perUser = 100, 10
		for u := 0; u < size/perUser; u++ {
			batch := make([]Report, perUser)
			for i := range batch {
				batch[i] = Report{URL: fmt.Sprintf("site-%05d.example/", u*perUser+i), ASN: asn, Tm: t0}
			}
			uuid := fmt.Sprintf("u%d", u)
			s.addUser(uuid)
			if _, ok := s.ingest(uuid, t0, batch); !ok {
				t.Fatal("ingest rejected")
			}
		}
		if n := len(s.blockedForAS(asn)); n != size {
			t.Fatalf("AS holds %d entries, want %d", n, size)
		}
		idx := s.asIndexFor(asn)
		stamped := func() (n int) {
			idx.mu.Lock()
			defer idx.mu.Unlock()
			for _, sl := range idx.order {
				if sl.stamp == idx.seq {
					n++
				}
			}
			return n
		}

		before := s.refolds.Load()
		s.ingest("u0", t0, []Report{{URL: "site-00011.example/", ASN: asn, Tm: t0}}) // u1's URL: new to u0
		newKey = s.refolds.Load() - before
		if n := stamped(); n != perUser+1 {
			t.Fatalf("size %d: a new key stamped %d slots, want u0's %d", size, n, perUser+1)
		}

		refreshed := []Report{
			{URL: "site-00020.example/", ASN: asn, Tm: t0}, {URL: "site-00021.example/", ASN: asn, Tm: t0},
			{URL: "site-00022.example/", ASN: asn, Tm: t0}, {URL: "site-00021.example/", ASN: asn, Tm: t0},
		}
		tag := s.fetchResponse(asn, "").tag
		before = s.refolds.Load()
		s.ingest("u2", t0, refreshed)
		refresh = s.refolds.Load() - before
		if n := stamped(); n != 0 {
			t.Fatalf("size %d: a vote refresh stamped %d slots", size, n)
		}
		if res := s.fetchResponse(asn, tag); res.notModified || !res.delta || string(res.body) != fmt.Sprintf(`{"asn":%d,"since":%q}`, asn, tag) {
			t.Fatalf("size %d: after a vote refresh the old tag is owed the empty delta, got %+v %s", size, res, res.body)
		}
		return newKey, refresh
	}
	smallNew, smallRefresh := cost(100)
	largeNew, largeRefresh := cost(10_000)
	if smallNew != 11 || largeNew != smallNew {
		t.Errorf("a new-key report refolds %d slots in a 100-URL AS and %d in a 10,000-URL AS, want 11 in both", smallNew, largeNew)
	}
	if smallRefresh != 3 || largeRefresh != smallRefresh {
		t.Errorf("a vote refresh of three URLs (one named twice) refolds %d and %d slots, want 3 in both", smallRefresh, largeRefresh)
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
// from the lists already served, by refolding the client's own slots and
// nothing else: an AS it never reported on only has its tag move to the new
// epoch, and owes the old tag's holder the empty delta.
func TestShardedRevokeInvalidates(t *testing.T) {
	s := mustOpenStore(t, StoreOptions{})
	s.addUser("good")
	s.addUser("bad")
	s.addUser("elsewhere")
	s.ingest("good", t0, []Report{{URL: "a.example/", ASN: 100, Tm: t0}, {URL: "c.example/", ASN: 100, Tm: t0}})
	s.ingest("bad", t0, []Report{{URL: "a.example/", ASN: 100, Tm: t0}})
	s.ingest("elsewhere", t0, []Report{{URL: "x.example/", ASN: 200, Tm: t0}, {URL: "y.example/", ASN: 200, Tm: t0}})
	if e := s.blockedForAS(100); len(e) != 2 || e[0].Reporters != 2 {
		t.Fatalf("before revoke: %+v", e)
	}
	other := s.fetchResponse(200, "")
	before := s.refolds.Load()
	s.revoke("bad")
	if n := s.refolds.Load() - before; n != 1 {
		t.Fatalf("revoking a client with one report refolded %d slots, want 1 (none in AS 200, nor good's other slot)", n)
	}
	if e := s.blockedForAS(100); len(e) != 2 || e[0].Reporters != 1 {
		t.Fatalf("after revoke: %+v", e)
	}
	res := s.fetchResponse(200, other.tag)
	if res.tag == other.tag || !res.delta || string(res.body) != `{"asn":200,"since":"`+other.tag+`"}` {
		t.Fatalf("AS 200 after a revocation elsewhere: %+v %s, want the empty delta under a new tag", res, res.body)
	}
	if full := s.fetchResponse(200, ""); !bytes.Equal(full.body, other.body) {
		t.Fatalf("AS 200's list changed on a revocation elsewhere:\n got %s\nwant %s", full.body, other.body)
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
