package globaldb

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// Store conformance suite: the one production store under every
// StoreOptions shape — no log ("sharded", what NewServer builds), a WAL
// directory ("wal"), a replication feed only ("feed-only") — must expose
// ingest/dedup/revoke and aggregation semantics byte-identical to the
// sequential reference model ("legacy", see legacy_test.go). Conditional
// fetches are outside the model (it has no versions), so
// TestConformanceConditionalContract pins them on the store shapes alone.

// utc is the workload epoch; UTC so serialized instants survive export and
// restore byte-identically regardless of the host zone.
var utc = time.Unix(1_000_000_000, 0).UTC()

type storeFactory struct {
	name string
	mk   func(t *testing.T) dbModel
}

func mustOpenStore(t *testing.T, o StoreOptions) *store {
	t.Helper()
	s, err := openStore(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return s
}

func storeFactories() []storeFactory {
	return []storeFactory{
		{"legacy", func(t *testing.T) dbModel { return newLegacyStore() }},
		{"sharded", func(t *testing.T) dbModel { return mustOpenStore(t, StoreOptions{}) }},
		{"wal", func(t *testing.T) dbModel {
			return mustOpenStore(t, StoreOptions{Dir: t.TempDir(), SnapshotEvery: 8})
		}},
		{"feed-only", func(t *testing.T) dbModel { return mustOpenStore(t, StoreOptions{Replicated: true}) }},
	}
}

// conformanceWorkload drives one scripted history through a store and
// returns every observable: ingest results, aggregations, full fetch
// bodies, and stats.
func conformanceWorkload(t *testing.T, s dbModel) string {
	t.Helper()
	var out bytes.Buffer
	obs := func(format string, args ...any) { fmt.Fprintf(&out, format+"\n", args...) }

	s.addUser("alice")
	s.addUser("bob")
	s.addUser("alice") // idempotent re-register

	// Unknown and revoked users are rejected.
	if n, ok := s.ingest("nobody", utc, []Report{{URL: "x.example/", ASN: 100, Tm: utc}}); ok {
		t.Fatalf("unknown uuid accepted %d reports", n)
	}

	stages := []WireStage{{Type: 1, Detail: "nxdomain"}}
	batch := []Report{
		{URL: "a.example/", ASN: 100, Stages: stages, Tm: utc},
		{URL: "b.example/", ASN: 100, Stages: stages, Tm: utc},
		{URL: "", ASN: 100, Tm: utc}, // invalid: skipped
		{URL: "c.example/", Tm: utc}, // invalid: ASN 0
	}
	n, ok := s.ingest("alice", utc, batch)
	obs("alice batch1: %d %v", n, ok)

	// Re-post after a lost ack: the exact same batch again. Accepted counts
	// repeat (the server cannot tell a retry from a refresh) but the
	// dedup-aware updates counter must not move — pinned via stats below.
	n, ok = s.ingest("alice", utc.Add(time.Minute), batch)
	obs("alice repost: %d %v", n, ok)

	n, ok = s.ingest("bob", utc.Add(2*time.Minute), []Report{
		{URL: "a.example/", ASN: 100, Stages: []WireStage{{Type: 4, Detail: "rst"}}, Tm: utc},
		{URL: "d.example/", ASN: 200, Stages: nil, Tm: utc},
		{URL: "e.example/", ASN: 200, Stages: []WireStage{}, Tm: utc},
	})
	obs("bob batch: %d %v", n, ok)

	for _, asn := range []int{100, 200, 300} {
		obs("blocked %d: %+v", asn, s.blockedForAS(asn))
		obs("body %d: %s", asn, s.fetchResponse(asn, "").body)
	}

	s.revoke("bob")
	n, ok = s.ingest("bob", utc.Add(3*time.Minute), []Report{{URL: "f.example/", ASN: 100, Tm: utc}})
	obs("bob after revoke: %d %v", n, ok)
	for _, asn := range []int{100, 200} {
		obs("blocked post-revoke %d: %+v", asn, s.blockedForAS(asn))
		obs("body post-revoke %d: %s", asn, s.fetchResponse(asn, "").body)
	}

	st := s.stats()
	obs("stats: %+v", st)
	return out.String()
}

func TestStoreConformance(t *testing.T) {
	var want string
	for _, f := range storeFactories() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			got := conformanceWorkload(t, f.mk(t))
			if want == "" {
				want = got
				return
			}
			if got != want {
				t.Fatalf("store %q diverges from reference:\n--- got ---\n%s--- want ---\n%s", f.name, got, want)
			}
		})
	}
}

// TestConformanceConditionalContract pins the conditional-fetch contract:
// every store shape answers its own current tag with 304 and never 304s a
// foreign tag. The reference model has no tags; for it the test only checks
// that If-None-Match never suppresses the body.
func TestConformanceConditionalContract(t *testing.T) {
	for _, f := range storeFactories() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			s := f.mk(t)
			s.addUser("u")
			if _, ok := s.ingest("u", utc, []Report{{URL: "a.example/", ASN: 100, Tm: utc}}); !ok {
				t.Fatal("ingest rejected")
			}
			first := s.fetchResponse(100, "")
			if first.notModified || first.delta || len(first.body) == 0 {
				t.Fatalf("unconditional fetch: %+v", first)
			}
			// A stale tag from some other backend must never 304. "9.9" is a
			// plausible tag no fresh store has reached.
			stale := s.fetchResponse(100, "9.9")
			if stale.notModified {
				t.Fatalf("stale foreign tag %q answered 304", "9.9")
			}
			if !bytes.Equal(stale.body, first.body) && !stale.delta {
				t.Fatalf("stale tag served neither full body nor delta")
			}
			if f.name == "legacy" {
				return
			}
			hit := s.fetchResponse(100, first.tag)
			if !hit.notModified || hit.body != nil || hit.tag != first.tag {
				t.Fatalf("current tag not answered 304: %+v", hit)
			}
		})
	}
}

// TestConformanceRepostDedup pins the lost-ack retry path on every backend:
// re-posting an identical batch must not inflate the updates counter.
func TestConformanceRepostDedup(t *testing.T) {
	for _, f := range storeFactories() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			s := f.mk(t)
			s.addUser("u")
			batch := []Report{
				{URL: "a.example/", ASN: 100, Tm: utc},
				{URL: "b.example/", ASN: 200, Tm: utc},
			}
			for i := 0; i < 3; i++ {
				if n, ok := s.ingest("u", utc.Add(time.Duration(i)*time.Minute), batch); n != 2 || !ok {
					t.Fatalf("post %d: %d %v", i, n, ok)
				}
			}
			if st := s.stats(); st.Updates != 2 {
				t.Fatalf("updates after 3 identical posts = %d, want 2", st.Updates)
			}
		})
	}
}
