package globaldb

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"csaw/internal/globaldb/storage"
	"csaw/internal/vtime"
)

// walWorkload feeds a deterministic report history into a store: users
// registering, reporting over several virtual minutes, one lost-ack
// re-post, one revocation. Some reports carry an empty stage list and some
// none, which the served bodies tell apart ("stages":[] vs "stages":null)
// and so must every way back from disk.
func walWorkload(t *testing.T, s *store, users, rounds int) {
	t.Helper()
	for u := 0; u < users; u++ {
		s.addUser(fmt.Sprintf("user-%03d", u))
	}
	for r := 0; r < rounds; r++ {
		now := utc.Add(time.Duration(r) * time.Minute)
		for u := 0; u < users; u++ {
			batch := []Report{
				{URL: fmt.Sprintf("site%d.example/", (u+r)%7), ASN: 100 + u%3,
					Stages: []WireStage{{Type: 1, Detail: "nxdomain"}}, Tm: now},
				{URL: fmt.Sprintf("deep%d.example/x", r%5), ASN: 100 + r%3,
					Stages: []WireStage{{Type: 2, Detail: "rst"}}, Tm: now},
				{URL: fmt.Sprintf("bare%d.example/", r), ASN: 100 + u%4, Stages: []WireStage{}, Tm: now},
				{URL: fmt.Sprintf("none%d.example/", r%3), ASN: 102, Stages: nil, Tm: now},
			}
			if _, ok := s.ingest(fmt.Sprintf("user-%03d", u), now, batch); !ok {
				t.Fatalf("ingest rejected for user %d round %d", u, r)
			}
			if r == rounds/2 {
				// Lost ack: the client retries the identical batch.
				s.ingest(fmt.Sprintf("user-%03d", u), now.Add(time.Second), batch)
			}
		}
	}
	s.revoke("user-001")
}

// observeStore captures everything a client can see: per-AS bodies, tags,
// and stats.
func observeStore(s *store) string {
	var out bytes.Buffer
	for asn := 100; asn <= 103; asn++ {
		fr := s.fetchResponse(asn, "")
		fmt.Fprintf(&out, "asn %d tag %q body %s\n", asn, fr.tag, fr.body)
	}
	fmt.Fprintf(&out, "stats %+v\n", s.stats())
	return out.String()
}

// TestWALKillAndRestart is the tentpole durability pin: kill the store (no
// graceful shutdown beyond Close), reopen the same directory, and every
// /v1/blocked body and validator tag must be byte-identical — including
// the serialized virtual-time instants inside the entries.
func TestWALKillAndRestart(t *testing.T) {
	dir := t.TempDir()
	d, err := openStore(StoreOptions{Dir: dir, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	walWorkload(t, d, 6, 5)
	before := observeStore(d)
	if err := d.close(); err != nil {
		t.Fatal(err)
	}

	d2, err := openStore(StoreOptions{Dir: dir, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := d2.close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	if d2.seq == 0 {
		t.Fatal("restart replayed no log records")
	}
	after := observeStore(d2)
	if before != after {
		t.Fatalf("state diverged across restart:\n--- before ---\n%s--- after ---\n%s", before, after)
	}

	// The restarted store keeps working: new reports land and bump tags.
	d2.addUser("late")
	if _, ok := d2.ingest("late", utc.Add(time.Hour), []Report{{URL: "late.example/", ASN: 100, Tm: utc}}); !ok {
		t.Fatal("post-restart ingest rejected")
	}
	fr := d2.fetchResponse(100, "")
	if !bytes.Contains(fr.body, []byte("late.example/")) {
		t.Fatal("post-restart report not served")
	}
}

// TestWALRestartMatchesUninterrupted splits the workload across a restart
// and requires the final state to be byte-identical to a store that never
// restarted — recovery composes with live writes, not just with a quiesced
// log.
func TestWALRestartMatchesUninterrupted(t *testing.T) {
	for _, snapshotEvery := range []int{-1, 7} {
		t.Run(fmt.Sprintf("snapshotEvery=%d", snapshotEvery), func(t *testing.T) {
			dir := t.TempDir()
			d, err := openStore(StoreOptions{Dir: dir, SnapshotEvery: snapshotEvery})
			if err != nil {
				t.Fatal(err)
			}
			walWorkload(t, d, 4, 3) // first half
			if err := d.close(); err != nil {
				t.Fatal(err)
			}
			d2, err := openStore(StoreOptions{Dir: dir, SnapshotEvery: snapshotEvery})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := d2.close(); err != nil {
					t.Errorf("close: %v", err)
				}
			}()
			secondHalf(t, d2)

			ref, err := openStore(StoreOptions{}) // in-memory reference
			if err != nil {
				t.Fatal(err)
			}
			walWorkload(t, ref, 4, 3)
			secondHalf(t, ref)

			got, want := observeStore(d2), observeStore(ref)
			if got != want {
				t.Fatalf("restarted store diverges from uninterrupted reference:\n--- got ---\n%s--- want ---\n%s", got, want)
			}
			if snapshotEvery > 0 {
				if _, err := os.Stat(filepath.Join(dir, snapshotFileName)); err != nil {
					t.Fatalf("compaction never wrote a snapshot: %v", err)
				}
			}
		})
	}
}

func secondHalf(t *testing.T, s *store) {
	t.Helper()
	now := utc.Add(time.Hour)
	s.addUser("resumed")
	if _, ok := s.ingest("resumed", now, []Report{
		{URL: "fresh.example/", ASN: 101, Stages: []WireStage{{Type: 3, Detail: "blockpage"}}, Tm: now},
	}); !ok {
		t.Fatal("second-half ingest rejected")
	}
	if _, ok := s.ingest("user-000", now.Add(time.Minute), []Report{
		{URL: "site0.example/", ASN: 100, Stages: []WireStage{{Type: 1, Detail: "nxdomain"}}, Tm: now},
	}); !ok {
		t.Fatal("second-half re-report rejected")
	}
	s.revoke("user-002")
}

// TestWALCompactionBoundsRecovery pins that compaction truncates the log:
// after enough writes, reopening replays only the records since the last
// snapshot, not the whole history.
func TestWALCompactionBoundsRecovery(t *testing.T) {
	dir := t.TempDir()
	d, err := openStore(StoreOptions{Dir: dir, SnapshotEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	walWorkload(t, d, 6, 6) // 6 addUser + 6*6 ingests + re-posts + revoke >> 10
	before := observeStore(d)
	if err := d.close(); err != nil {
		t.Fatal(err)
	}
	d2, err := openStore(StoreOptions{Dir: dir, SnapshotEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := d2.close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	if d2.seq >= 10 {
		t.Fatalf("recovered %d log records despite SnapshotEvery=10", d2.seq)
	}
	if after := observeStore(d2); after != before {
		t.Fatalf("compacted restart diverged:\n--- got ---\n%s--- want ---\n%s", after, before)
	}
}

// referenceState is the State a snapshot of s holds, gathered the way the
// store once exported it for encoding: users by uuid, each one's reports by
// dedup key, AS versions by ASN. Caller holds s.mu.
func referenceState(s *store) *storage.State {
	st := &storage.State{Updates: s.updates, RevEpoch: s.revEpoch.Load()}
	for _, uuid := range sortedKeys(s.users) {
		cs := s.users[uuid]
		us := storage.UserState{UUID: uuid, Revoked: cs.revoked}
		for _, p := range cs.sortedReports() {
			us.Reports = append(us.Reports, *p.rep)
		}
		st.Users = append(st.Users, us)
	}
	for asn, idx := range s.index {
		st.ASVersions = append(st.ASVersions, storage.ASVersion{ASN: asn, Version: idx.ver})
	}
	sort.Slice(st.ASVersions, func(a, b int) bool { return st.ASVersions[a].ASN < st.ASVersions[b].ASN })
	return st
}

// TestCompactionWritesReferenceSnapshot pins that compaction, which encodes
// straight from the store's tables, writes byte for byte the file
// WriteSnapshot makes of the reference State — twice, the second time on
// the scratch and the sections the first one left. FuzzCompactionMatchesReference
// holds the same over any history.
func TestCompactionWritesReferenceSnapshot(t *testing.T) {
	s := mustOpenStore(t, StoreOptions{Dir: t.TempDir(), SnapshotEvery: -1})
	for round, write := range []func(){func() { walWorkload(t, s, 6, 3) }, func() { secondHalf(t, s) }} {
		write()
		compact(t, s)
		assertSnapshotIsReference(t, s, fmt.Sprintf("round %d", round))
	}
}

// TestWALTornTailRecovery damages the log's tail (the signature of a crash
// mid-append) and requires recovery to keep every whole record, drop the
// torn one, and accept new writes.
func TestWALTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	d, err := openStore(StoreOptions{Dir: dir, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	walWorkload(t, d, 3, 2)
	intact := observeStore(d)
	if err := d.close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, walFileName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut mid-record: drop the last 3 bytes, then append frame-header noise.
	torn := append(append([]byte(nil), b[:len(b)-3]...), 0xff, 0x00)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := openStore(StoreOptions{Dir: dir, SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("torn tail must not abort recovery: %v", err)
	}
	defer func() {
		if err := d2.close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	// The torn record was the revocation of user-001 (last record written).
	// Everything before it must be intact; the store still accepts writes.
	recovered := observeStore(d2)
	if recovered == intact {
		t.Fatal("observations identical despite a dropped tail record")
	}
	d2.revoke("user-001")
	if got := observeStore(d2); got != intact {
		t.Fatalf("re-applying the lost mutation did not converge:\n--- got ---\n%s--- want ---\n%s", got, intact)
	}
	if err := d2.err(); err != nil {
		t.Fatalf("durability degraded after torn-tail recovery: %v", err)
	}
}

// TestDurableServerRestart exercises the same guarantee at the Server
// level, via NewDurableServer.
func TestDurableServerRestart(t *testing.T) {
	dir := t.TempDir()
	clock := vtime.New(1000)
	srv, err := NewDurableServer(clock, nil, StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv.store.addUser("u")
	if _, ok := srv.store.ingest("u", clock.Now(), []Report{
		{URL: "a.example/", ASN: 55, Stages: []WireStage{{Type: 1, Detail: "nx"}}, Tm: clock.Now()},
	}); !ok {
		t.Fatal("ingest rejected")
	}
	before := srv.store.fetchResponse(55, "")
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, err := NewDurableServer(clock, nil, StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv2.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	after := srv2.store.fetchResponse(55, "")
	if !bytes.Equal(before.body, after.body) || before.tag != after.tag {
		t.Fatalf("server restart: body/tag mismatch: %q/%q vs %q/%q",
			before.body, before.tag, after.body, after.tag)
	}
	// A conditional fetch with the pre-restart tag still hits.
	if fr := srv2.store.fetchResponse(55, before.tag); !fr.notModified {
		t.Fatalf("pre-restart tag %q not honored after recovery", before.tag)
	}
}

// TestReplicatedWALIsFeed: a replicated durable store frames each record
// once, for its log and its feed, so the WAL file is the feed's frames byte
// for byte — and a reopened store, replaying the log with the feed
// attached, rebuilds that feed frame for frame.
func TestReplicatedWALIsFeed(t *testing.T) {
	dir := t.TempDir()
	opts := StoreOptions{Dir: dir, SnapshotEvery: -1, Replicated: true}
	s := mustOpenStore(t, opts)
	walWorkload(t, s, 6, 4)
	secondHalf(t, s)
	s.mu.Lock()
	feed, _ := s.feed.ReadFrom(0, 1<<30)
	s.mu.Unlock()
	wal, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	if len(wal) == 0 || !bytes.Equal(wal, feed) {
		t.Fatalf("the WAL's %d bytes differ from the feed's %d", len(wal), len(feed))
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpenStore(t, opts)
	if again, _ := r.feed.ReadFrom(0, 1<<30); !bytes.Equal(again, feed) {
		t.Fatalf("the reopened store's feed holds %d bytes, the first one's %d", len(again), len(feed))
	}
}
