package globaldb

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"csaw/internal/globaldb/storage"
)

// referenceSnapshot is the file storage.WriteSnapshot makes of s's
// reference State.
func referenceSnapshot(t *testing.T, s *store) []byte {
	t.Helper()
	s.mu.Lock()
	ref := referenceState(s)
	s.mu.Unlock()
	path := filepath.Join(t.TempDir(), "reference")
	if err := storage.WriteSnapshot(path, ref); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// compact runs one compaction of s and returns the number of user sections
// it encoded from the tables rather than copied.
func compact(t *testing.T, s *store) int64 {
	t.Helper()
	s.mu.Lock()
	before := s.encodes.Load()
	s.compactLocked()
	n := s.encodes.Load() - before
	s.mu.Unlock()
	if err := s.err(); err != nil {
		t.Fatal(err)
	}
	return n
}

// assertSnapshotIsReference holds the snapshot file in s's directory to the
// reference file of s's current state.
func assertSnapshotIsReference(t *testing.T, s *store, when string) {
	t.Helper()
	got, err := os.ReadFile(s.snapPath())
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceSnapshot(t, s); !bytes.Equal(got, want) {
		t.Fatalf("%s: compaction wrote %d bytes that differ from WriteSnapshot's %d", when, len(got), len(want))
	}
}

// The operations of a FuzzCompactionMatchesReference script, one per three
// bytes: the operation (mod 8), then two arguments.
const (
	fzRegister  = iota // user a
	fzIngest           // user a reports b: a new key or a re-report, as the history has it
	fzIngestToo        // the same, for weight
	fzBatch            // user a reports b and b^a in one batch
	fzRevoke           // user a
	fzCompact
	fzReopen // close, then open the same directory
	fzReset
)

// fuzzReport is the report argument b names: one of 5 URLs in one of 3
// ASes, with nil, empty or one-stage stages, measured at now or at the zero
// time.
func fuzzReport(b byte, now time.Time) Report {
	r := Report{URL: fmt.Sprintf("site%d.example/", b%5), ASN: 100 + int(b/5)%3, Tm: now}
	switch b / 15 % 3 {
	case 1:
		r.Stages = []WireStage{}
	case 2:
		r.Stages = []WireStage{{Type: 1 + int(b%3), Detail: "rst"}}
	}
	if b&0x80 != 0 {
		r.Tm = time.Time{}
	}
	return r
}

// FuzzCompactionMatchesReference drives a durable store through any history
// — registrations, new-key ingests, re-reports, revocations, compactions,
// close and reopen, reset — at any cadence (every%9 records; 0: only the
// script's own compactions), and holds every snapshot file the store leaves
// beside an empty log byte-identical to the one WriteSnapshot makes of the
// reference State, and every compaction's encoding work to the users whose
// state moved since the one before it: a compaction copies every other
// user's section from the last snapshot.
func FuzzCompactionMatchesReference(f *testing.F) {
	op := func(o, a, b byte) []byte { return []byte{o, a, b} }
	script := func(ops ...[]byte) []byte { return bytes.Join(ops, nil) }
	history := script(
		op(fzRegister, 0, 0), op(fzRegister, 1, 0), op(fzRegister, 2, 0),
		op(fzIngest, 0, 0), op(fzBatch, 1, 16), op(fzIngest, 2, 40),
		op(fzCompact, 0, 0),
		op(fzIngest, 1, 16), op(fzRegister, 3, 0), op(fzIngest, 3, 131),
		op(fzCompact, 0, 0),
		op(fzRevoke, 0, 0), op(fzCompact, 0, 0), op(fzCompact, 0, 0),
		op(fzReopen, 0, 0), op(fzIngest, 2, 7), op(fzCompact, 0, 0),
		op(fzReset, 0, 0), op(fzRegister, 4, 0), op(fzIngest, 4, 9), op(fzCompact, 0, 0),
	)
	f.Add(uint8(0), history)
	f.Add(uint8(1), history)
	f.Add(uint8(3), history)
	f.Add(uint8(0), script(
		op(fzRegister, 5, 0), op(fzRegister, 1, 0), op(fzIngest, 5, 3), op(fzIngest, 1, 3),
		op(fzCompact, 0, 0), op(fzRegister, 0, 0), op(fzRegister, 3, 0), op(fzIngest, 3, 44),
		op(fzIngest, 0, 200), op(fzCompact, 0, 0), op(fzRevoke, 5, 0), op(fzIngest, 5, 3),
		op(fzReopen, 0, 0), op(fzCompact, 0, 0), op(fzIngest, 1, 3), op(fzCompact, 0, 0),
	))
	f.Add(uint8(2), script(
		op(fzRegister, 0, 0), op(fzIngest, 0, 1), op(fzReset, 0, 0), op(fzRegister, 0, 0),
		op(fzIngest, 0, 2), op(fzReopen, 0, 0), op(fzIngest, 0, 2), op(fzCompact, 0, 0),
	))
	f.Fuzz(func(t *testing.T, every uint8, script []byte) {
		const maxOps = 64
		opts := StoreOptions{Dir: t.TempDir(), SnapshotEvery: int(every % 9)}
		if opts.SnapshotEvery == 0 {
			opts.SnapshotEvery = -1
		}
		s, err := openStore(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := s.close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}()
		moved := map[string]bool{} // the users whose state moved since the last compaction
		for i := 0; i+3 <= len(script) && i < 3*maxOps; i += 3 {
			o, a, b := script[i]%8, script[i+1], script[i+2]
			uuid := fmt.Sprintf("user-%d", a%6)
			now := utc.Add(time.Duration(i) * time.Minute)
			before := s.encodes.Load()
			switch o {
			case fzRegister:
				if s.users[uuid] == nil {
					moved[uuid] = true
				}
				s.addUser(uuid)
			case fzIngest, fzIngestToo, fzBatch:
				batch := []Report{fuzzReport(b, now)}
				if o == fzBatch {
					batch = append(batch, fuzzReport(b^a, now))
				}
				if n, _ := s.ingest(uuid, now, batch); n > 0 {
					moved[uuid] = true
				}
			case fzRevoke:
				if cs := s.users[uuid]; cs != nil && !cs.revoked {
					moved[uuid] = true
				}
				s.revoke(uuid)
			case fzCompact:
				s.mu.Lock()
				s.compactLocked()
				s.mu.Unlock()
			case fzReopen:
				if err := s.close(); err != nil {
					t.Fatal(err)
				}
				if s, err = openStore(opts); err != nil {
					t.Fatal(err)
				}
				// A reopened store has encoded nothing: its first snapshot
				// encodes every user.
				for uuid := range s.users {
					moved[uuid] = true
				}
			case fzReset:
				if err := s.reset(); err != nil {
					t.Fatal(err)
				}
				clear(moved)
			}
			if err := s.err(); err != nil {
				t.Fatalf("op %d: %v", i/3, err)
			}
			// A mutation compacts when it leaves the log empty.
			if o == fzCompact || (o <= fzRevoke && s.sinceSnap == 0) {
				if n := s.encodes.Load() - before; n != int64(len(moved)) {
					t.Fatalf("op %d: compaction encoded %d sections; %d users moved since the last one", i/3, n, len(moved))
				}
				clear(moved)
			}
			if s.sinceSnap > 0 {
				continue
			}
			if _, err := os.Stat(s.snapPath()); os.IsNotExist(err) {
				continue
			}
			assertSnapshotIsReference(t, s, fmt.Sprintf("op %d (%d)", i/3, o))
		}
	})
}

// TestCompactionCostFollowsChange: a compaction's encoding work follows the
// users whose state moved since the last one, not the users the store holds.
// After one compaction, reports by k distinct users — new keys, re-reports,
// one user twice — make the next encode exactly k sections, in a 100-user
// and a 10,000-user store alike; a revocation encodes one, a user who joins
// and reports one, and a compaction with nothing moved none. Every file is
// the reference snapshot.
func TestCompactionCostFollowsChange(t *testing.T) {
	cost := func(users int) []int64 {
		s := mustOpenStore(t, StoreOptions{Dir: t.TempDir(), SnapshotEvery: -1})
		stage := []WireStage{{Type: 1, Detail: "nxdomain"}}
		report := func(u, i int) Report {
			return Report{URL: fmt.Sprintf("site-%05d.example/", u+i), ASN: 100 + u%4, Stages: stage, Tm: t0}
		}
		for u := 0; u < users; u++ {
			uuid := fmt.Sprintf("u%05d", u)
			s.addUser(uuid)
			if _, ok := s.ingest(uuid, t0, []Report{report(u, 0), report(u, 1), report(u, 2)}); !ok {
				t.Fatal("ingest rejected")
			}
		}
		var got []int64
		step := func(when string, write func()) {
			write()
			got = append(got, compact(t, s))
			assertSnapshotIsReference(t, s, fmt.Sprintf("%d users, %s", users, when))
		}
		step("first compaction", func() {})
		step("nothing moved", func() {})
		step("k users reported", func() {
			later := t0.Add(time.Minute)
			for j, u := range []int{3, 10, 17, 24, 31, 38, 45, 10} {
				// Even users re-report a key they hold, odd ones file a new key.
				r := report(u, 2)
				if u%2 == 1 {
					r = report(u, 3+j)
				}
				if _, ok := s.ingest(fmt.Sprintf("u%05d", u), later, []Report{r}); !ok {
					t.Fatal("ingest rejected")
				}
			}
		})
		step("a revocation", func() { s.revoke("u00050") })
		step("a user joined", func() {
			s.addUser("u00050x")
			if _, ok := s.ingest("u00050x", t0, []Report{report(50, 0)}); !ok {
				t.Fatal("ingest rejected")
			}
		})
		return got
	}
	small, large := cost(100), cost(10_000)
	want := []int64{100, 0, 7, 1, 1}
	if fmt.Sprint(small[1:]) != fmt.Sprint(want[1:]) || fmt.Sprint(large[1:]) != fmt.Sprint(small[1:]) {
		t.Errorf("compactions encoded %v sections in a 100-user store and %v in a 10,000-user store; want %v after the first in both", small, large, want[1:])
	}
	if small[0] != 100 || large[0] != 10_000 {
		t.Errorf("a first compaction encoded %d and %d sections, want every user's", small[0], large[0])
	}
}

// TestResetDropsSnapshotScratch: a reset drops compaction's scratch with the
// state it wipes, so no pre-reset client stays reachable through it and no
// section of the removed snapshot is copied into the next one.
func TestResetDropsSnapshotScratch(t *testing.T) {
	s := mustOpenStore(t, StoreOptions{Dir: t.TempDir(), SnapshotEvery: -1})
	walWorkload(t, s, 6, 3)
	compact(t, s)
	if err := s.reset(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	sc := s.snap
	s.mu.Unlock()
	if cap(sc.users)+cap(sc.reports)+cap(sc.buf)+cap(sc.spare) != 0 {
		t.Fatalf("after a reset the snapshot scratch still has room for %d users and %d reports, and %d+%d buffer bytes",
			cap(sc.users), cap(sc.reports), cap(sc.buf), cap(sc.spare))
	}
	// The same users return with other reports: every section is new.
	walWorkload(t, s, 2, 1)
	if n := compact(t, s); n != 2 {
		t.Errorf("the first compaction after a reset encoded %d sections, want the 2 users'", n)
	}
	assertSnapshotIsReference(t, s, "after reset")
}
