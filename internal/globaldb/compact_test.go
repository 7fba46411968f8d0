package globaldb

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
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

// compact runs one compaction of s to its end, after the one in flight if
// any, and returns the number of user sections it encoded from the tables
// rather than copied.
func compact(t *testing.T, s *store) int64 {
	t.Helper()
	s.mu.Lock()
	s.awaitCompactionLocked()
	before := s.encodes.Load()
	s.startCompactionLocked()
	s.awaitCompactionLocked()
	n := s.encodes.Load() - before
	s.mu.Unlock()
	if err := s.err(); err != nil {
		t.Fatal(err)
	}
	return n
}

// settle waits for the compaction in flight, if any: the directory and the
// encodes counter are then the finished compaction's.
func settle(s *store) {
	s.mu.Lock()
	s.awaitCompactionLocked()
	s.mu.Unlock()
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
// bytes: the operation (mod fzOps), then two arguments.
const (
	fzRegister  = iota // user a
	fzIngest           // user a reports b: a new key or a re-report, as the history has it
	fzIngestToo        // the same, for weight
	fzBatch            // user a reports b and b^a in one batch
	fzRevoke           // user a
	fzCompact          // start a compaction, after the one in flight if any
	fzWait             // wait for the compaction in flight
	fzReopen           // close, then open the same directory
	fzReset
	fzOps
)

// fuzzReport is the report argument b names: one of 7 URLs in one of 3
// ASes, with nil, empty or one-stage stages, measured at now or at the zero
// time.
func fuzzReport(b byte, now time.Time) Report {
	r := Report{URL: fmt.Sprintf("site%d.example/", b%7), ASN: 100 + int(b/7)%3, Tm: now}
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
// — registrations, new-key ingests, re-reports, revocations, compactions
// and writes while they are in flight, close and reopen, reset — at any
// cadence (every%9 records; 0: only the script's own compactions), with the
// compactor held before it writes until the script waits for it (every's
// high bit) or running free. It holds every compaction's file
// byte-identical to the one WriteSnapshot makes of the reference State at
// its capture, and every compaction's encoding work to the users whose
// state moved since the capture before it: a compaction copies every other
// user's section from the last snapshot, whether the store wrote that
// snapshot or was reopened from it.
func FuzzCompactionMatchesReference(f *testing.F) {
	op := func(o, a, b byte) []byte { return []byte{o, a, b} }
	script := func(ops ...[]byte) []byte { return bytes.Join(ops, nil) }
	history := script(
		op(fzRegister, 0, 0), op(fzRegister, 1, 0), op(fzRegister, 2, 0),
		op(fzIngest, 0, 0), op(fzBatch, 1, 16), op(fzIngest, 2, 40),
		op(fzCompact, 0, 0), op(fzWait, 0, 0),
		op(fzIngest, 1, 16), op(fzRegister, 3, 0), op(fzIngest, 3, 131),
		op(fzCompact, 0, 0), op(fzIngest, 0, 77), op(fzRevoke, 2, 0), op(fzWait, 0, 0),
		op(fzRevoke, 0, 0), op(fzCompact, 0, 0), op(fzCompact, 0, 0),
		op(fzReopen, 0, 0), op(fzIngest, 2, 7), op(fzCompact, 0, 0), op(fzWait, 0, 0),
		op(fzCompact, 0, 0), op(fzRegister, 5, 0), op(fzReopen, 0, 0), op(fzCompact, 0, 0),
		op(fzReset, 0, 0), op(fzRegister, 4, 0), op(fzIngest, 4, 9), op(fzCompact, 0, 0), op(fzWait, 0, 0),
	)
	for _, every := range []uint8{0, 1, 3, 0x80, 0x81, 0x83} {
		f.Add(every, history)
	}
	f.Add(uint8(0), script(
		op(fzRegister, 5, 0), op(fzRegister, 1, 0), op(fzIngest, 5, 3), op(fzIngest, 1, 3),
		op(fzCompact, 0, 0), op(fzRegister, 0, 0), op(fzRegister, 3, 0), op(fzIngest, 3, 44),
		op(fzIngest, 0, 200), op(fzCompact, 0, 0), op(fzRevoke, 5, 0), op(fzIngest, 5, 3),
		op(fzReopen, 0, 0), op(fzCompact, 0, 0), op(fzIngest, 1, 3), op(fzCompact, 0, 0),
	))
	f.Add(uint8(0x82), script(
		op(fzRegister, 0, 0), op(fzIngest, 0, 1), op(fzReset, 0, 0), op(fzRegister, 0, 0),
		op(fzIngest, 0, 2), op(fzReopen, 0, 0), op(fzIngest, 0, 2), op(fzCompact, 0, 0),
		op(fzIngest, 0, 3), op(fzIngest, 0, 4), op(fzReset, 0, 0), op(fzIngest, 0, 5),
	))
	f.Fuzz(func(t *testing.T, every uint8, script []byte) {
		const maxOps = 64
		opts := StoreOptions{Dir: t.TempDir(), SnapshotEvery: int(every % 9)}
		if opts.SnapshotEvery == 0 {
			opts.SnapshotEvery = -1
		}
		// gate holds the compactor before it writes while the script runs
		// on; release opens it, and a fresh one holds the next compaction.
		var gate chan struct{}
		held := every&0x80 != 0
		open := func() *store {
			s, err := openStore(opts)
			if err != nil {
				t.Fatal(err)
			}
			if held {
				gate = make(chan struct{})
				s.compactHook = func(at compactStep) error {
					if at == compactWrite {
						<-gate
					}
					return nil
				}
			}
			return s
		}
		release := func() {
			if held {
				close(gate)
			}
		}
		rearm := func() {
			if held {
				gate = make(chan struct{})
			}
		}
		s := open()
		moved := map[string]bool{} // the users whose state moved since the last capture
		var encodes int64          // what every compaction since the store opened should have encoded
		var want []byte            // the last capture's reference file; nil: no snapshot
		captured := func() {
			encodes += int64(len(moved))
			clear(moved)
			want = referenceSnapshot(t, s)
		}
		// check holds the finished compactions to the model.
		check := func(when string) {
			t.Helper()
			if n := s.encodes.Load(); n != encodes {
				t.Fatalf("%s: compactions encoded %d sections; the users that moved before each capture number %d", when, n, encodes)
			}
			got, err := os.ReadFile(s.snapPath())
			if os.IsNotExist(err) && want == nil {
				return
			}
			if err != nil {
				t.Fatalf("%s: %v", when, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: compaction wrote %d bytes that differ from WriteSnapshot's %d at its capture", when, len(got), len(want))
			}
			assertNoCompactionLeft(t, opts.Dir, when)
		}
		wait := func(when string) {
			t.Helper()
			release()
			settle(s)
			rearm()
			check(when)
		}
		for i := 0; i+3 <= len(script) && i < 3*maxOps; i += 3 {
			o, a, b := script[i]%fzOps, script[i+1], script[i+2]
			when := fmt.Sprintf("op %d (%d)", i/3, o)
			uuid := fmt.Sprintf("user-%d", a%6)
			now := utc.Add(time.Duration(i) * time.Minute)
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
				busy := s.compacting
				s.mu.Unlock()
				if busy {
					wait(when)
				}
				s.mu.Lock()
				s.startCompactionLocked()
				s.mu.Unlock()
				captured()
			case fzWait:
				wait(when)
			case fzReopen:
				// Close finishes the compaction in flight, and starts and
				// finishes one more when the log holds a threshold's worth.
				release()
				final := opts.SnapshotEvery > 0 && s.sinceSnap >= opts.SnapshotEvery
				if err := s.close(); err != nil {
					t.Fatal(err)
				}
				if final {
					captured()
				}
				check(when + " closed")
				// A reopened store copies every section of the file it
				// opened from: only the log's records move users, and they
				// move the ones that moved since the last capture.
				s, encodes = open(), 0
			case fzReset:
				release()
				if err := s.reset(); err != nil {
					t.Fatal(err)
				}
				rearm()
				clear(moved)
				encodes, want = 0, nil
				check(when)
			}
			if err := s.err(); err != nil {
				t.Fatalf("%s: %v", when, err)
			}
			// A mutation that leaves the active log empty sealed it.
			if o <= fzRevoke && s.sinceSnap == 0 {
				captured()
			}
		}
		// Close may start one more compaction: the gate stays open for it.
		release()
		settle(s)
		check("end")
		if err := s.close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
}

// TestCompactionCostFollowsChange: a compaction's encoding work follows the
// users whose state moved since the last one, not the users the store holds.
// After one compaction, reports by k distinct users — new keys, re-reports,
// one user twice — make the next encode exactly k sections, in a 100-user
// and a 10,000-user store alike; a revocation encodes one, a user who joins
// and reports one, and a compaction with nothing moved none. A reopened
// store copies every section of the file it opened from: its first
// compaction encodes none when nothing moved, and k when k users reported
// before the close. Every file is the reference snapshot.
func TestCompactionCostFollowsChange(t *testing.T) {
	cost := func(users int) []int64 {
		opts := StoreOptions{Dir: t.TempDir(), SnapshotEvery: -1}
		s := mustOpenStore(t, opts)
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
		kReport := func(at time.Duration) {
			later := t0.Add(at)
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
		}
		reopen := func() {
			if err := s.close(); err != nil {
				t.Fatal(err)
			}
			s = mustOpenStore(t, opts)
		}
		step("first compaction", func() {})
		step("nothing moved", func() {})
		step("k users reported", func() { kReport(time.Minute) })
		step("a revocation", func() { s.revoke("u00050") })
		step("a user joined", func() {
			s.addUser("u00050x")
			if _, ok := s.ingest("u00050x", t0, []Report{report(50, 0)}); !ok {
				t.Fatal("ingest rejected")
			}
		})
		step("reopened, nothing moved", reopen)
		step("k users reported, then reopened", func() {
			kReport(2 * time.Minute)
			reopen()
		})
		return got
	}
	small, large := cost(100), cost(10_000)
	want := []int64{100, 0, 7, 1, 1, 0, 7}
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
	sc, c, moved := s.snap, s.capture, s.moved
	s.mu.Unlock()
	if cap(sc.users)+cap(sc.next)+cap(sc.enc) != 0 || !reflect.ValueOf(sc.w).IsZero() {
		t.Fatalf("after a reset the snapshot scratch still has room for %d+%d sections and %d encoding bytes, or a writer's buffers",
			cap(sc.users), cap(sc.next), cap(sc.enc))
	}
	if cap(c.moved)+cap(c.reports)+cap(moved) != 0 {
		t.Fatalf("after a reset the capture still has room for %d users and %d reports, and the moved list for %d",
			cap(c.moved), cap(c.reports), cap(moved))
	}
	// The same users return with other reports: every section is new.
	walWorkload(t, s, 2, 1)
	if n := compact(t, s); n != 2 {
		t.Errorf("the first compaction after a reset encoded %d sections, want the 2 users'", n)
	}
	assertSnapshotIsReference(t, s, "after reset")
}

// assertNoCompactionLeft holds dir to a finished compaction's: no sealed
// log segment and no next snapshot.
func assertNoCompactionLeft(t *testing.T, dir, when string) {
	t.Helper()
	for _, path := range []string{filepath.Join(dir, nextSnapshotName), storage.SealedPath(filepath.Join(dir, walFileName))} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("%s: %s is still there (%v)", when, filepath.Base(path), err)
		}
	}
}

// copyDir copies the files of dir into a new directory, as a crash would
// leave them: every append is flushed, so the copy holds what the disk does.
func copyDir(t *testing.T, dir string) string {
	t.Helper()
	into := t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(into, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return into
}

// assertRecovers opens dir twice, the second time from what the first open
// left, and holds both to want, the live store's reference file and its
// observable state: recovery finishes a compaction cut short, leaving no
// sealed segment and no next snapshot behind.
func assertRecovers(t *testing.T, dir string, want []byte, observed string) {
	t.Helper()
	for open := 1; open <= 2; open++ {
		r := mustOpenStore(t, StoreOptions{Dir: dir, SnapshotEvery: -1})
		if got := referenceSnapshot(t, r); !bytes.Equal(got, want) {
			t.Fatalf("open %d: recovered state differs from the live store's", open)
		}
		if got := observeStore(r); got != observed {
			t.Fatalf("open %d: recovered store serves\n%s\nthe live store serves\n%s", open, got, observed)
		}
		assertNoCompactionLeft(t, dir, fmt.Sprintf("open %d", open))
		if err := r.close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompactionCrashWindows stops the compactor at each step — captured
// and about to stream the next snapshot, written with the sealed segment
// still there, sealed segment deleted with the next snapshot not yet in
// place — with records logged after the seal, copies the directory as a
// crash there would leave it, and requires the copy to recover exactly the
// live store's state: old snapshot, sealed segment and active log before
// the deletion, next snapshot and active log after it; and the first
// compaction of a store (no old snapshot) alike.
func TestCompactionCrashWindows(t *testing.T) {
	for _, at := range []compactStep{compactWrite, compactWritten, compactCommitted} {
		for _, first := range []bool{true, false} {
			t.Run(fmt.Sprintf("step%d/first=%v", at, first), func(t *testing.T) {
				dir := t.TempDir()
				s := mustOpenStore(t, StoreOptions{Dir: dir, SnapshotEvery: -1})
				walWorkload(t, s, 5, 2)
				if !first {
					compact(t, s)
					secondHalf(t, s)
				}
				reached, resume := make(chan struct{}), make(chan struct{})
				s.compactHook = func(step compactStep) error {
					if step == at {
						close(reached)
						<-resume
					}
					return nil
				}
				s.mu.Lock()
				s.startCompactionLocked()
				s.mu.Unlock()
				<-reached
				// Records after the seal land in the fresh active log.
				later := utc.Add(2 * time.Hour)
				s.addUser("after-seal")
				if _, ok := s.ingest("after-seal", later, []Report{{URL: "late.example/", ASN: 101, Tm: later}}); !ok {
					t.Fatal("ingest rejected")
				}
				s.revoke("user-003")
				crashed := copyDir(t, dir)
				want, observed := referenceSnapshot(t, s), observeStore(s)
				close(resume)
				settle(s)
				if err := s.err(); err != nil {
					t.Fatal(err)
				}
				assertRecovers(t, crashed, want, observed)
				if err := s.close(); err != nil {
					t.Fatal(err)
				}
				assertRecovers(t, dir, want, observed)
			})
		}
	}
}

// TestCompactionFailureLatches injects an error at each step of the
// compactor: the next mutation is rejected with errNotDurable and folds
// nothing, Close reports the error, and every record acknowledged before it
// survives a reopen of the directory.
func TestCompactionFailureLatches(t *testing.T) {
	injected := errors.New("injected write error")
	for _, at := range []compactStep{compactWrite, compactWritten, compactCommitted} {
		t.Run(fmt.Sprintf("step%d", at), func(t *testing.T) {
			dir := t.TempDir()
			// Not mustOpenStore: its cleanup's close would report the
			// latched error again.
			s, err := openStore(StoreOptions{Dir: dir, SnapshotEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			walWorkload(t, s, 5, 2)
			compact(t, s)
			secondHalf(t, s)
			s.compactHook = func(step compactStep) error {
				if step == at {
					return injected
				}
				return nil
			}
			s.mu.Lock()
			s.startCompactionLocked()
			s.mu.Unlock()
			// Wait for the verdict without taking it: the next mutation must.
			for len(s.compacted) == 0 {
				runtime.Gosched()
			}
			want, observed := referenceSnapshot(t, s), observeStore(s)
			if _, err := s.apply(&storage.Record{Kind: storage.KindAddUser, UUID: "rejected"}); !errors.Is(err, errNotDurable) {
				t.Fatalf("the mutation after a failed compaction returned %v, want errNotDurable", err)
			}
			if got := referenceSnapshot(t, s); !bytes.Equal(got, want) {
				t.Fatal("the rejected mutation was folded")
			}
			if err := s.close(); !errors.Is(err, injected) {
				t.Fatalf("close returned %v, want the compaction's error", err)
			}
			assertRecovers(t, dir, want, observed)
		})
	}
}

// TestCloseFinishesCompaction: Close waits for the compaction in flight —
// it holds the lock while the compactor, held before it writes, has yet to
// run — and returns only with the snapshot on disk, no sealed segment, no
// next snapshot and no compactor goroutine left.
func TestCloseFinishesCompaction(t *testing.T) {
	dir := t.TempDir()
	s := mustOpenStore(t, StoreOptions{Dir: dir, SnapshotEvery: -1})
	walWorkload(t, s, 5, 2)
	gate := make(chan struct{})
	s.compactHook = func(step compactStep) error {
		if step == compactWrite {
			<-gate
		}
		return nil
	}
	s.mu.Lock()
	s.startCompactionLocked()
	s.mu.Unlock()
	want := referenceSnapshot(t, s)
	closed := make(chan error, 1)
	go func() { closed <- s.close() }()
	// Once Close holds the lock it is waiting for the compactor.
	for s.mu.TryLock() {
		s.mu.Unlock()
		select {
		case err := <-closed:
			t.Fatalf("close returned (%v) with the compactor held before it wrote", err)
		default:
		}
		runtime.Gosched()
	}
	close(gate)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(s.snapPath())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the snapshot on disk after close is not the compaction's")
	}
	assertNoCompactionLeft(t, dir, "after close")
	if s.compacting || len(s.compacted) != 0 {
		t.Fatal("close left a compaction's verdict untaken")
	}
	// The compactor sent its verdict as its last act: it is gone, or about
	// to be within a few scheduling rounds.
	for i := 0; compactorRunning(); i++ {
		if i == 1000 {
			t.Fatal("a compactor goroutine is still running after close")
		}
		runtime.Gosched()
	}
}

// compactorRunning reports whether any goroutine is running the compactor.
func compactorRunning() bool {
	buf := make([]byte, 1<<20)
	return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("globaldb.(*store).startCompactionLocked.func1"))
}

// TestCompactionLockTime: at db-ingest's size — 10,000 users, ten reports
// each over 16 ASes, a 6.6 MB snapshot, 4,096 five-report re-report batches
// between compactions — a compaction holds the write lock only to seal the
// log and capture the moved users, about 1 ms, not for the 20 ms or more its
// encoding, write and fsync take on the compactor. The fastest of eight
// compactions — a host that deschedules the test mid-capture slows one,
// not all — is held to 2 ms (plain, full runs only).
func TestCompactionLockTime(t *testing.T) {
	if raceEnabled() || testing.Short() {
		t.Skip("lock time is measured in plain, full runs")
	}
	const users, ases, perAS, batch, batches = 10_000, 16, 4_000, 5, 4_096
	s := mustOpenStore(t, StoreOptions{Dir: t.TempDir(), SnapshotEvery: -1})
	rng := rand.New(rand.NewSource(1))
	stage := []WireStage{{Type: 1, Detail: "nxdomain"}}
	pools := make([][]Report, users)
	for u := range pools {
		uuid := fmt.Sprintf("%016x", u)
		s.addUser(uuid)
		for _, i := range rng.Perm(perAS)[:2*batch] {
			pools[u] = append(pools[u], Report{URL: fmt.Sprintf("site-%04d.example/", i), ASN: 65100 + u%ases, Stages: stage, Tm: t0})
		}
		for half := 0; half < 2; half++ {
			if _, ok := s.ingest(uuid, t0, pools[u][half*batch:(half+1)*batch]); !ok {
				t.Fatal("ingest rejected")
			}
		}
	}
	compact(t, s)
	best, worst := time.Duration(1<<62), time.Duration(0)
	for round := 1; round <= 8; round++ {
		now := t0.Add(time.Duration(round) * time.Minute)
		for i := 0; i < batches; i++ {
			u := rng.Intn(users)
			half := rng.Intn(2)
			if _, ok := s.ingest(fmt.Sprintf("%016x", u), now, pools[u][half*batch:(half+1)*batch]); !ok {
				t.Fatal("ingest rejected")
			}
		}
		s.mu.Lock()
		start := time.Now() //lint:allow-realtime the test measures host time under the lock
		s.startCompactionLocked()
		held := time.Since(start) //lint:allow-realtime the test measures host time under the lock
		s.awaitCompactionLocked()
		s.mu.Unlock()
		if err := s.err(); err != nil {
			t.Fatal(err)
		}
		best, worst = min(best, held), max(worst, held)
	}
	t.Logf("write lock held %v to %v per compaction", best, worst)
	if best > 2*time.Millisecond {
		t.Errorf("a compaction held the write lock for %v at best, want at most 2ms", best)
	}
}

// TestRecoveryTruncatesOnlyTheActiveLog: with a compaction cut short, a torn
// tail of the active log is truncated like any crash mid-append, while any
// damage to the sealed segment — whole when sealed, and followed by the
// active log — aborts the open with storage.ErrHistoryLoss.
func TestRecoveryTruncatesOnlyTheActiveLog(t *testing.T) {
	dir := t.TempDir()
	s := mustOpenStore(t, StoreOptions{Dir: dir, SnapshotEvery: -1})
	walWorkload(t, s, 4, 2)
	compact(t, s)
	secondHalf(t, s)
	reached, resume := make(chan struct{}), make(chan struct{})
	s.compactHook = func(step compactStep) error {
		if step == compactWrite {
			close(reached)
			<-resume
		}
		return nil
	}
	s.mu.Lock()
	s.startCompactionLocked()
	s.mu.Unlock()
	<-reached
	s.addUser("after-seal")
	want, observed := referenceSnapshot(t, s), observeStore(s)
	s.revoke("user-000") // the record the torn tail loses
	crashed := copyDir(t, dir)
	close(resume)
	settle(s)

	if _, err := os.Stat(storage.SealedPath(filepath.Join(crashed, walFileName))); err != nil {
		t.Fatalf("the crash left no sealed segment to test: %v", err)
	}
	tear := func(path string) {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b[:len(b)-3], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	damaged := copyDir(t, crashed)
	tear(storage.SealedPath(filepath.Join(damaged, walFileName)))
	if _, err := openStore(StoreOptions{Dir: damaged, SnapshotEvery: -1}); !errors.Is(err, storage.ErrHistoryLoss) {
		t.Fatalf("open with a torn sealed segment: err = %v, want ErrHistoryLoss", err)
	}
	tear(filepath.Join(crashed, walFileName))
	assertRecovers(t, crashed, want, observed)
}

// TestRestoreFromUnsortedSnapshot: a snapshot file whose users are not in
// uuid order — one this store never writes, but whose checksum holds — is
// restored, its sections are not adopted, and the first compaction encodes
// every user into the reference file.
func TestRestoreFromUnsortedSnapshot(t *testing.T) {
	dir := t.TempDir()
	st := &storage.State{Updates: 2, Users: []storage.UserState{
		{UUID: "b", Reports: []storage.StoredReport{{URL: "x.example/", ASN: 100, Tp: 1}}},
		{UUID: "a", Reports: []storage.StoredReport{{URL: "y.example/", ASN: 100, Tp: 2}}},
	}, ASVersions: []storage.ASVersion{{ASN: 100, Version: 2}}}
	if err := storage.WriteSnapshot(filepath.Join(dir, snapshotFileName), st); err != nil {
		t.Fatal(err)
	}
	s := mustOpenStore(t, StoreOptions{Dir: dir, SnapshotEvery: -1})
	if n := compact(t, s); n != 2 {
		t.Fatalf("the first compaction after an unsorted snapshot encoded %d sections, want both users'", n)
	}
	assertSnapshotIsReference(t, s, "after an unsorted snapshot")
}
