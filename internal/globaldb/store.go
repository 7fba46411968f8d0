package globaldb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"csaw/internal/globaldb/storage"
)

// StoreOptions selects the server's storage backend.
type StoreOptions struct {
	// Dir is the durability directory holding the write-ahead log and
	// snapshots. Empty disables the on-disk log: mutations are applied (and,
	// when Replicated, streamed) but nothing survives a restart.
	Dir string
	// SnapshotEvery compacts after this many logged records: the store state
	// is written as a snapshot and the records it holds dropped from the log,
	// bounding both recovery time and log size. The record that reaches the
	// count seals the log and captures the users whose state moved since the
	// last compaction under the write lock; a background compactor encodes
	// them, copies every other user's bytes from the last snapshot, and
	// writes and syncs the file while writes go on. A count reached while a
	// compaction is in flight starts the next one at the first record after
	// it finishes, and Close finishes both. 0 selects the default (4096);
	// negative disables compaction.
	SnapshotEvery int
	// Replicated attaches an in-memory replication feed mirroring every
	// logged record, served on PathRepl for followers to pull.
	Replicated bool
}

const (
	defaultSnapshotEvery = 4096
	walFileName          = "wal.log"
	snapshotFileName     = "snapshot"
	// nextSnapshotName is where a compaction writes its snapshot: it is
	// moved over snapshotFileName only after the sealed log segment it
	// covers is deleted (see compact).
	nextSnapshotName = "snapshot.next"
)

// store is the global DB's one store. Its state — registered users, their
// reports, revocations, the per-AS index behind /v1/blocked, and the term
// lineage — is a fold over the record stream, and apply is the only function
// that advances the fold: live register/report/revoke/StartTerm, WAL replay
// at open, follower Absorb and push reconciliation all hand it a record.
// Folding the same stream therefore reproduces the same state exactly,
// including the dedup-aware updates counter and the version counters behind
// validator tags. The stream records requests, not effects: a no-op request
// (duplicate report, ingest for an unknown uuid) replays to the same no-op
// because the fold is order-preserving.
//
// The optional log and feed are the stream's two sinks. A server with
// neither (zero StoreOptions) is the same store with both nil: apply skips
// straight to the fold and never encodes the record.
//
// Locks (see DESIGN.md "scale architecture"): mu is the single write lock.
// It serializes apply, a compaction's seal and capture, reset and close, and
// is the only guard of the users table, every client's state, each AS's slot
// table and reporter lists, the lineage and the durability fields; stats
// take it too. The compactor never takes it: it owns capture and snap from
// the capture until it sends its verdict on compacted. A write holds mu for
// the whole record — log append, feed, fold — and inside it, once per AS the
// record touches, that AS's asIndex.mu for the refold that ends the record
// (commit). The read side never takes mu: a fetch goes indexMu (read, to
// find the AS) → asIndex.mu, under which the tag and every slot's entry were
// last written, so fetches of other ASes proceed while a write folds, and a
// fetch of the written AS waits for one commit.
type store struct {
	mu   sync.Mutex
	opts StoreOptions // SnapshotEvery resolved to its default at open

	// The files of opts.Dir, joined once: walPath, snapPath and nextPath.
	walFile, snapFile, nextFile string

	log       *storage.Log  // nil: not durable
	feed      *storage.Feed // nil: not replicated
	sinceSnap int           // records in the active log, since the last seal
	lastErr   error         // latched durability error: every later mutation is rejected

	// Compaction (restore.go). moved lists the users whose section of the
	// last snapshot no longer reads as their state, for the next capture.
	// compacting says a compactor is running; it sends its error, nil on
	// success, on compacted, a channel of one.
	moved       []*clientState
	compacting  bool
	compacted   chan error
	capture     capture
	snap        snapshotScratch
	compactHook func(compactStep) error // tests only: the compactor calls it at each step

	// seq counts the records folded since the store was opened or reset: the
	// position the next record lands at. It equals the feed head whenever the
	// feed holds the full history (no snapshot at open). marks is the lineage:
	// every leadership change in stream order, so termAt can name the lineage
	// in effect at any position (valid while the stream holds the full
	// history, i.e. compaction disabled — which replica sets require).
	seq   uint64
	marks []TermMark

	users   map[string]*clientState
	updates int64 // unique (uuid, url|asn) keys ever accepted

	// revEpoch is bumped on every revoke. Each AS carries it in its tag; the
	// atomic is for the fetch of an AS nobody has reported on.
	revEpoch atomic.Int64
	refolds  atomic.Int64 // slot aggregations, observable in tests
	encodes  atomic.Int64 // snapshot sections encoded from the tables, likewise
	histMax  atomic.Int64 // per-AS mark cap

	indexMu  sync.RWMutex // guards the index map, not the indexes
	index    map[int]*asIndex
	affected []*asIndex // the ASes the record being folded must commit
	fresh    []*slot    // commit's list of the slots new to an AS, kept for its storage
	votes    []float64  // a slot fold's vote terms, likewise
}

// clientState is one registered client's server-side state. Its vote weight
// is 1/len(reports).
type clientState struct {
	uuid    string
	revoked bool
	// moved says the user is on the store's moved list: it registered,
	// reported or was revoked since the last capture.
	moved bool
	// reports holds the client's reports, each in the slot it is filed in —
	// one slot per dedup key (url, asn) — in the order the keys were first
	// filed; a compaction's capture copies it as it lies. find scans it for
	// a slot until it holds more than smallReports, and from then on bySlot
	// indexes it. It is made at the first report: a client that has
	// reported nothing holds no table.
	reports []placed
	bySlot  map[*slot]int
}

// errNotDurable is returned by every mutation once durability is lost; the
// server maps it to 503.
var errNotDurable = errors.New("globaldb: write-ahead log unavailable")

// unknownUUID is apply's result for an ingest naming an unregistered or
// revoked uuid (the record is still logged and streamed; it folds to a
// no-op on every replica alike).
const unknownUUID = -1

// openStore opens (or creates) the store described by o. With o.Dir set,
// state is recovered from the newest snapshot, then the sealed log segment a
// compaction cut short left (any damage in it aborts the open), then the
// active log: a corrupt tail there (torn write from a crash) is truncated at
// the last valid record; any other error aborts the open.
func openStore(o StoreOptions) (*store, error) {
	s := &store{opts: o, users: make(map[string]*clientState), index: make(map[int]*asIndex)}
	s.histMax.Store(deltaHistoryMax)
	if s.opts.SnapshotEvery == 0 {
		s.opts.SnapshotEvery = defaultSnapshotEvery
	}
	var feed *storage.Feed
	if o.Replicated {
		feed = storage.NewFeed()
	}
	if o.Dir == "" {
		s.feed = feed
		return s, nil
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, err
	}
	s.walFile = filepath.Join(o.Dir, walFileName)
	s.snapFile = filepath.Join(o.Dir, snapshotFileName)
	s.nextFile = filepath.Join(o.Dir, nextSnapshotName)
	if err := s.settleSnapshot(); err != nil {
		return nil, fmt.Errorf("globaldb: recover snapshot: %w", err)
	}
	st, users, err := storage.ReadSnapshotFile(s.snapPath())
	if err != nil {
		return nil, fmt.Errorf("globaldb: recover snapshot: %w", err)
	}
	if st != nil {
		s.restoreState(st, users)
	} else {
		// With no snapshot the log is the complete history, so replaying it
		// with the feed attached rebuilds the feed record for record and
		// followers' pull offsets stay valid across a restart. Once a snapshot
		// exists the prefix is gone and a restarted primary's feed restarts at
		// zero (replica sets never compact, for exactly this reason).
		s.feed = feed
	}
	// Replay is apply with the log still detached: fold (and feed) only.
	replay := func(rec *storage.Record) error {
		_, err := s.apply(rec)
		return err
	}
	sealed, err := storage.ReplaySealed(s.walPath(), replay)
	if err != nil {
		return nil, fmt.Errorf("globaldb: replay sealed wal: %w", err)
	}
	if sealed {
		// A compaction was cut short. Its snapshot is the state at the seal,
		// which is the state now: finish it before the active log is replayed
		// on top, so the segment is gone before the log can be sealed again.
		if err := s.compact(s.captureLocked()); err != nil {
			return nil, fmt.Errorf("globaldb: finish compaction: %w", err)
		}
	}
	base := s.seq
	good, err := storage.ReplayFile(s.walPath(), replay)
	if err != nil && !errors.Is(err, storage.ErrCorrupt) {
		return nil, fmt.Errorf("globaldb: replay wal: %w", err)
	}
	torn := err != nil
	log, err := storage.OpenLog(s.walPath())
	if err != nil {
		return nil, err
	}
	if torn {
		if err := log.Truncate(good); err != nil {
			closeErr := log.Close()
			return nil, fmt.Errorf("globaldb: truncate torn wal: %v (close: %v)", err, closeErr)
		}
	}
	s.log, s.feed, s.sinceSnap = log, feed, int(s.seq-base)
	s.compacted = make(chan error, 1)
	return s, nil
}

func (s *store) walPath() string  { return s.walFile }
func (s *store) snapPath() string { return s.snapFile }
func (s *store) nextPath() string { return s.nextFile }

// settleSnapshot resolves a next snapshot a compaction cut short left
// behind. Once the sealed segment it covers is deleted it is the store's
// snapshot, and is moved into place; while the segment is there it is not,
// and is deleted.
func (s *store) settleSnapshot() error {
	if _, err := os.Stat(s.nextPath()); os.IsNotExist(err) {
		return nil
	} else if err != nil {
		return err
	}
	if _, err := os.Stat(storage.SealedPath(s.walPath())); os.IsNotExist(err) {
		return storage.SyncRename(s.nextPath(), s.snapPath())
	} else if err != nil {
		return err
	}
	return os.Remove(s.nextPath())
}

// apply is the store's only mutation path: log, then feed, then fold, under
// the write lock. The log write comes first — a record must never enter the
// replication stream unless it is durable locally, or a crashed primary
// could restart without records its followers hold — and a follower handing
// a pulled record here re-encodes it to the leader's exact bytes
// (EncodeRecord is a pure function), so its WAL and feed mirror the leader's
// stream frame for frame.
//
// The error is this mutation's own durability verdict: durability is a
// precondition of acknowledgement. A failed append latches its error, and
// from then until restart (or reset) every record is rejected — not logged,
// not streamed, not folded — and the caller must not acknowledge it. n is
// the fold's result: for an ingest the number of reports accepted, or
// unknownUUID; 0 for every other kind.
func (s *store) apply(rec *storage.Record) (n int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pollCompactionLocked()
	if s.lastErr != nil {
		return 0, errNotDurable
	}
	// A replicated store frames the record once: the log writes the frame
	// the feed then keeps.
	var frame []byte
	if s.feed != nil {
		frame = s.feed.Frame(rec)
	}
	if s.log != nil {
		var err error
		if frame != nil {
			err = s.log.AppendFrame(frame)
		} else {
			err = s.log.Append(rec)
		}
		if err != nil {
			s.lastErr = err
			return 0, errNotDurable
		}
		s.sinceSnap++
	}
	if s.feed != nil {
		s.feed.AppendFrame(frame)
	}
	n = s.fold(rec)
	s.seq++
	// Compact only after the fold: the snapshot must contain the mutation
	// whose record the seal is about to move out of the active log. While a
	// compaction is in flight the count may pass the threshold; the first
	// record after it finishes starts the next.
	if s.log != nil && s.opts.SnapshotEvery > 0 && s.sinceSnap >= s.opts.SnapshotEvery {
		s.pollCompactionLocked()
		if !s.compacting {
			s.startCompactionLocked()
		}
	}
	return n, nil
}

// ingestRecord is the record a report batch posted by uuid at now becomes.
func ingestRecord(uuid string, now time.Time, reports []Report) *storage.Record {
	return &storage.Record{Kind: storage.KindIngest, UUID: uuid, Now: nanoOf(now), Reports: reportsToStorage(reports)}
}

// fold advances the state by one record. Caller holds s.mu.
func (s *store) fold(rec *storage.Record) int {
	switch rec.Kind {
	case storage.KindAddUser:
		if s.users[rec.UUID] == nil {
			cs := &clientState{uuid: rec.UUID}
			s.users[rec.UUID] = cs
			s.markMoved(cs)
		}
	case storage.KindIngest:
		return s.foldIngest(rec)
	case storage.KindRevoke:
		s.revEpoch.Add(1)
		if cs := s.users[rec.UUID]; cs != nil && !cs.revoked {
			cs.revoked = true
			s.markMoved(cs)
			s.touchAll(cs)
		}
		// Only the client's own slots are refolded; every other AS just
		// leaves a mark, since the epoch is part of its tag too.
		for _, idx := range s.index {
			s.commit(idx, 0)
		}
		s.affected = s.affected[:0]
	case storage.KindTerm:
		// Leadership marker: Now carries the term, UUID the leader's address.
		if term, _, _ := s.lineage(); rec.Now > term {
			s.marks = append(s.marks, TermMark{Term: rec.Now, Leader: rec.UUID, Base: s.seq})
		}
	}
	return 0
}

// foldIngest folds a client's report batch in. The updates counter is
// dedup-aware: only the first insertion of a (uuid, url|asn) key counts, so
// a client re-posting after a lost ack cannot inflate it.
func (s *store) foldIngest(rec *storage.Record) int {
	cs := s.users[rec.UUID]
	if cs == nil || cs.revoked {
		return unknownUUID
	}
	accepted, newKeys := 0, 0
	for i := range rec.Reports {
		r := &rec.Reports[i]
		if r.URL == "" || r.ASN == 0 {
			continue
		}
		rep := &storage.StoredReport{URL: r.URL, ASN: r.ASN, Stages: r.Stages, Tm: r.Tm, Tp: rec.Now}
		if s.file(cs, rep) {
			newKeys++
		}
		accepted++
	}
	if accepted == 0 {
		return 0
	}
	s.markMoved(cs)
	s.updates += int64(newKeys)
	if newKeys > 0 {
		// d changed: every slot this client votes in must refold, in every
		// AS, not just the ones in this batch.
		s.touchAll(cs)
	}
	for _, idx := range s.affected {
		s.commit(idx, 1)
	}
	s.affected = s.affected[:0]
	return accepted
}

// markMoved puts cs on the moved list: its section of the last snapshot no
// longer reads as its state. Only a store with a directory snapshots, so no
// other keeps the list. Caller holds s.mu.
func (s *store) markMoved(cs *clientState) {
	if !cs.moved && s.opts.Dir != "" {
		cs.moved = true
		s.moved = append(s.moved, cs)
	}
}

// lineage returns the highest term in the stream, its leader address, and
// the stream position it began at; zeros are the founding lineage of a
// stream that predates any promotion. Caller holds s.mu.
func (s *store) lineage() (term int64, leader string, base uint64) {
	if len(s.marks) == 0 {
		return 0, "", 0
	}
	m := s.marks[len(s.marks)-1]
	return m.Term, m.Leader, m.Base
}

func (s *store) termState() (int64, string, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lineage()
}

// termAt returns the lineage in effect for the stream prefix [0, pos): the
// last term record strictly below pos. (0, "") is the founding lineage.
func (s *store) termAt(pos uint64) (term int64, leader string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range s.marks {
		if m.Base >= pos {
			break
		}
		term, leader = m.Term, m.Leader
	}
	return term, leader
}

// reset wipes the store to empty — log truncated, snapshot removed, feed
// and in-memory state fresh, latched errors cleared — so the node can
// resync a new leader's stream from sequence zero. Replaying that stream
// rebuilds not just the aggregate state but the exact version counters
// behind validator tags, which is what makes replicas byte-identical after
// a heal.
func (s *store) reset() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// The compaction in flight, if any, finishes first; its error is cleared
	// with the rest below.
	s.awaitCompactionLocked()
	if s.log != nil {
		if err := s.log.Truncate(0); err != nil {
			return err
		}
	}
	if s.opts.Dir != "" {
		for _, path := range []string{s.snapPath(), s.nextPath(), storage.SealedPath(s.walPath())} {
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}
	if s.feed != nil {
		s.feed.Reset()
	}
	s.users = make(map[string]*clientState)
	s.indexMu.Lock()
	s.index = make(map[int]*asIndex)
	s.indexMu.Unlock()
	s.updates, s.seq, s.marks = 0, 0, nil
	s.revEpoch.Store(0)
	s.refolds.Store(0)
	s.encodes.Store(0)
	// The scratch holds the old users and their sections of a snapshot that
	// no longer exists: drop it all, with the moved list and the capture.
	s.moved, s.capture, s.snap = nil, capture{}, snapshotScratch{}
	s.sinceSnap = 0
	s.lastErr = nil
	return nil
}

// A compaction moves the state into a snapshot in two halves. Under s.mu,
// startCompactionLocked seals the log — the active file becomes the sealed
// segment and appends continue in a fresh one — and captures what the
// snapshot needs (restore.go); s.mu is then released, and compact runs on
// its own goroutine. At most one is in flight.
//
// compact writes the snapshot under nextSnapshotName, deletes the sealed
// segment, and only then moves the snapshot into place, each step synced. At
// every point recovery reads the directory exactly (settleSnapshot): before
// the segment is deleted it replays the old snapshot, the segment and the
// active log, and drops a next snapshot; after, the next snapshot is the
// store's and only the active log is replayed on it. Had the snapshot
// replaced the old one while the segment was still there, recovery could not
// tell whether the segment's records were in it, and replaying them twice
// moves the version counters behind validator tags.

// compactStep names a point in compact for a test's compactHook.
type compactStep int

const (
	compactWrite     compactStep = iota // captured, about to stream the next snapshot
	compactWritten                      // next snapshot written; sealed segment still there
	compactCommitted                    // sealed segment deleted; next snapshot not yet in place
)

// startCompactionLocked seals the log, captures and starts the compactor. A
// failure to seal latches like a failed append. Caller holds s.mu, and no
// compaction is in flight.
func (s *store) startCompactionLocked() {
	if err := s.log.Seal(); err != nil {
		s.lastErr = err
		return
	}
	s.sinceSnap = 0
	c := s.captureLocked()
	s.compacting = true
	go func() { s.compacted <- s.compact(c) }()
}

// compact is the compactor: it encodes the snapshot c captured and makes it
// the store's. It never takes s.mu.
func (s *store) compact(c *capture) error {
	if err := s.step(compactWrite); err != nil {
		c.clear()
		return err
	}
	if err := s.writeSnapshot(c, s.nextPath()); err != nil {
		return err
	}
	if err := s.step(compactWritten); err != nil {
		return err
	}
	if err := storage.RemoveSealed(s.walPath()); err != nil {
		return err
	}
	if err := s.step(compactCommitted); err != nil {
		return err
	}
	return storage.SyncRename(s.nextPath(), s.snapPath())
}

func (s *store) step(at compactStep) error {
	if s.compactHook == nil {
		return nil
	}
	return s.compactHook(at)
}

// pollCompactionLocked takes the verdict of a compaction that has finished,
// and latches its error like a failed append's: the next mutation is
// rejected. Caller holds s.mu.
func (s *store) pollCompactionLocked() {
	if !s.compacting {
		return
	}
	select {
	case err := <-s.compacted:
		s.endCompactionLocked(err)
	default:
	}
}

// awaitCompactionLocked is pollCompactionLocked that waits for the verdict.
// The compactor never takes s.mu, so waiting under it cannot deadlock.
func (s *store) awaitCompactionLocked() {
	if s.compacting {
		s.endCompactionLocked(<-s.compacted)
	}
}

// endCompactionLocked takes a compaction's verdict. Caller holds s.mu.
func (s *store) endCompactionLocked(err error) {
	s.compacting = false
	if err != nil && s.lastErr == nil {
		s.lastErr = err
	}
}

// err returns the latched durability error, if any.
func (s *store) err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pollCompactionLocked()
	return s.lastErr
}

// tearNext arms the WAL torn-write fault hook for the next append. Reports
// whether a log was present to arm.
func (s *store) tearNext(keep int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return false
	}
	s.log.TearNext(keep)
	return true
}

// close finishes the compaction in flight, and one the threshold asked for
// while it ran, then closes the log: a closed store's directory holds its
// snapshot, no sealed segment, and fewer than SnapshotEvery logged records,
// and no compactor is left running.
func (s *store) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return s.lastErr
	}
	s.awaitCompactionLocked()
	if s.lastErr == nil && s.opts.SnapshotEvery > 0 && s.sinceSnap >= s.opts.SnapshotEvery {
		s.startCompactionLocked()
		s.awaitCompactionLocked()
	}
	if err := s.log.Close(); err != nil {
		return err
	}
	s.log = nil
	return s.lastErr
}
