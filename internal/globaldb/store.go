package globaldb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
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
	// is written as a snapshot and the log truncated, bounding both recovery
	// time and log size. A compaction encodes only the users whose state
	// moved since the last one and copies every other user's bytes from it,
	// so under the write lock it costs those users plus one copy and one
	// write of the snapshot, not an encoding of the whole store. 0 selects
	// the default (4096); negative disables compaction.
	SnapshotEvery int
	// Replicated attaches an in-memory replication feed mirroring every
	// logged record, served on PathRepl for followers to pull.
	Replicated bool
}

const (
	defaultSnapshotEvery = 4096
	walFileName          = "wal.log"
	snapshotFileName     = "snapshot"
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
// neither (NewServer) is the same store with both nil: apply skips straight
// to the fold and never encodes the record.
//
// Locks (see DESIGN.md "scale architecture"): mu is the single write lock.
// It serializes apply, compaction, reset and close, and is the only guard of
// the users table, every client's state, each AS's slot table and reporter
// lists, the lineage and the durability fields; stats and snapshot encoding
// take it too. A write holds it for the whole record — log append, feed,
// fold — and inside it, once per AS the record touches, that AS's asIndex.mu
// for the refold that ends the record (commit). The read side never takes
// mu: a fetch goes indexMu (read, to find the AS) → asIndex.mu, under which
// the tag and every slot's entry were last written, so fetches of other ASes
// proceed while a write folds, and a fetch of the written AS waits for one
// commit.
type store struct {
	mu   sync.Mutex
	opts StoreOptions // SnapshotEvery resolved to its default at open

	log       *storage.Log  // nil: not durable
	feed      *storage.Feed // nil: not replicated
	sinceSnap int           // records logged since the last compaction
	lastErr   error         // latched durability error: every later mutation is rejected
	snap      snapshotScratch

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
	// listed says the user has its place in the snapshot order, and kept that
	// its section of the last snapshot is still its state: file (index.go)
	// and fold's revocation clear it.
	listed, kept bool
	// reports maps "url|asn" to its report, in the slot it is filed in. It
	// is made at the first report: a client that has reported nothing holds
	// no table.
	reports map[string]placed
}

func reportKey(url string, asn int) string { return url + "|" + strconv.Itoa(asn) }

// errNotDurable is returned by every mutation once durability is lost; the
// server maps it to 503.
var errNotDurable = errors.New("globaldb: write-ahead log unavailable")

// unknownUUID is apply's result for an ingest naming an unregistered or
// revoked uuid (the record is still logged and streamed; it folds to a
// no-op on every replica alike).
const unknownUUID = -1

// openStore opens (or creates) the store described by o. With o.Dir set,
// state is recovered from the newest snapshot plus the log tail: a corrupt
// tail (torn write from a crash) is truncated at the last valid record; any
// other error aborts the open.
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
	st, err := storage.ReadSnapshot(s.snapPath())
	if err != nil {
		return nil, fmt.Errorf("globaldb: recover snapshot: %w", err)
	}
	if st != nil {
		s.restoreState(st)
	} else {
		// With no snapshot the log is the complete history, so replaying it
		// with the feed attached rebuilds the feed record for record and
		// followers' pull offsets stay valid across a restart. Once a snapshot
		// exists the prefix is gone and a restarted primary's feed restarts at
		// zero (replica sets never compact, for exactly this reason).
		s.feed = feed
	}
	// Replay is apply with the log still detached: fold (and feed) only.
	good, err := storage.ReplayFile(s.walPath(), func(rec *storage.Record) error {
		_, err := s.apply(rec)
		return err
	})
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
	s.log, s.feed, s.sinceSnap = log, feed, int(s.seq)
	return s, nil
}

func (s *store) walPath() string  { return filepath.Join(s.opts.Dir, walFileName) }
func (s *store) snapPath() string { return filepath.Join(s.opts.Dir, snapshotFileName) }

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
	if s.lastErr != nil {
		return 0, errNotDurable
	}
	if s.log != nil {
		if err := s.log.Append(rec); err != nil {
			s.lastErr = err
			return 0, errNotDurable
		}
		s.sinceSnap++
	}
	if s.feed != nil {
		s.feed.Append(rec)
	}
	n = s.fold(rec)
	s.seq++
	// Compact only after the fold: the snapshot must contain the mutation
	// whose record the truncation is about to drop.
	if s.log != nil && s.opts.SnapshotEvery > 0 && s.sinceSnap >= s.opts.SnapshotEvery {
		s.compactLocked()
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
			s.users[rec.UUID] = &clientState{uuid: rec.UUID}
		}
	case storage.KindIngest:
		return s.foldIngest(rec)
	case storage.KindRevoke:
		s.revEpoch.Add(1)
		if cs := s.users[rec.UUID]; cs != nil && !cs.revoked {
			cs.revoked, cs.kept = true, false
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
		if s.file(cs, reportKey(r.URL, r.ASN), rep) {
			newKeys++
		}
		accepted++
	}
	if accepted == 0 {
		return 0
	}
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
	if s.log != nil {
		if err := s.log.Truncate(0); err != nil {
			return err
		}
	}
	if s.opts.Dir != "" {
		if err := os.Remove(s.snapPath()); err != nil && !os.IsNotExist(err) {
			return err
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
	// no longer exists: drop it all.
	s.snap = snapshotScratch{}
	s.sinceSnap = 0
	s.lastErr = nil
	return nil
}

// compactLocked writes the current state as a snapshot and truncates the
// log. The snapshot rename is atomic and the log is only truncated after
// the snapshot is synced to disk, so a crash between the two replays the
// (now redundant) log tail onto the snapshot — reapplying an ingest is
// idempotent thanks to the dedup key. A failure latches like a failed
// append. Caller holds s.mu.
func (s *store) compactLocked() {
	if err := storage.WriteSnapshotFile(s.snapPath(), s.encodeSnapshot()); err != nil {
		s.lastErr = err
		return
	}
	if err := s.log.Truncate(0); err != nil {
		s.lastErr = err
		return
	}
	s.sinceSnap = 0
}

// err returns the latched durability error, if any.
func (s *store) err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
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

func (s *store) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return s.lastErr
	}
	if err := s.log.Close(); err != nil {
		return err
	}
	s.log = nil
	return s.lastErr
}
