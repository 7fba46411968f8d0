package globaldb

import (
	"cmp"
	"slices"
	"strings"
	"time"

	"csaw/internal/globaldb/storage"
)

// Snapshot encode/restore. encodeSnapshot writes everything a restart must
// reproduce — users, reports, the dedup-aware updates counter, the
// revocation epoch, and each AS index's version counter. Restoring the
// exact counters (rather than replaying writes and recomputing) is what
// keeps validator tags stable across a restart: a tag names a (version,
// revocation-epoch) pair, so a client that fetched before the crash must see
// the same tag for the same aggregation after it.
//
// The store keeps reports as storage.StoredReport and stages as
// storage.Stage, so the only conversion left between the JSON API and the
// record stream is the report's measurement time: time.Time on the wire,
// UnixNano in records.

// nanoOf converts a timestamp for the record stream. The zero time maps to
// 0 (time.Time{}.UnixNano() is outside the representable range); a real
// instant exactly at the 1970 epoch never occurs under the vtime clock.
func nanoOf(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// timeOf inverts nanoOf. The .UTC() matters: time.Unix returns a
// Local-zone instant, and a zone change would alter the JSON encoding of
// every served body even though the instant is the same.
func timeOf(n int64) time.Time {
	if n == 0 {
		return time.Time{}
	}
	return time.Unix(0, n).UTC()
}

func reportsToStorage(rs []Report) []storage.Report {
	out := make([]storage.Report, len(rs))
	for i, r := range rs {
		out[i] = storage.Report{URL: r.URL, ASN: r.ASN, Stages: r.Stages, Tm: nanoOf(r.Tm)}
	}
	return out
}

// A compaction runs in two halves (store.go has the protocol). Under s.mu,
// captureLocked copies out what the snapshot needs of the store's mutable
// state: the counters, the AS version counters, and each moved user's uuid,
// revoked flag and placed reports, of which the compactor reads the report.
// Stored reports are immutable once filed — a re-report replaces the pointer
// in the store's copy — so the capture stays valid whatever the store does
// next. The compactor then streams the snapshot to its file from the capture
// and the last snapshot file without the lock.

// capture is one compaction's input. The store fills it under s.mu while no
// compaction is in flight and the compactor reads and empties it; its slices
// are kept for the next one (clear says how much).
type capture struct {
	updates, revEpoch int64
	users             int         // users in the store
	moved             []movedUser // every user whose section no longer reads as its state
	reports           []placed    // the moved users' reports, each user's a run
	ases              []storage.ASVersion
}

// movedUser is one moved user's entry; its reports are reports[from:to].
type movedUser struct {
	uuid     string
	revoked  bool
	from, to int
}

// clear drops the capture's references — a replaced report is garbage once
// the compaction that captured it is done — and keeps its storage for the
// next capture, unless it is more than twice what this one used: a store's
// first compaction captures every user, and the room it grew stays
// reachable otherwise, though later compactions capture only the users
// that moved.
func (c *capture) clear() {
	c.moved = trim(c.moved)
	c.reports = trim(c.reports)
	c.ases = c.ases[:0]
}

// trim empties s, keeping its storage unless that is more than twice its
// length.
func trim[T any](s []T) []T {
	if cap(s) > 2*len(s) {
		return nil
	}
	clear(s)
	return s[:0]
}

// snapshotScratch is the compactor's storage, kept across compactions so
// that a compaction encodes only the users that moved since the last one
// and allocates nothing once it has grown. users is every user's section of
// the last snapshot file, in uuid order: between compactions the store
// holds where each user's bytes lie, not the bytes. The next snapshot
// streams out through w — each moved user encoded into enc, every other
// user's section copied from the last file — and its sections are listed in
// next; then users and next trade places. w holds a chunk of each file.
type snapshotScratch struct {
	users, next []section
	enc         []byte
	w           storage.SnapshotWriter
}

// section is one user's entry in the last snapshot file: uuid, revoked
// flag, report count and reports.
type section struct {
	uuid string
	at   storage.Span
}

// captureLocked fills s.capture with what a snapshot of the current state
// needs and empties the moved list. Caller holds s.mu, and no compaction is
// in flight.
func (s *store) captureLocked() *capture {
	c := &s.capture
	c.updates, c.revEpoch, c.users = s.updates, s.revEpoch.Load(), len(s.users)
	for _, cs := range s.moved {
		from := len(c.reports)
		c.reports = append(c.reports, cs.reports...)
		c.moved = append(c.moved, movedUser{uuid: cs.uuid, revoked: cs.revoked, from: from, to: len(c.reports)})
		cs.moved = false
	}
	clear(s.moved)
	s.moved = s.moved[:0]
	for asn, idx := range s.index {
		c.ases = append(c.ases, storage.ASVersion{ASN: asn, Version: idx.ver}) //lint:allow-maporder writeSnapshot sorts them by ASN
	}
	return c
}

// writeSnapshot streams the snapshot c describes to path: users in uuid
// order, each one's reports in dedup-key order, AS versions by ASN, so the
// snapshot is a deterministic function of store contents. A user that did
// not move is copied from the last snapshot file — a run of such users in
// one copy — and only the moved ones are encoded, so the cost is the moved
// users plus one pass over the last file, whose checksum is checked on the
// way. It empties c. The compactor's own: it reads nothing the lock guards.
func (s *store) writeSnapshot(c *capture, path string) error {
	defer c.clear()
	sc := &s.snap
	slices.SortFunc(c.moved, func(a, b movedUser) int { return strings.Compare(a.uuid, b.uuid) })
	kept, next, w := sc.users, sc.next[:0], &sc.w
	base := ""
	if len(kept) > 0 {
		base = s.snapPath()
	}
	if err := w.Create(path, base, c.updates, c.revEpoch, c.users); err != nil {
		return err
	}
	var run storage.Span // kept sections not yet copied, bound for w.Offset()
	for i, j := 0, 0; i < len(kept) || j < len(c.moved); {
		if j == len(c.moved) || (i < len(kept) && kept[i].uuid < c.moved[j].uuid) {
			u := kept[i]
			i++
			if u.at.Off != run.End {
				w.Copy(run)
				run.Off = u.at.Off
			}
			at := w.Offset() + u.at.Off - run.Off
			next = append(next, section{u.uuid, storage.Span{Off: at, End: at + u.at.End - u.at.Off}})
			run.End = u.at.End
			continue
		}
		m := &c.moved[j]
		j++
		if i < len(kept) && kept[i].uuid == m.uuid {
			i++ // m's old section
		}
		w.Copy(run)
		run.Off = run.End
		off := w.Offset()
		sc.enc = appendUser(sc.enc[:0], m, c.reports[m.from:m.to])
		w.Append(sc.enc)
		next = append(next, section{m.uuid, storage.Span{Off: off, End: w.Offset()}})
		s.encodes.Add(1)
	}
	w.Copy(run)
	slices.SortFunc(c.ases, func(a, b storage.ASVersion) int { return cmp.Compare(a.ASN, b.ASN) })
	if err := w.Commit(c.ases); err != nil {
		return err
	}
	sc.users, sc.next = next, sc.users
	return nil
}

// appendUser encodes m's entry, its reports by dedup key.
func appendUser(b []byte, m *movedUser, reports []placed) []byte {
	b = storage.AppendSnapshotUser(b, m.uuid, m.revoked, len(reports))
	slices.SortFunc(reports, byKey)
	for i := range reports {
		b = storage.AppendStoredReport(b, reports[i].rep)
	}
	return b
}

// restoreState fills an empty store from a snapshot — every report filed,
// then each AS's view folded once, as one record would — and adopts users,
// st.Users[i]'s section of the snapshot file being users[i], as the last
// snapshot's sections. Runs before the store is published.
func (s *store) restoreState(st *storage.State, users []storage.Span) {
	s.updates = st.Updates
	s.revEpoch.Store(st.RevEpoch)
	for i := range st.Users {
		us := &st.Users[i]
		cs := &clientState{uuid: us.UUID, revoked: us.Revoked}
		if n := len(us.Reports); n > 0 {
			cs.reports = make([]placed, 0, n)
		}
		s.users[us.UUID] = cs
		for j := range us.Reports {
			rep := &us.Reports[j]
			s.file(cs, rep)
		}
	}
	for _, idx := range s.affected {
		s.commit(idx, 0)
	}
	s.affected = s.affected[:0]
	// Restore the exact version counters: tags must match the pre-snapshot
	// server's.
	for _, av := range st.ASVersions {
		if idx := s.index[av.ASN]; idx != nil {
			idx.ver = av.Version
		}
	}
	// Every restored user's section of the file reads as its state, so the
	// first compaction encodes only the users that move after this. The
	// sections must be in uuid order, as every snapshot the store writes
	// has them; a file whose users are not is encoded anew.
	sc := &s.snap
	sc.users = make([]section, len(users))
	for i, sp := range users {
		uuid := st.Users[i].UUID
		if i > 0 && uuid <= sc.users[i-1].uuid {
			sc.users = nil
			for _, cs := range s.users {
				s.markMoved(cs)
			}
			return
		}
		sc.users[i] = section{uuid, sp}
	}
}
