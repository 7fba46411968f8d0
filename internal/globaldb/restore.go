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
// captureLocked copies out what the encoder reads of the store's mutable
// state: the counters, the AS version counters, and each moved user's uuid,
// revoked flag and placed reports, of which the compactor reads the dedup
// key and the report. Stored reports are immutable — a re-report replaces
// the pointer in the store's copy — so the capture stays valid whatever the
// store does next. The compactor then encodes the snapshot from the capture
// and the last snapshot's bytes without the lock.

// capture is one compaction's input. The store fills it under s.mu while no
// compaction is in flight and the compactor reads and empties it; its slices
// are kept for the next one.
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

// snapshotScratch is the compactor's storage, kept across compactions so a
// snapshot allocates nothing once they have grown, and so a compaction
// encodes only the users that moved since the last one. buf holds the last
// snapshot and users every one of its users' section of buf, in uuid order.
// The next snapshot is encoded into spare and its sections listed in next,
// copying the section of every user that did not move; then each pair trades
// places.
type snapshotScratch struct {
	buf, spare  []byte
	users, next []section
}

// section is one user's entry in the last snapshot, buf[off:end]: uuid,
// revoked flag, report count and reports.
type section struct {
	uuid     string
	off, end int
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
		c.ases = append(c.ases, storage.ASVersion{ASN: asn, Version: idx.ver}) //lint:allow-maporder encodeSnapshot sorts them by ASN
	}
	return c
}

// encodeSnapshot encodes the snapshot c describes: users in uuid order, each
// one's reports in dedup-key order, AS versions by ASN, so the snapshot is a
// deterministic function of store contents. A user that did not move is
// copied from the last snapshot — a run of such users in one copy — and only
// the moved ones are encoded, so the cost is the moved users plus one copy
// of the snapshot's bytes. It empties c. The compactor's own: it reads
// nothing the lock guards.
func (s *store) encodeSnapshot(c *capture) []byte {
	sc := &s.snap
	slices.SortFunc(c.moved, func(a, b movedUser) int { return strings.Compare(a.uuid, b.uuid) })
	prev, kept := sc.buf, sc.users
	b := storage.AppendSnapshotHead(sc.spare[:0], c.updates, c.revEpoch, c.users)
	next := sc.next[:0]
	from, to := 0, 0 // prev[from:to]: kept sections not yet copied, bound for len(b)
	for i, j := 0, 0; i < len(kept) || j < len(c.moved); {
		if j == len(c.moved) || (i < len(kept) && kept[i].uuid < c.moved[j].uuid) {
			u := kept[i]
			i++
			if u.off != to {
				b = append(b, prev[from:to]...)
				from = u.off
			}
			at := len(b) + u.off - from
			next = append(next, section{u.uuid, at, at + u.end - u.off})
			to = u.end
			continue
		}
		m := &c.moved[j]
		j++
		if i < len(kept) && kept[i].uuid == m.uuid {
			i++ // m's old section
		}
		b = append(b, prev[from:to]...)
		from = to
		off := len(b)
		b = appendUser(b, m, c.reports[m.from:m.to])
		next = append(next, section{m.uuid, off, len(b)})
		s.encodes.Add(1)
	}
	b = append(b, prev[from:to]...)
	slices.SortFunc(c.ases, func(a, b storage.ASVersion) int { return cmp.Compare(a.ASN, b.ASN) })
	b = storage.AppendASVersions(b, c.ases)
	// Drop the capture's references: a replaced report is garbage now.
	clear(c.moved)
	clear(c.reports)
	c.moved, c.reports, c.ases = c.moved[:0], c.reports[:0], c.ases[:0]
	sc.buf, sc.spare = b, prev
	sc.users, sc.next = next, sc.users
	return b
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
// then each AS's view folded once, as one record would — and adopts the
// snapshot file's bytes as the last snapshot, users[i] being st.Users[i]'s
// section of file. Runs before the store is published.
func (s *store) restoreState(st *storage.State, file []byte, users []storage.Span) {
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
		sc.users[i] = section{uuid, sp.Off, sp.End}
	}
	sc.buf = file
}
