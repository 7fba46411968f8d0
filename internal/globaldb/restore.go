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

// snapshotScratch is compaction's storage, kept by the store across
// compactions so a snapshot allocates nothing once they have grown, and so a
// compaction re-encodes only the users whose state moved since the last one.
// buf holds the last snapshot, and users every listed user in uuid order with
// its section of buf: the bytes of its entry (uuid, revoked flag, report
// count, reports). The next snapshot is encoded into spare, copying the
// section of every user still kept, and the two then trade places.
type snapshotScratch struct {
	buf, spare []byte
	users      []section
	reports    []keyedReport
	ases       []storage.ASVersion
}

// section is one user's entry in the last snapshot, buf[off:end]. It is
// current while the user is kept.
type section struct {
	cs       *clientState
	off, end int
}

type keyedReport struct {
	key string
	rep *storage.StoredReport
}

// encodeSnapshot encodes the full store as a snapshot: users in uuid order,
// each one's reports in dedup-key order, AS versions by ASN, so the snapshot
// is a deterministic function of store contents. A user whose state has not
// moved since the last snapshot is copied from it — a run of such users in
// one copy — and only the others are encoded from their tables, so the cost
// is the moved users plus one copy of the snapshot's bytes. Caller holds s.mu.
func (s *store) encodeSnapshot() []byte {
	sc := &s.snap
	if len(sc.users) < len(s.users) {
		// Users joined: list them and re-sort. A section keeps its place in
		// buf wherever the sort moves it.
		for _, cs := range s.users {
			if !cs.listed {
				cs.listed = true
				sc.users = append(sc.users, section{cs: cs})
			}
		}
		slices.SortFunc(sc.users, func(a, b section) int { return strings.Compare(a.cs.uuid, b.cs.uuid) })
	}
	prev := sc.buf
	b := storage.AppendSnapshotHead(sc.spare[:0], s.updates, s.revEpoch.Load(), len(sc.users))
	from, to := 0, 0 // prev[from:to]: kept sections not yet copied, bound for len(b)
	for i := range sc.users {
		u := &sc.users[i]
		if u.cs.kept {
			if u.off != to {
				b = append(b, prev[from:to]...)
				from = u.off
			}
			at := len(b) + u.off - from
			u.off, u.end, to = at, at+u.end-u.off, u.end
			continue
		}
		b = append(b, prev[from:to]...)
		from = to
		u.off = len(b)
		b = sc.appendUser(b, u.cs)
		u.end = len(b)
		u.cs.kept = true
		s.encodes.Add(1)
	}
	b = append(b, prev[from:to]...)
	sc.ases = sc.ases[:0]
	for asn, idx := range s.index {
		sc.ases = append(sc.ases, storage.ASVersion{ASN: asn, Version: idx.ver})
	}
	slices.SortFunc(sc.ases, func(a, b storage.ASVersion) int { return cmp.Compare(a.ASN, b.ASN) })
	b = storage.AppendASVersions(b, sc.ases)
	sc.buf, sc.spare = b, prev
	return b
}

// appendUser encodes cs's entry from its tables, its reports by dedup key.
func (sc *snapshotScratch) appendUser(b []byte, cs *clientState) []byte {
	b = storage.AppendSnapshotUser(b, cs.uuid, cs.revoked, len(cs.reports))
	sc.reports = sc.reports[:0]
	for k, p := range cs.reports {
		sc.reports = append(sc.reports, keyedReport{k, p.rep})
	}
	slices.SortFunc(sc.reports, func(a, b keyedReport) int { return strings.Compare(a.key, b.key) })
	for _, kr := range sc.reports {
		b = storage.AppendStoredReport(b, kr.rep)
	}
	return b
}

// restoreState fills an empty store from a snapshot: every report filed,
// then each AS's view folded once, as one record would. Runs before the
// store is published.
func (s *store) restoreState(st *storage.State) {
	s.updates = st.Updates
	s.revEpoch.Store(st.RevEpoch)
	for i := range st.Users {
		us := &st.Users[i]
		cs := &clientState{uuid: us.UUID, revoked: us.Revoked, reports: make(map[string]placed, len(us.Reports))}
		s.users[us.UUID] = cs
		for j := range us.Reports {
			rep := &us.Reports[j]
			s.file(cs, reportKey(rep.URL, rep.ASN), rep)
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
}
