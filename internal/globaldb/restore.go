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
// compactions so a snapshot allocates nothing once they have grown: the
// encoding itself, and the slices that hold the sorts.
type snapshotScratch struct {
	buf     []byte
	users   []*clientState
	reports []keyedReport
	ases    []storage.ASVersion
}

type keyedReport struct {
	key string
	rep *storage.StoredReport
}

// encodeSnapshot encodes the full store as a snapshot straight from its
// tables: users in uuid order, each one's reports in dedup-key order, AS
// versions by ASN, so the snapshot is a deterministic function of store
// contents. Caller holds s.mu.
func (s *store) encodeSnapshot() []byte {
	sc := &s.snap
	sc.users = sc.users[:0]
	for _, cs := range s.users {
		sc.users = append(sc.users, cs)
	}
	slices.SortFunc(sc.users, func(a, b *clientState) int { return strings.Compare(a.uuid, b.uuid) })
	b := storage.AppendSnapshotHead(sc.buf[:0], s.updates, s.revEpoch.Load(), len(sc.users))
	for _, cs := range sc.users {
		b = storage.AppendSnapshotUser(b, cs.uuid, cs.revoked, len(cs.reports))
		sc.reports = sc.reports[:0]
		for k, p := range cs.reports {
			sc.reports = append(sc.reports, keyedReport{k, p.rep})
		}
		slices.SortFunc(sc.reports, func(a, b keyedReport) int { return strings.Compare(a.key, b.key) })
		for _, kr := range sc.reports {
			b = storage.AppendStoredReport(b, kr.rep)
		}
	}
	sc.ases = sc.ases[:0]
	for asn, idx := range s.index {
		sc.ases = append(sc.ases, storage.ASVersion{ASN: asn, Version: idx.ver})
	}
	slices.SortFunc(sc.ases, func(a, b storage.ASVersion) int { return cmp.Compare(a.ASN, b.ASN) })
	sc.buf = storage.AppendASVersions(b, sc.ases)
	return sc.buf
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
