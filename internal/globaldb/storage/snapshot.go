package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// snapshotMagic versions the snapshot file format. Bump it on incompatible
// State changes; ReadSnapshot rejects files with a different header rather
// than misparsing them.
const snapshotMagic = "CSAWSNAP2\n"

// snapshotHeaderLen is what precedes the payload: the magic, then the log's
// frame header (uint32 LE payload length, uint32 LE CRC32 of the payload).
const snapshotHeaderLen = len(snapshotMagic) + frameHeaderLen

// State is the full store state a snapshot captures. Every slice is sorted
// (users by UUID, reports by their dedup key, AS versions by ASN) so a
// snapshot is a deterministic function of store contents.
type State struct {
	Users    []UserState
	Updates  int64
	RevEpoch int64
	// ASVersions preserves each AS index's version counter. Restoring the
	// exact counters (instead of recomputing) is what keeps ETags — which
	// name a (version, revocation-epoch) pair — stable across a restart.
	ASVersions []ASVersion
}

// UserState is one registered client's snapshot.
type UserState struct {
	UUID    string
	Revoked bool
	Reports []StoredReport
}

// StoredReport is one stored measurement; Tm and Tp are UnixNano.
type StoredReport struct {
	URL    string
	ASN    int
	Stages []Stage
	Tm     int64
	Tp     int64
}

// ASVersion records one AS index's version counter.
type ASVersion struct {
	ASN     int
	Version int64
}

// The snapshot payload is written with the record codec's primitives —
// varint integers, uvarint counts and uvarint-prefixed strings, the report
// fields of an ingest record with their shifted stage count — in this order:
//
//	updates, revocation epoch, user count
//	per user:   uuid, revoked (one byte), report count
//	per report: url, asn, tm, stage count + 1 (0: nil), stages; tp
//	AS version count, per AS: asn, version
//
// A snapshot is built front to back by the Append functions below into one
// buffer the caller may keep across snapshots — AppendSnapshotHead, then per
// user AppendSnapshotUser and that user's AppendStoredReport calls, then
// AppendASVersions — and written by WriteSnapshotFile. WriteSnapshot is the
// same sequence over a State.

// AppendSnapshotHead starts a snapshot in dst: the magic, room for the frame
// header WriteSnapshotFile fills in, and the store-wide counters. users user
// entries must follow.
func AppendSnapshotHead(dst []byte, updates, revEpoch int64, users int) []byte {
	dst = append(dst, snapshotMagic...)
	dst = append(dst, make([]byte, frameHeaderLen)...)
	dst = binary.AppendVarint(dst, updates)
	dst = binary.AppendVarint(dst, revEpoch)
	return binary.AppendUvarint(dst, uint64(users))
}

// AppendSnapshotUser appends one user's entry; its reports must follow.
func AppendSnapshotUser(dst []byte, uuid string, revoked bool, reports int) []byte {
	dst = appendString(dst, uuid)
	if revoked {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	return binary.AppendUvarint(dst, uint64(reports))
}

// AppendStoredReport appends one report of the user before it.
func AppendStoredReport(dst []byte, r *StoredReport) []byte {
	dst = appendReport(dst, r.URL, r.ASN, r.Tm, r.Stages)
	return binary.AppendVarint(dst, r.Tp)
}

// AppendASVersions ends a snapshot with the AS version counters.
func AppendASVersions(dst []byte, vs []ASVersion) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = binary.AppendVarint(dst, int64(v.ASN))
		dst = binary.AppendVarint(dst, v.Version)
	}
	return dst
}

// appendState is the whole of st as a snapshot.
func appendState(dst []byte, st *State) []byte {
	dst = AppendSnapshotHead(dst, st.Updates, st.RevEpoch, len(st.Users))
	for i := range st.Users {
		us := &st.Users[i]
		dst = AppendSnapshotUser(dst, us.UUID, us.Revoked, len(us.Reports))
		for j := range us.Reports {
			dst = AppendStoredReport(dst, &us.Reports[j])
		}
	}
	return AppendASVersions(dst, st.ASVersions)
}

// WriteSnapshot writes st to path as WriteSnapshotFile does.
func WriteSnapshot(path string, st *State) error {
	return WriteSnapshotFile(path, appendState(nil, st))
}

// WriteSnapshotFile seals snap — a snapshot begun by AppendSnapshotHead — and
// writes it to path atomically and durably. The bytes go to a temp file in
// the same directory, which is synced, then renamed over path, and then the
// directory is synced: a reader never observes a half-written snapshot, and
// once this returns the snapshot survives a power loss — so the caller may
// truncate the log it replaces.
func WriteSnapshotFile(path string, snap []byte) error {
	if len(snap) < snapshotHeaderLen || string(snap[:len(snapshotMagic)]) != snapshotMagic {
		return errors.New("storage: snapshot buffer not begun by AppendSnapshotHead")
	}
	sealFrame(snap[len(snapshotMagic):])

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snapshot-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(snap)
	if err == nil {
		err = tmp.Sync()
	}
	if closeErr := tmp.Close(); err == nil {
		err = closeErr
	}
	if err != nil {
		removeErr := os.Remove(tmp.Name())
		return fmt.Errorf("storage: write snapshot: %v (remove: %v)", err, removeErr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir makes the directory's entries — a rename into it — durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		closeErr := d.Close()
		return fmt.Errorf("storage: sync %s: %v (close: %v)", dir, err, closeErr)
	}
	return d.Close()
}

// SyncRename renames from to to and makes the rename durable: the file the
// snapshot protocol moves into place survives a power loss once it returns.
func SyncRename(from, to string) error {
	if err := os.Rename(from, to); err != nil {
		return err
	}
	return syncDir(filepath.Dir(to))
}

// ReadSnapshot reads and validates the snapshot at path. A missing file
// returns (nil, nil): recovery starts from an empty store.
func ReadSnapshot(path string) (*State, error) {
	st, _, _, err := ReadSnapshotFile(path)
	return st, err
}

// Span is where one user's entry lies in a snapshot file's bytes:
// b[Off:End] holds its uuid, revoked flag, report count and reports, exactly
// as AppendSnapshotUser and its AppendStoredReport calls wrote them.
type Span struct{ Off, End int }

// ReadSnapshotFile is ReadSnapshot that also returns the file's bytes and
// each user's entry in them (users[i] is st.Users[i]'s), so a store restored
// from the file can copy an unchanged user's entry into its next snapshot
// instead of encoding it again.
func ReadSnapshotFile(path string) (st *State, b []byte, users []Span, err error) {
	b, err = os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, nil, nil
		}
		return nil, nil, nil, err
	}
	if st, err = decodeSnapshotSpans(b, &users); err != nil {
		return nil, nil, nil, err
	}
	return st, b, users, nil
}

// decodeSnapshot parses a snapshot file's bytes. Anything but a whole,
// checksummed payload of this version that decodes to its last byte is
// ErrCorrupt.
func decodeSnapshot(b []byte) (*State, error) { return decodeSnapshotSpans(b, nil) }

// decodeSnapshotSpans is decodeSnapshot that, when users is not nil, also
// sets *users to each user's Span in b.
func decodeSnapshotSpans(b []byte, users *[]Span) (*State, error) {
	if len(b) < snapshotHeaderLen || string(b[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("%w: bad snapshot header", ErrCorrupt)
	}
	file := b
	b = b[len(snapshotMagic):]
	n := binary.LittleEndian.Uint32(b[0:4])
	sum := binary.LittleEndian.Uint32(b[4:8])
	payload := b[frameHeaderLen:]
	if uint64(len(payload)) != uint64(n) {
		return nil, fmt.Errorf("%w: snapshot length %d != header %d", ErrCorrupt, len(payload), n)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("%w: snapshot checksum mismatch", ErrCorrupt)
	}
	d := decoder{buf: payload}
	st := &State{Updates: d.varint(), RevEpoch: d.varint()}
	// The decoder's buffer is always a suffix of the file's bytes.
	at := func() int { return len(file) - len(d.buf) }
	if n := d.count(); n > 0 {
		st.Users = make([]UserState, n)
		if users != nil {
			*users = make([]Span, n)
		}
		for i := 0; i < n && d.err == nil; i++ {
			off := at()
			us := &st.Users[i]
			us.UUID, us.Revoked = d.string(), d.bool()
			if m := d.count(); m > 0 {
				us.Reports = make([]StoredReport, m)
				for j := 0; j < m && d.err == nil; j++ {
					r := d.report()
					us.Reports[j] = StoredReport{URL: r.URL, ASN: r.ASN, Stages: r.Stages, Tm: r.Tm, Tp: d.varint()}
				}
			}
			if users != nil {
				(*users)[i] = Span{off, at()}
			}
		}
	}
	if n := d.count(); n > 0 {
		st.ASVersions = make([]ASVersion, n)
		for i := 0; i < n && d.err == nil; i++ {
			st.ASVersions[i] = ASVersion{ASN: int(d.varint()), Version: d.varint()}
		}
	}
	if err := d.end(); err != nil {
		return nil, fmt.Errorf("snapshot payload: %w", err)
	}
	return st, nil
}
