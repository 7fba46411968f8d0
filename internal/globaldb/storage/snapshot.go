package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
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
// A snapshot is streamed to its file front to back by a SnapshotWriter: the
// head at Create, then per user the bytes AppendSnapshotUser and that user's
// AppendStoredReport calls encode — or the user's entry copied from the last
// snapshot file by its Span — then the AS versions at Commit. WriteSnapshot
// is the same sequence over a State.

// AppendSnapshotHead starts a snapshot in dst: the magic, room for the frame
// header Commit fills in, and the store-wide counters. users user entries
// must follow.
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

// WriteSnapshot writes st to path as a SnapshotWriter does.
func WriteSnapshot(path string, st *State) error {
	var w SnapshotWriter
	if err := w.Create(path, "", st.Updates, st.RevEpoch, len(st.Users)); err != nil {
		return err
	}
	var b []byte
	for i := range st.Users {
		us := &st.Users[i]
		b = AppendSnapshotUser(b[:0], us.UUID, us.Revoked, len(us.Reports))
		for j := range us.Reports {
			b = AppendStoredReport(b, &us.Reports[j])
		}
		w.Append(b)
	}
	return w.Commit(st.ASVersions)
}

// snapshotChunk is the size of a SnapshotWriter's buffer and of its base
// reader's: what either holds of a snapshot at a time.
const snapshotChunk = 64 << 10

// SnapshotWriter streams a snapshot to a file, so that no snapshot-sized
// buffer is ever held: the payload goes out a chunk at a time, its length
// and checksum computed as it goes, and Commit fills in the frame header.
// User entries are appended encoded, or copied by their Span from a base
// snapshot file — the last snapshot, in which they have not changed — read
// front to back and checksummed in full on the way, copied bytes and
// skipped ones alike: Commit holds the base to its own frame header, so a
// snapshot built on a damaged one is never committed.
//
// The file is written under a temporary name in path's directory and
// renamed to path only once it is whole and synced: a reader never observes
// a half-written snapshot, and once Commit returns the snapshot survives a
// power loss. Errors are sticky, as bufio.Writer's are: the first one stops
// every later write, and Commit reports it. A writer makes one snapshot at a
// time and keeps its buffers for the next.
type SnapshotWriter struct {
	path string
	f    *os.File
	buf  []byte // bytes not yet written to f
	off  int    // file offset the next byte lands at
	crc  uint32 // of the payload appended so far
	err  error
	base snapshotReader
}

// Create starts a snapshot bound for path over the base snapshot file at
// base ("": none, nothing is copied): the head, then users user entries
// must follow, each one Append or Copy.
func (w *SnapshotWriter) Create(path, base string, updates, revEpoch int64, users int) error {
	if base != "" {
		if err := w.base.open(base); err != nil {
			return err
		}
	}
	f, err := os.CreateTemp(filepath.Dir(path), ".snapshot-*")
	if err != nil {
		return errors.Join(err, w.base.close())
	}
	if w.buf == nil {
		w.buf = make([]byte, 0, snapshotChunk)
	}
	w.path, w.f, w.err = path, f, nil
	w.buf = AppendSnapshotHead(w.buf[:0], updates, revEpoch, users)
	w.off = len(w.buf)
	w.crc = crc32.ChecksumIEEE(w.buf[snapshotHeaderLen:])
	return nil
}

// Offset is the file offset the next byte lands at: an entry appended or
// copied from here on has the Span [Offset before, Offset after).
func (w *SnapshotWriter) Offset() int { return w.off }

// Append appends p to the payload.
func (w *SnapshotWriter) Append(p []byte) {
	if w.err != nil {
		return
	}
	w.crc = crc32.Update(w.crc, crc32.IEEETable, p)
	w.off += len(p)
	if len(w.buf)+len(p) > cap(w.buf) {
		w.flush()
		if len(p) >= cap(w.buf) {
			if w.err == nil {
				_, w.err = w.f.Write(p)
			}
			return
		}
	}
	w.buf = append(w.buf, p...)
}

func (w *SnapshotWriter) flush() {
	if w.err == nil && len(w.buf) > 0 {
		_, w.err = w.f.Write(w.buf)
	}
	w.buf = w.buf[:0]
}

// Copy appends the base file's bytes at sp: the entries of one or more
// users, unchanged since the base was written. The base is read front to
// back: sp must not begin before the end of the span copied before it. An
// empty span copies nothing.
func (w *SnapshotWriter) Copy(sp Span) {
	if sp.Off == sp.End {
		return
	}
	if w.err == nil {
		w.err = w.base.skip(sp.Off)
	}
	for w.err == nil && w.base.off < sp.End {
		var p []byte
		if p, w.err = w.base.next(sp.End - w.base.off); w.err == nil {
			w.Append(p)
		}
	}
}

// Commit ends the snapshot with the AS versions, checks the base, fills in
// the frame header, syncs the file and moves it to path, syncing the
// directory. On an error — its own or one an earlier call latched — the
// snapshot is dropped: its temporary file is closed and removed.
func (w *SnapshotWriter) Commit(vs []ASVersion) error {
	if w.err == nil && w.base.f != nil {
		w.err = w.base.check()
	}
	if w.err == nil {
		at := len(w.buf)
		w.buf = AppendASVersions(w.buf, vs)
		w.crc = crc32.Update(w.crc, crc32.IEEETable, w.buf[at:])
		w.off += len(w.buf) - at
		w.flush()
	}
	if w.err == nil {
		var hdr [frameHeaderLen]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(w.off-snapshotHeaderLen))
		binary.LittleEndian.PutUint32(hdr[4:8], w.crc)
		_, w.err = w.f.WriteAt(hdr[:], int64(len(snapshotMagic)))
	}
	if w.err == nil {
		w.err = w.f.Sync()
	}
	if w.err == nil {
		w.err = w.base.close()
	}
	if w.err != nil {
		err := w.err
		w.drop()
		return fmt.Errorf("storage: write snapshot: %w", err)
	}
	f := w.f
	w.f = nil
	if err := f.Close(); err != nil {
		return fmt.Errorf("storage: write snapshot: %w", errors.Join(err, os.Remove(f.Name())))
	}
	return SyncRename(f.Name(), w.path)
}

// drop drops the snapshot in progress: its temporary file is closed and
// removed, and the base closed. Their errors are dropped with it: nothing
// depends on either file.
func (w *SnapshotWriter) drop() {
	_ = w.base.close()
	if w.f == nil {
		return
	}
	_ = w.f.Close()
	_ = os.Remove(w.f.Name())
	w.f, w.buf = nil, w.buf[:0]
}

// snapshotReader reads a SnapshotWriter's base file front to back,
// checksumming every byte it passes.
type snapshotReader struct {
	f      *os.File
	buf    []byte
	lo, hi int    // buf[lo:hi] is read from f and not yet passed
	off    int    // file offset of buf[lo]
	size   int    // file length the header declares
	sum    uint32 // payload checksum the header declares
	crc    uint32 // of the payload passed so far
}

// open opens the snapshot at path and reads its header. Anything but this
// version's magic is ErrCorrupt.
func (r *snapshotReader) open(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	var head [snapshotHeaderLen]byte
	_, err = io.ReadFull(f, head[:])
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		(err == nil && string(head[:len(snapshotMagic)]) != snapshotMagic) {
		err = fmt.Errorf("%w: bad snapshot header", ErrCorrupt)
	}
	if err != nil {
		return errors.Join(err, f.Close())
	}
	if r.buf == nil {
		r.buf = make([]byte, snapshotChunk)
	}
	frame := head[len(snapshotMagic):]
	r.f, r.lo, r.hi, r.off, r.crc = f, 0, 0, snapshotHeaderLen, 0
	r.size = snapshotHeaderLen + int(binary.LittleEndian.Uint32(frame[0:4]))
	r.sum = binary.LittleEndian.Uint32(frame[4:8])
	return nil
}

// next passes and returns the next at most n bytes of the file, reading
// more when none are left. A file that ends before its header's length is
// ErrCorrupt.
func (r *snapshotReader) next(n int) ([]byte, error) {
	if r.lo == r.hi {
		m, err := r.f.Read(r.buf)
		if m == 0 {
			if err == nil || err == io.EOF {
				err = fmt.Errorf("%w: snapshot ends at offset %d of %d", ErrCorrupt, r.off, r.size)
			}
			return nil, err
		}
		r.lo, r.hi = 0, m
	}
	n = min(n, r.hi-r.lo, r.size-r.off)
	if n <= 0 {
		return nil, fmt.Errorf("%w: snapshot span past its length %d", ErrCorrupt, r.size)
	}
	p := r.buf[r.lo : r.lo+n]
	r.crc = crc32.Update(r.crc, crc32.IEEETable, p)
	r.lo += n
	r.off += n
	return p, nil
}

// skip passes the bytes before file offset to.
func (r *snapshotReader) skip(to int) error {
	if to < r.off {
		return fmt.Errorf("storage: snapshot span at %d, behind the base read to %d", to, r.off)
	}
	for r.off < to {
		if _, err := r.next(to - r.off); err != nil {
			return err
		}
	}
	return nil
}

// check passes the rest of the file and holds it to the header: a payload
// of the declared length, to the file's last byte, with the declared
// checksum. Anything else is ErrCorrupt.
func (r *snapshotReader) check() error {
	if err := r.skip(r.size); err != nil {
		return err
	}
	if m, _ := r.f.Read(r.buf[:1]); r.lo < r.hi || m > 0 {
		return fmt.Errorf("%w: snapshot runs past its length %d", ErrCorrupt, r.size)
	}
	if r.crc != r.sum {
		return fmt.Errorf("%w: snapshot checksum mismatch", ErrCorrupt)
	}
	return nil
}

// close closes the file, if one is open.
func (r *snapshotReader) close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
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
	st, _, err := ReadSnapshotFile(path)
	return st, err
}

// Span is where one user's entry lies in a snapshot file's bytes:
// b[Off:End] holds its uuid, revoked flag, report count and reports, exactly
// as AppendSnapshotUser and its AppendStoredReport calls wrote them.
type Span struct{ Off, End int }

// ReadSnapshotFile is ReadSnapshot that also returns each user's entry in
// the file (users[i] is st.Users[i]'s), so a store restored from the file
// can copy an unchanged user's entry into its next snapshot instead of
// encoding it again.
func ReadSnapshotFile(path string) (st *State, users []Span, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, nil
		}
		return nil, nil, err
	}
	if st, err = decodeSnapshot(b, &users); err != nil {
		return nil, nil, err
	}
	return st, users, nil
}

// decodeSnapshot parses a snapshot file's bytes. Anything but a whole,
// checksummed payload of this version that decodes to its last byte is
// ErrCorrupt. When users is not nil, it also sets *users to each user's
// Span in b.
func decodeSnapshot(b []byte, users *[]Span) (*State, error) {
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
