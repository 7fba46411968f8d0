package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

func sampleRecords() []*Record {
	return []*Record{
		{Kind: KindAddUser, UUID: "user-a"},
		{Kind: KindIngest, UUID: "user-a", Now: 1511568000 * int64(1e9), Reports: []Report{
			{URL: "blocked.example/", ASN: 17557, Tm: 1511567000 * int64(1e9),
				Stages: []Stage{{Type: 1, Detail: "redirect"}, {Type: 3, Detail: "blockpage"}}},
			{URL: "other.example/x", ASN: 45595, Tm: -1, Stages: nil},
			{URL: "third.example/", ASN: 45595, Tm: 0, Stages: []Stage{}},
		}},
		{Kind: KindRevoke, UUID: "user-a"},
		{Kind: KindIngest, UUID: "user-b", Now: 42, Reports: nil},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for i, rec := range sampleRecords() {
		enc := EncodeRecord(nil, rec)
		got, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("record %d: round trip mismatch:\n got %+v\nwant %+v", i, got, rec)
		}
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	enc := EncodeRecord(nil, &Record{Kind: KindAddUser, UUID: "u"})
	if _, err := DecodeRecord(append(enc, 0xff)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte: got %v, want ErrCorrupt", err)
	}
}

func TestDecodeRejectsUnknownKind(t *testing.T) {
	enc := EncodeRecord(nil, &Record{Kind: KindAddUser, UUID: "u"})
	enc[0] = 99
	if _, err := DecodeRecord(enc); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown kind: got %v, want ErrCorrupt", err)
	}
}

func replayAll(t *testing.T, b []byte) (recs []*Record, good int64, err error) {
	t.Helper()
	good, err = Replay(bytes.NewReader(b), func(r *Record) error {
		recs = append(recs, r)
		return nil
	})
	return recs, good, err
}

func framed(recs []*Record) []byte {
	var b []byte
	for _, r := range recs {
		b = AppendFrame(b, EncodeRecord(nil, r))
	}
	return b
}

func TestReplayCleanStream(t *testing.T) {
	want := sampleRecords()
	b := framed(want)
	got, good, err := replayAll(t, b)
	if err != nil {
		t.Fatalf("clean stream: %v", err)
	}
	if good != int64(len(b)) {
		t.Fatalf("good = %d, want %d", good, len(b))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed records differ")
	}
}

func TestReplayStopsAtTornTail(t *testing.T) {
	want := sampleRecords()
	b := framed(want)
	for cut := 1; cut < 12; cut++ {
		torn := b[:len(b)-cut]
		got, good, err := replayAll(t, torn)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut %d: err = %v, want ErrCorrupt", cut, err)
		}
		if len(got) != len(want)-1 {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, len(got), len(want)-1)
		}
		if good <= 0 || good >= int64(len(b)) {
			t.Fatalf("cut %d: good offset %d out of range", cut, good)
		}
	}
}

func TestReplayStopsAtBitFlip(t *testing.T) {
	want := sampleRecords()
	b := framed(want)
	// Flip a payload bit inside the second frame: records before it replay,
	// nothing at or after it does.
	first := frameHeaderLen + len(EncodeRecord(nil, want[0]))
	flip := append([]byte(nil), b...)
	flip[first+frameHeaderLen+2] ^= 0x40
	got, good, err := replayAll(t, flip)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit flip: err = %v, want ErrCorrupt", err)
	}
	if len(got) != 1 || good != int64(first) {
		t.Fatalf("bit flip: replayed %d records to offset %d, want 1 to %d", len(got), good, first)
	}
}

func TestReplayStopsAtZeroLengthFrame(t *testing.T) {
	b := framed(sampleRecords()[:1])
	b = append(b, make([]byte, frameHeaderLen)...) // length 0, CRC 0
	got, good, err := replayAll(t, b)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("zero-length frame: err = %v, want ErrCorrupt", err)
	}
	if len(got) != 1 || good != int64(len(framed(sampleRecords()[:1]))) {
		t.Fatalf("zero-length frame: replayed %d records to %d", len(got), good)
	}
}

func TestLogAppendReplayTruncate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if l.Records() != int64(len(want)) {
		t.Fatalf("Records() = %d, want %d", l.Records(), len(want))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a torn tail, then verify recovery semantics: replay stops at
	// the damage, truncation removes it, and appending continues cleanly.
	if err := os.WriteFile(path, append(readFile(t, path), 0xde, 0xad), 0o644); err != nil {
		t.Fatal(err)
	}
	var got []*Record
	good, err := ReplayFile(path, func(r *Record) error { got = append(got, r); return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn log tail: err = %v, want ErrCorrupt", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("torn log lost good records")
	}

	l2, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Truncate(good); err != nil {
		t.Fatal(err)
	}
	extra := &Record{Kind: KindAddUser, UUID: "user-c"}
	if err := l2.Append(extra); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	got = nil
	if _, err := ReplayFile(path, func(r *Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatalf("after truncate+append: %v", err)
	}
	if !reflect.DeepEqual(got, append(append([]*Record(nil), want...), extra)) {
		t.Fatalf("post-recovery log contents differ")
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestReplayFileMissing(t *testing.T) {
	good, err := ReplayFile(filepath.Join(t.TempDir(), "nope"), func(*Record) error {
		t.Fatal("fn called for missing file")
		return nil
	})
	if good != 0 || err != nil {
		t.Fatalf("missing file: good=%d err=%v", good, err)
	}
}

// sampleState has what a snapshot must keep apart: nil, empty and non-empty
// stages, users with and without reports, revoked or not, and negative
// numbers.
func sampleState() *State {
	return &State{
		Users: []UserState{
			{UUID: "a", Reports: []StoredReport{
				{URL: "u/", ASN: 1, Tm: 5, Tp: 9, Stages: []Stage{{Type: 2, Detail: "rst"}, {Type: 1}}},
				{URL: "v/", ASN: 1, Tm: -1, Tp: 9, Stages: []Stage{}},
				{URL: "w/", ASN: -7, Tp: 1 << 62, Stages: nil},
			}},
			{UUID: "b", Revoked: true},
			{UUID: "c"},
			{UUID: "d", Revoked: true, Reports: []StoredReport{{URL: "u/", ASN: 2, Stages: []Stage{}}}},
		},
		Updates:    7,
		RevEpoch:   3,
		ASVersions: []ASVersion{{ASN: 1, Version: 12}, {ASN: 2, Version: 1}},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snapshot")
	for _, st := range []*State{sampleState(), {}} {
		if err := WriteSnapshot(path, st); err != nil {
			t.Fatal(err)
		}
		got, err := ReadSnapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, st) {
			t.Fatalf("snapshot round trip mismatch:\n got %+v\nwant %+v", got, st)
		}
	}
}

// TestSnapshotDecodeRejects feeds the payload decoder checksummed payloads
// the encoder never writes: each must be ErrCorrupt, never a State.
func TestSnapshotDecodeRejects(t *testing.T) {
	good := appendState(nil, sampleState())[snapshotHeaderLen:]
	head := AppendSnapshotHead(nil, 0, 0, 1)[snapshotHeaderLen:]
	for name, payload := range map[string][]byte{
		"trailing byte":         append(append([]byte(nil), good...), 0),
		"torn":                  good[:len(good)-1],
		"user count too big":    AppendSnapshotHead(nil, 0, 0, 1000)[snapshotHeaderLen:],
		"report count too big":  append(append([]byte(nil), head...), 1, 'u', 0, 0x7f),
		"revoked is not a bool": append(append([]byte(nil), head...), 1, 'u', 2, 0, 0),
		"non-minimal varint":    {0x80, 0x00, 0, 0, 0},
	} {
		if st, err := decodeSnapshot(sealSnapshot(payload)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %+v, %v; want ErrCorrupt", name, st, err)
		}
	}
}

// appendState is the whole of st as a snapshot file, its frame header left
// for sealFrame: the bytes WriteSnapshot streams, in one buffer.
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

// sealSnapshot frames payload as a snapshot file with a matching checksum.
func sealSnapshot(payload []byte) []byte {
	b := append(AppendSnapshotHead(nil, 0, 0, 0)[:snapshotHeaderLen], payload...)
	sealFrame(b[len(snapshotMagic):])
	return b
}

// TestLogAppendFramesInPlace pins that an append, once its buffer has grown,
// allocates nothing: the frame is built inside the log's own buffer.
func TestLogAppendFramesInPlace(t *testing.T) {
	l, err := OpenLog(filepath.Join(t.TempDir(), "wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := l.Close(); err != nil {
			t.Error(err)
		}
	}()
	rec := sampleRecords()[1]
	if allocs := testing.AllocsPerRun(100, func() {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Fatalf("Log.Append allocates %v times per record", allocs)
	}
}

func TestSnapshotMissingAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	if st, err := ReadSnapshot(filepath.Join(dir, "none")); st != nil || err != nil {
		t.Fatalf("missing snapshot: %v %v", st, err)
	}
	path := filepath.Join(dir, "snap")
	if err := WriteSnapshot(path, &State{Updates: 1}); err != nil {
		t.Fatal(err)
	}
	b := readFile(t, path)
	b[len(b)-1] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt snapshot: err = %v, want ErrCorrupt", err)
	}
	if err := os.WriteFile(path, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: err = %v, want ErrCorrupt", err)
	}
	// A version-1 snapshot (JSON payload) is a foreign header like any other.
	v1 := AppendFrame([]byte("CSAWSNAP1\n"), []byte(`{"users":null,"updates":1,"rev_epoch":0,"as_versions":null}`))
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("v1 snapshot: err = %v, want ErrCorrupt", err)
	}
}

func TestFeedReadAck(t *testing.T) {
	f := NewFeed()
	recs := sampleRecords()
	for _, r := range recs {
		f.Append(r)
	}
	if f.Head() != uint64(len(recs)) {
		t.Fatalf("Head = %d, want %d", f.Head(), len(recs))
	}

	// Read everything from 0 and verify the frames replay to the originals.
	data, next := f.ReadFrom(0, 1<<20)
	if next != uint64(len(recs)) {
		t.Fatalf("next = %d, want %d", next, len(recs))
	}
	var got []*Record
	if _, err := Replay(bytes.NewReader(data), func(r *Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("feed frames differ from appended records")
	}

	// A tiny byte budget still makes progress one record at a time.
	data, next = f.ReadFrom(1, 1)
	if len(data) == 0 || next != 2 {
		t.Fatalf("bounded read: %d bytes, next %d", len(data), next)
	}

	f.Ack("f1", 2)
	f.Ack("f2", uint64(len(recs)))
	f.Ack("f1", 1) // acks never regress
	st := f.Stats()
	if st.Head != uint64(len(recs)) || st.MaxLag != uint64(len(recs))-2 {
		t.Fatalf("stats: %+v", st)
	}
	if len(st.Followers) != 2 || st.Followers[0].Name != "f1" || st.Followers[0].Acked != 2 {
		t.Fatalf("followers: %+v", st.Followers)
	}

	// Reading past head is a no-op positioned at head.
	if data, next := f.ReadFrom(99, 10); data != nil || next != uint64(len(recs)) {
		t.Fatalf("past-head read: %v %d", data, next)
	}
}

func TestReplayFileTornTailIsNotHistoryLoss(t *testing.T) {
	// A cut anywhere inside the final frame is a crash mid-append: recovery
	// reports ErrCorrupt so the caller truncates and continues. It must NOT
	// escalate to ErrHistoryLoss — no committed record sits past the damage.
	want := sampleRecords()
	full := framed(want)
	lastStart := len(framed(want[:len(want)-1]))
	path := filepath.Join(t.TempDir(), "wal")
	for cut := lastStart + 1; cut < len(full); cut += 3 {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var got []*Record
		good, err := ReplayFile(path, func(r *Record) error { got = append(got, r); return nil })
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut at %d: err = %v, want ErrCorrupt", cut, err)
		}
		if errors.Is(err, ErrHistoryLoss) {
			t.Fatalf("cut at %d: torn tail misreported as history loss: %v", cut, err)
		}
		if good != int64(lastStart) || len(got) != len(want)-1 {
			t.Fatalf("cut at %d: good=%d records=%d, want good=%d records=%d",
				cut, good, len(got), lastStart, len(want)-1)
		}
	}
}

func TestReplayFileMidFileCorruptionIsHistoryLoss(t *testing.T) {
	// A bad frame with intact frames behind it means committed history was
	// damaged in place; truncating would drop the valid suffix, so ReplayFile
	// must refuse with ErrHistoryLoss rather than inviting the torn-tail fix.
	want := sampleRecords()
	full := framed(want)
	firstEnd := len(framed(want[:1]))
	path := filepath.Join(t.TempDir(), "wal")

	corrupt := append([]byte(nil), full...)
	corrupt[firstEnd+frameHeaderLen+1] ^= 0xFF // payload byte of frame 2
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	var got []*Record
	good, err := ReplayFile(path, func(r *Record) error { got = append(got, r); return nil })
	if !errors.Is(err, ErrHistoryLoss) {
		t.Fatalf("mid-file flip: err = %v, want ErrHistoryLoss", err)
	}
	if good != int64(firstEnd) || len(got) != 1 {
		t.Fatalf("mid-file flip: good=%d records=%d, want good=%d records=1", good, len(got), firstEnd)
	}

	// The same flip in the FINAL frame is indistinguishable from a torn
	// append and stays a truncatable ErrCorrupt.
	lastStart := len(framed(want[:len(want)-1]))
	tailFlip := append([]byte(nil), full...)
	tailFlip[lastStart+frameHeaderLen+1] ^= 0xFF
	if err := os.WriteFile(path, tailFlip, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = ReplayFile(path, func(*Record) error { return nil })
	if !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrHistoryLoss) {
		t.Fatalf("final-frame flip: err = %v, want plain ErrCorrupt", err)
	}
}

func TestLogTearNextRecovery(t *testing.T) {
	// TearNext cuts the next append short: the record is reported
	// non-durable, replay stops at the last good frame, and truncate+append
	// resumes a clean log — the full crash-mid-append recovery cycle.
	path := filepath.Join(t.TempDir(), "wal")
	l, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	for _, r := range want[:2] {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	l.TearNext(5)
	if err := l.Append(want[2]); !errors.Is(err, ErrInjectedTear) {
		t.Fatalf("torn append: err = %v, want ErrInjectedTear", err)
	}
	if l.Records() != 2 {
		t.Fatalf("Records() = %d after tear, want 2", l.Records())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var got []*Record
	good, err := ReplayFile(path, func(r *Record) error { got = append(got, r); return nil })
	if !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrHistoryLoss) {
		t.Fatalf("replay after tear: err = %v, want plain ErrCorrupt", err)
	}
	if len(got) != 2 {
		t.Fatalf("replay after tear: %d records, want 2", len(got))
	}

	l2, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Truncate(good); err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(want[2]); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	got = nil
	if _, err := ReplayFile(path, func(r *Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
	if !reflect.DeepEqual(got, want[:3]) {
		t.Fatalf("recovered log contents differ")
	}
}

// TestLogSealReplay: Seal moves the records so far into the sealed segment
// and appends go on in a fresh active file; ReplaySealed then ReplayFile give
// every record once, in order; a second Seal with the segment still there
// is refused; RemoveSealed deletes it, and a missing segment replays nothing.
func TestLogSealReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	for i, r := range want {
		if i == 2 {
			if err := l.Seal(); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Seal(); err == nil {
		t.Fatal("a second Seal overwrote the sealed segment")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var got []*Record
	collect := func(r *Record) error { got = append(got, r); return nil }
	if found, err := ReplaySealed(path, collect); !found || err != nil {
		t.Fatalf("ReplaySealed = %v, %v; want the segment, no error", found, err)
	}
	if len(got) != 2 {
		t.Fatalf("the sealed segment holds %d records, want the 2 before the seal", len(got))
	}
	if _, err := ReplayFile(path, collect); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("sealed segment then active file differ from the records appended")
	}
	if err := RemoveSealed(path); err != nil {
		t.Fatal(err)
	}
	if found, err := ReplaySealed(path, collect); found || err != nil {
		t.Fatalf("ReplaySealed after RemoveSealed = %v, %v; want nothing", found, err)
	}
	if err := RemoveSealed(path); err != nil {
		t.Fatalf("RemoveSealed of a missing segment: %v", err)
	}
}

// TestSealedSegmentDamageIsHistoryLoss: a sealed segment was whole when it
// was sealed and the active file was appended after it, so a torn final
// frame there is not a crash mid-append: ReplaySealed reports ErrHistoryLoss,
// which callers that truncate on ErrCorrupt treat as fatal.
func TestSealedSegmentDamageIsHistoryLoss(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	whole := framed(sampleRecords())
	for _, seg := range [][]byte{whole[:len(whole)-3], append(append([]byte(nil), whole...), 0xde)} {
		if err := os.WriteFile(SealedPath(path), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReplaySealed(path, func(*Record) error { return nil })
		if !errors.Is(err, ErrHistoryLoss) || errors.Is(err, ErrCorrupt) {
			t.Fatalf("damaged sealed segment: err = %v, want ErrHistoryLoss", err)
		}
	}
}

// TestReadSnapshotFileSpans: each user's span of the file is exactly the
// entry AppendSnapshotUser and AppendStoredReport write for it.
func TestReadSnapshotFileSpans(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap")
	st := sampleState()
	if err := WriteSnapshot(path, st); err != nil {
		t.Fatal(err)
	}
	got, users, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, st) || len(users) != len(st.Users) {
		t.Fatalf("ReadSnapshotFile read %d spans for %d users", len(users), len(st.Users))
	}
	assertSpans(t, st, readFile(t, path), users)
}

// assertSpans holds each span of b to the entry the encoder writes for its
// user.
func assertSpans(t *testing.T, st *State, b []byte, users []Span) {
	t.Helper()
	for i, sp := range users {
		us := &st.Users[i]
		want := AppendSnapshotUser(nil, us.UUID, us.Revoked, len(us.Reports))
		for j := range us.Reports {
			want = AppendStoredReport(want, &us.Reports[j])
		}
		if !bytes.Equal(b[sp.Off:sp.End], want) {
			t.Fatalf("user %d's span %d:%d is not its entry", i, sp.Off, sp.End)
		}
	}
}

// TestSnapshotWriterCopiesFromBase builds a snapshot over a base file larger
// than the writer's chunk: every other user is re-encoded with one report
// more, the rest copied by span — singly or in runs — and the file must be
// the one WriteSnapshot makes of the new state. A base damaged where the
// writer only skips is caught all the same: Commit fails with ErrCorrupt
// and leaves no file behind. A span behind the last one copied is an error.
func TestSnapshotWriterCopiesFromBase(t *testing.T) {
	dir := t.TempDir()
	st := &State{Updates: 9, RevEpoch: 2, ASVersions: []ASVersion{{ASN: 7, Version: 3}}}
	for u := 0; u < 2000; u++ {
		us := UserState{UUID: fmt.Sprintf("user-%05d", u), Revoked: u%97 == 0}
		for j := 0; j < 3; j++ {
			us.Reports = append(us.Reports, StoredReport{URL: fmt.Sprintf("site-%d.example/", u*3+j), ASN: 7,
				Stages: []Stage{{Type: 1, Detail: "nxdomain"}}, Tm: int64(u), Tp: int64(j)})
		}
		st.Users = append(st.Users, us)
	}
	base := filepath.Join(dir, "base")
	if err := WriteSnapshot(base, st); err != nil {
		t.Fatal(err)
	}
	_, spans, err := ReadSnapshotFile(base)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(readFile(t, base)); n < 2*snapshotChunk {
		t.Fatalf("the base is %d bytes, want more than two chunks", n)
	}
	next := *st
	next.Users = slices.Clone(st.Users)
	write := func(path string) error {
		var w SnapshotWriter
		if err := w.Create(path, base, next.Updates, next.RevEpoch, len(next.Users)); err != nil {
			return err
		}
		run := Span{}
		for u := range next.Users {
			if u%2 == 0 && u%10 != 0 {
				if spans[u].Off != run.End {
					w.Copy(run)
					run.Off = spans[u].Off
				}
				run.End = spans[u].End
				continue
			}
			w.Copy(run)
			run = Span{}
			us := &next.Users[u]
			b := AppendSnapshotUser(nil, us.UUID, us.Revoked, len(us.Reports))
			for j := range us.Reports {
				b = AppendStoredReport(b, &us.Reports[j])
			}
			w.Append(b)
		}
		w.Copy(run)
		return w.Commit(next.ASVersions)
	}
	for u := range next.Users {
		if u%2 == 1 || u%10 == 0 {
			us := &next.Users[u]
			us.Reports = append(slices.Clone(us.Reports), StoredReport{URL: "late.example/", ASN: 7, Stages: []Stage{}, Tp: 99})
		}
	}
	want := filepath.Join(dir, "want")
	if err := WriteSnapshot(want, &next); err != nil {
		t.Fatal(err)
	}
	got := filepath.Join(dir, "got")
	if err := write(got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readFile(t, got), readFile(t, want)) {
		t.Fatal("the snapshot built over the base differs from WriteSnapshot's")
	}

	// Damage a byte of user 1's entry, which the writer skips.
	b := readFile(t, base)
	b[spans[1].Off+3] ^= 0x20
	if err := os.WriteFile(base, b, 0o644); err != nil {
		t.Fatal(err)
	}
	damaged := filepath.Join(dir, "damaged")
	if err := write(damaged); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a snapshot over a damaged base: err = %v, want ErrCorrupt", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 3 {
		t.Fatalf("after a failed commit the directory holds %d files, want base, want and got", len(ents))
	}

	var w SnapshotWriter
	if err := w.Create(filepath.Join(dir, "backwards"), base, 0, 0, 2); err != nil {
		t.Fatal(err)
	}
	w.Copy(spans[5])
	w.Copy(spans[4])
	if err := w.Commit(nil); err == nil {
		t.Fatal("a span behind the last one copied was committed")
	}
}
