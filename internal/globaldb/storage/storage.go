// Package storage is the global DB's durability and replication substrate:
// a write-ahead log of length-prefixed, checksummed mutation records, a
// versioned snapshot codec for compaction, and an in-memory replication
// feed the primary streams records from.
//
// The package owns the record and snapshot structs (globaldb imports
// storage, not the other way around; globaldb.WireStage aliases Stage). All
// timestamps are explicit int64 UnixNano values: virtual-time instants
// serialize exactly, so replaying a log reproduces byte-identical
// aggregation output. Decoders restore them with time.Unix(0, n).UTC() —
// the vtime clock hands out UTC instants, and a Local-zone round trip
// would change the JSON bodies the server serves.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Record kinds, one per store mutation. The values are part of the on-disk
// format and must not be renumbered.
const (
	KindAddUser byte = 1
	KindIngest  byte = 2
	KindRevoke  byte = 3
	// KindTerm marks a leadership change in the replicated stream: Now
	// carries the term number and UUID the new leader's client-facing
	// address. It reuses the existing record fields, so the frame format is
	// unchanged; streams written before promotion existed simply contain no
	// term records (the founding leader serves term 1 implicitly).
	KindTerm byte = 4
)

// Stage is one detection stage of a report: a localdb.BlockType value and
// its detail string. It is the single stage type of the global DB — records,
// snapshots, and (as globaldb.WireStage) the JSON API all carry it, so the
// tags below are the wire format.
type Stage struct {
	Type   int    `json:"type"`
	Detail string `json:"detail,omitempty"`
}

// Report is one blocked-URL measurement inside an ingest record. Tm is the
// client's measurement time as UnixNano.
type Report struct {
	URL    string
	ASN    int
	Stages []Stage
	Tm     int64
}

// Record is one logged store mutation. Now is the server's (virtual) ingest
// time as UnixNano; it is meaningful only for KindIngest, where replay must
// reuse the original time rather than the clock at recovery.
type Record struct {
	Kind    byte
	UUID    string
	Now     int64
	Reports []Report
}

// ErrCorrupt marks a frame or record that failed validation. Replay stops
// cleanly at the first such frame; callers distinguish it from an apply
// error with errors.Is.
var ErrCorrupt = errors.New("storage: corrupt record")

// ErrHistoryLoss marks a log whose corruption is followed by further valid
// records: not a torn tail from a crash mid-append, but damage to committed
// history (a flipped bit, an overwritten region). Truncating at the bad
// frame would silently drop the valid records behind it, so recovery must
// hard-error instead. Deliberately does not wrap ErrCorrupt: callers that
// truncate on ErrCorrupt treat this as fatal without any code change.
var ErrHistoryLoss = errors.New("storage: corruption inside committed history")

// maxFrame bounds a frame's payload so a corrupted length field cannot ask
// the reader to allocate gigabytes before the checksum gets a chance to
// reject it.
const maxFrame = 1 << 26

// frameHeaderLen is the length prefix plus the CRC32 of the payload.
const frameHeaderLen = 8

// EncodeRecord appends rec's binary encoding to dst and returns the
// extended slice. The layout is kind byte, then uvarint-length-prefixed
// strings and varint integers; every field is written unconditionally so
// the encoding is a pure function of the record.
func EncodeRecord(dst []byte, rec *Record) []byte {
	dst = append(dst, rec.Kind)
	dst = appendString(dst, rec.UUID)
	dst = binary.AppendVarint(dst, rec.Now)
	dst = binary.AppendUvarint(dst, uint64(len(rec.Reports)))
	for i := range rec.Reports {
		r := &rec.Reports[i]
		dst = appendReport(dst, r.URL, r.ASN, r.Tm, r.Stages)
	}
	return dst
}

// appendReport encodes one report's fields, the part records and snapshots
// share.
func appendReport(dst []byte, url string, asn int, tm int64, stages []Stage) []byte {
	dst = appendString(dst, url)
	dst = binary.AppendVarint(dst, int64(asn))
	dst = binary.AppendVarint(dst, tm)
	// Stage counts are shifted by one so nil (0) and empty-but-present (1)
	// stay distinct: Entry.Stages marshals without omitempty, so a replay or
	// restore that collapsed []Stage{} to nil would flip "stages":[] to
	// "stages":null in served bodies and break byte-identity.
	if stages == nil {
		return binary.AppendUvarint(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(stages))+1)
	for _, st := range stages {
		dst = binary.AppendVarint(dst, int64(st.Type))
		dst = appendString(dst, st.Detail)
	}
	return dst
}

// DecodeRecord parses one record payload. It rejects unknown kinds,
// truncated fields, and trailing garbage — a flipped bit that survives the
// frame CRC (or a handcrafted payload, as in the fuzz target) must produce
// an error, never a half-read record.
func DecodeRecord(p []byte) (*Record, error) {
	d := decoder{buf: p}
	rec := &Record{Kind: d.byte()}
	switch rec.Kind {
	case KindAddUser, KindIngest, KindRevoke, KindTerm:
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, rec.Kind)
	}
	rec.UUID = d.string()
	rec.Now = d.varint()
	if n := d.count(); n > 0 {
		rec.Reports = make([]Report, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			rec.Reports = append(rec.Reports, d.report())
		}
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	return rec, nil
}

// AppendFrame wraps payload in the log frame format — uint32 LE length,
// uint32 LE CRC32 (IEEE) of the payload, payload — and appends it to dst.
func AppendFrame(dst, payload []byte) []byte {
	dst = append(dst, make([]byte, frameHeaderLen)...)
	dst = append(dst, payload...)
	sealFrame(dst[len(dst)-frameHeaderLen-len(payload):])
	return dst
}

// sealFrame fills in the header of frame: its first frameHeaderLen bytes
// were left for it, and the rest is the payload.
func sealFrame(frame []byte) {
	payload := frame[frameHeaderLen:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
}

// Replay decodes framed records from r, invoking fn for each in order. It
// returns the number of bytes consumed by complete valid frames. A nil
// error means the stream ended exactly on a frame boundary; an error
// wrapping ErrCorrupt means the stream was cut or corrupted after good
// bytes (a torn tail after a crash, a flipped bit, a zero-length frame) —
// replay stops cleanly at that point and nothing after it is applied. Any
// other error came from fn and aborts the replay.
func Replay(r io.Reader, fn func(*Record) error) (good int64, err error) {
	var hdr [frameHeaderLen]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return good, nil
			}
			return good, fmt.Errorf("%w: torn frame header: %v", ErrCorrupt, err)
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 {
			return good, fmt.Errorf("%w: zero-length frame", ErrCorrupt)
		}
		if n > maxFrame {
			return good, fmt.Errorf("%w: frame length %d exceeds limit", ErrCorrupt, n)
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			return good, fmt.Errorf("%w: torn frame payload: %v", ErrCorrupt, err)
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return good, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
		}
		rec, err := DecodeRecord(payload)
		if err != nil {
			return good, err
		}
		if err := fn(rec); err != nil {
			return good, err
		}
		good += frameHeaderLen + int64(n)
	}
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// decoder is a cursor over a record or snapshot payload that latches the
// first error. It accepts only what the encoder writes — minimal varints, a
// bool as 0 or 1 — so a payload it decodes re-encodes to the same bytes.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: bad %s", ErrCorrupt, what)
	}
}

// end is the decode's verdict: the first error, else trailing bytes.
func (d *decoder) end() error {
	if d.err == nil && len(d.buf) != 0 {
		d.err = fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf))
	}
	return d.err
}

func (d *decoder) byte() byte {
	if d.err != nil || len(d.buf) < 1 {
		d.fail("byte")
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *decoder) bool() bool {
	b := d.byte()
	if b > 1 {
		d.fail("bool")
	}
	return b == 1
}

// varintLen checks a (u)varint read of n bytes: a longer encoding than the
// value needs ends in a zero byte.
func (d *decoder) varintLen(n int, what string) bool {
	if n <= 0 || (n > 1 && d.buf[n-1] == 0) {
		d.fail(what)
		return false
	}
	d.buf = d.buf[n:]
	return true
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if !d.varintLen(n, "uvarint") {
		return 0
	}
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if !d.varintLen(n, "varint") {
		return 0
	}
	return v
}

// count reads an element count. Every element takes at least one byte, so a
// count above the bytes left is corrupt; rejecting it bounds the allocation
// the caller sizes by it.
func (d *decoder) count() int {
	n := d.uvarint()
	if n > uint64(len(d.buf)) {
		d.fail("count")
		return 0
	}
	return int(n)
}

// report reads appendReport's fields.
func (d *decoder) report() Report {
	r := Report{URL: d.string(), ASN: int(d.varint()), Tm: d.varint()}
	// The count is shifted by one: 0 is nil, 1 an empty non-nil slice.
	n := d.uvarint()
	if n == 0 {
		return r
	}
	if n-1 > uint64(len(d.buf)) {
		d.fail("stage count")
		return r
	}
	r.Stages = make([]Stage, 0, n-1)
	for j := uint64(1); j < n && d.err == nil; j++ {
		r.Stages = append(r.Stages, Stage{Type: int(d.varint()), Detail: d.string()})
	}
	return r
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)) {
		d.fail("string")
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}
