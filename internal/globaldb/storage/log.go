package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Log is an append-only write-ahead log of framed records. Appends are
// flushed to the file before returning, so state recovered after an
// in-simulation "kill" (close the store, reopen from disk) contains every
// acknowledged mutation. The Log itself is not goroutine-safe; the durable
// store serializes appends under its write mutex, which is also what fixes
// the replay order.
//
// A log is one or two files. Appends go to the active file at its path.
// Seal moves the active file aside to SealedPath(path), a sealed segment
// that takes no more appends, and starts a fresh active file: a compaction
// seals the records its snapshot will hold and writes the snapshot while
// later appends land in the fresh file, then deletes the segment
// (RemoveSealed). Recovery replays the sealed segment (ReplaySealed), then
// the active file (ReplayFile). Only the active file can end in a torn
// append; the sealed segment was whole when it was sealed, so any damage
// in it is damage to committed history.
type Log struct {
	path string
	f    *os.File
	w    *bufio.Writer
	buf  []byte // scratch for encode+frame, reused across appends
	recs int64  // records appended since open (not lifetime)
	tear int    // >= 0: next Append writes only this many bytes (fault hook)
}

// ErrInjectedTear is returned by an Append whose write was deliberately cut
// short via TearNext. The partial frame is on disk; the record is not
// durable.
var ErrInjectedTear = errors.New("storage: injected torn write")

// TearNext arms a fault-injection hook: the next Append writes only the
// first keep bytes of its frame, flushes them, and returns ErrInjectedTear.
// This simulates a crash mid-append — the canonical torn tail that recovery
// must truncate away. Chaos schedules use it to exercise the recovery path
// deterministically.
func (l *Log) TearNext(keep int) {
	if keep < 0 {
		keep = 0
	}
	l.tear = keep
}

// OpenLog opens (creating if needed) the log at path for appending.
func OpenLog(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(0, 2); err != nil {
		closeErr := f.Close()
		return nil, fmt.Errorf("storage: seek log end: %v (close: %v)", err, closeErr)
	}
	return &Log{path: path, f: f, w: bufio.NewWriter(f), tear: -1}, nil
}

// Append encodes, frames, writes and flushes one record. The frame is built
// in place in the log's reused buffer: the header's bytes are left free, the
// record is encoded after them, then the header is filled in.
func (l *Log) Append(rec *Record) error {
	l.buf = append(l.buf[:0], make([]byte, frameHeaderLen)...)
	l.buf = EncodeRecord(l.buf, rec) // keep the grown buffer for reuse
	sealFrame(l.buf)
	return l.AppendFrame(l.buf)
}

// AppendFrame writes and flushes one record framed already, as Append
// frames it: a replicated store frames each record once, for its log and
// its feed (Feed.Frame).
func (l *Log) AppendFrame(framed []byte) error {
	if l.tear >= 0 {
		keep := l.tear
		l.tear = -1
		if keep > len(framed) {
			keep = len(framed)
		}
		if _, err := l.w.Write(framed[:keep]); err != nil {
			return err
		}
		if err := l.w.Flush(); err != nil {
			return err
		}
		return ErrInjectedTear
	}
	if _, err := l.w.Write(framed); err != nil {
		return err
	}
	if err := l.w.Flush(); err != nil {
		return err
	}
	l.recs++
	return nil
}

// Records reports how many records were appended since open.
func (l *Log) Records() int64 { return l.recs }

// Size returns the current log file size in bytes.
func (l *Log) Size() (int64, error) {
	st, err := l.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Truncate cuts the log to n bytes. Recovery truncates away a torn tail so
// later appends continue from the last good frame; compaction truncates to
// zero after writing a snapshot.
func (l *Log) Truncate(n int64) error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.f.Truncate(n); err != nil {
		return err
	}
	_, err := l.f.Seek(n, 0)
	return err
}

// SealedPath is the name of the sealed segment of the log at path.
func SealedPath(path string) string { return path + ".sealed" }

// Seal flushes the active file, renames it to the sealed segment and
// continues in a fresh, empty active file at the log's path. A sealed
// segment that is already there is never overwritten: Seal refuses with an
// error, since its records may be in no snapshot yet. The rename is not
// synced — appends are not either; the snapshot protocol's directory syncs
// make it durable before anything depends on it.
func (l *Log) Seal() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	sealed := SealedPath(l.path)
	if _, err := os.Lstat(sealed); err == nil {
		return fmt.Errorf("storage: seal %s: a sealed segment is already there", l.path)
	} else if !os.IsNotExist(err) {
		return err
	}
	if err := os.Rename(l.path, sealed); err != nil {
		return err
	}
	f, err := os.OpenFile(l.path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	old := l.f
	l.f = f
	l.w.Reset(f)
	return old.Close()
}

// ReplaySealed replays the sealed segment of the log at path through fn, if
// there is one, and reports whether there was. A sealed segment was whole
// when it was sealed and the active file was appended after it, so unlike
// ReplayFile it truncates nothing: any frame that fails to decode, torn
// final frame included, is an ErrHistoryLoss error.
func ReplaySealed(path string, fn func(*Record) error) (found bool, err error) {
	f, err := os.Open(SealedPath(path))
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return true, err
	}
	good, err := Replay(bufio.NewReader(f), fn)
	if closeErr := f.Close(); err == nil {
		err = closeErr
	}
	if errors.Is(err, ErrCorrupt) {
		return true, fmt.Errorf("%w: sealed segment damaged at offset %d: %v", ErrHistoryLoss, good, err)
	}
	return true, err
}

// RemoveSealed deletes the sealed segment of the log at path, if there is
// one, and makes the deletion durable.
func RemoveSealed(path string) error {
	if err := os.Remove(SealedPath(path)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// Close flushes and closes the file.
func (l *Log) Close() error {
	if err := l.w.Flush(); err != nil {
		closeErr := l.f.Close()
		return fmt.Errorf("storage: flush log: %v (close: %v)", err, closeErr)
	}
	return l.f.Close()
}

// ReplayFile opens path and replays its records through fn, returning the
// byte offset of the end of the last good frame. A missing file replays
// zero records. The tail error follows Replay's contract — nil for a clean
// end, ErrCorrupt-wrapped for a torn tail (the caller should truncate to
// good and continue), anything else from fn — with one sharpening: if the
// corruption is followed by a later intact frame, the damage is inside
// committed history rather than a crash mid-append, and the error wraps
// ErrHistoryLoss instead. Truncating there would silently drop the valid
// records behind the bad frame, so callers must treat it as fatal. A
// corrupted final frame is indistinguishable from a torn append and is
// truncated like one.
func ReplayFile(path string, fn func(*Record) error) (good int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	good, replayErr := Replay(bufio.NewReader(f), fn)
	if closeErr := f.Close(); replayErr == nil && closeErr != nil {
		return good, closeErr
	}
	if replayErr != nil && errors.Is(replayErr, ErrCorrupt) {
		if tail, rerr := os.ReadFile(path); rerr == nil && int64(len(tail)) > good {
			if off, ok := laterValidFrame(tail[good:]); ok {
				return good, fmt.Errorf("%w: valid frame at offset %d after corruption at %d: %v",
					ErrHistoryLoss, good+off, good, replayErr)
			}
		}
	}
	return good, replayErr
}

// laterValidFrame scans data (the bytes from the first corrupt frame on)
// for an intact frame starting strictly after the corruption point: a sane
// length, a matching CRC, and a payload that decodes. Offset 0 is skipped —
// that is the corrupt frame itself.
func laterValidFrame(data []byte) (off int64, ok bool) {
	for i := 1; i+frameHeaderLen <= len(data); i++ {
		n := binary.LittleEndian.Uint32(data[i : i+4])
		if n == 0 || n > maxFrame || i+frameHeaderLen+int(n) > len(data) {
			continue
		}
		sum := binary.LittleEndian.Uint32(data[i+4 : i+8])
		payload := data[i+frameHeaderLen : i+frameHeaderLen+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			continue
		}
		if _, err := DecodeRecord(payload); err != nil {
			continue
		}
		return int64(i), true
	}
	return 0, false
}
