package storage

import (
	"bytes"
	"sort"
	"sync"
)

// Feed is the primary's in-memory replication stream: every mutation the
// store applies is appended here as a pre-framed record, and
// followers pull ranges by sequence number, acknowledging the offset they
// have durably applied. Sequence numbers are record counts since the feed
// was created (frame i has sequence i), so a follower's offset doubles as
// "how many records of the primary's history it holds".
//
// The feed keeps the full history for the primary's lifetime: followers in
// the emulated worlds attach at sequence 0 before traffic starts, and a
// run's record count is bounded by the scenario. A production design would
// trim below the minimum acknowledged offset and fall back to a snapshot
// transfer for laggards; Stats surfaces the lag that policy would key on.
type Feed struct {
	mu      sync.Mutex
	frames  [][]byte
	acks    map[string]uint64
	scratch []byte // Frame's encoding, kept for its storage
}

// NewFeed returns an empty feed.
func NewFeed() *Feed {
	return &Feed{acks: make(map[string]uint64)}
}

// Append adds one record to the stream.
func (f *Feed) Append(rec *Record) { f.AppendFrame(f.Frame(rec)) }

// Frame returns rec framed as the stream carries it, in a new slice of its
// exact length: encoded once in the feed's reused buffer, then copied out.
func (f *Feed) Frame(rec *Record) []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.scratch = append(f.scratch[:0], make([]byte, frameHeaderLen)...)
	f.scratch = EncodeRecord(f.scratch, rec)
	sealFrame(f.scratch)
	return bytes.Clone(f.scratch)
}

// AppendFrame adds one framed record to the stream, as Frame frames it, and
// keeps frame: nobody may write into it after.
func (f *Feed) AppendFrame(frame []byte) {
	f.mu.Lock()
	f.frames = append(f.frames, frame)
	f.mu.Unlock()
}

// Head returns the next sequence number to be written (= records appended).
func (f *Feed) Head() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return uint64(len(f.frames))
}

// ReadFrom returns a contiguous run of framed records starting at sequence
// from, bounded by maxBytes (at least one record is returned when any is
// available, so a single oversized record cannot wedge a follower), plus
// the sequence the next read should start at.
func (f *Feed) ReadFrom(from uint64, maxBytes int) (data []byte, next uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	next = from
	if from > uint64(len(f.frames)) {
		return nil, uint64(len(f.frames))
	}
	for next < uint64(len(f.frames)) {
		frame := f.frames[next]
		if len(data) > 0 && len(data)+len(frame) > maxBytes {
			break
		}
		data = append(data, frame...)
		next++
	}
	return data, next
}

// Reset drops the feed's entire history and all follower acks. Used when a
// node wipes its state to resync from a new leader: the rebuilt stream
// restarts at sequence 0.
func (f *Feed) Reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.frames = nil
	f.acks = make(map[string]uint64)
}

// Ack records that follower has durably applied every record below seq.
// Acks never move backwards. A first ack at 0 still registers the follower,
// so Stats shows attached-but-behind followers with their full lag instead
// of omitting them.
func (f *Feed) Ack(follower string, seq uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if cur, ok := f.acks[follower]; !ok || seq > cur {
		f.acks[follower] = seq
	}
}

// FollowerAck is one follower's replication offset and lag.
type FollowerAck struct {
	Name  string `json:"name"`
	Acked uint64 `json:"acked"`
	Lag   uint64 `json:"lag"`
}

// FeedStats is the primary-side replication state: the head sequence and
// each follower's acknowledged offset, plus the worst lag.
type FeedStats struct {
	Head      uint64        `json:"head"`
	Followers []FollowerAck `json:"followers"`
	MaxLag    uint64        `json:"max_lag"`
}

// Stats snapshots the feed. Followers are sorted by name so the output is
// deterministic.
func (f *Feed) Stats() FeedStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := FeedStats{Head: uint64(len(f.frames))}
	names := make([]string, 0, len(f.acks))
	for name := range f.acks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		acked := f.acks[name]
		lag := st.Head - acked
		if acked > st.Head {
			lag = 0
		}
		st.Followers = append(st.Followers, FollowerAck{Name: name, Acked: acked, Lag: lag})
		if lag > st.MaxLag {
			st.MaxLag = lag
		}
	}
	return st
}
