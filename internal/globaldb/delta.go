package globaldb

import (
	"cmp"
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Versioned delta sync. Every record that moves an AS's tag leaves a mark —
// the tag it moved from and the AS's change sequence there — and stamps the
// slots whose entry it changed with the sequence it moved to. A conditional
// fetch whose If-None-Match tag is still among the marks gets a
// DeltaResponse — the entries stamped since, found by one walk of the URL
// order — instead of the full list, so the bytes per sync round stay flat
// once the blocked-URL universe converges. A slot whose reporters are all
// revoked stays in the order as a tombstone, the `removed` line owed to
// every tag older than its stamp, until the oldest mark is not. Tags not
// among the marks (too old, from another store, never a state of this AS)
// fall back to the full body; correctness never depends on the history
// being long enough.

// deltaHistoryMax is the default cap on the per-AS mark history. Sixty-four
// states cover many sync intervals of drift for a slow client; anything
// older pays one full-body fetch and re-enters the delta path with a fresh
// tag. At fleet scale the interval between one client's consecutive syncs
// spans far more than 64 writes to its AS, so fleet worlds raise the cap
// with Server.SetDeltaHistory to keep converging-phase syncs on the delta
// path.
const deltaHistoryMax = 64

// mark is a state the AS has left: the tag it was served under and the
// change sequence it ended at. A slot stamped above seq changed since.
type mark struct {
	ver, rev, seq int64
}

// trimMarks drops the oldest marks beyond max, and with them the tombstones
// no remaining mark predates. Caller holds idx.mu.
func (idx *asIndex) trimMarks(max int) {
	drop := len(idx.marks) - max
	if drop <= 0 {
		return
	}
	// Dropping from the front is a reslice, not a copy of the tail: the
	// array's dead head goes when append next outgrows it (it moves only the
	// live marks, so the cost per mark stays constant at any cap).
	idx.marks = idx.marks[drop:]
	oldest := idx.marks[0].seq
	if idx.reapAt == 0 || idx.reapAt > oldest {
		return
	}
	idx.reapAt = 0
	idx.order = slices.DeleteFunc(idx.order, func(sl *slot) bool {
		if sl.entry.Reporters > 0 {
			return false
		}
		if sl.stamp > oldest {
			if idx.reapAt == 0 || sl.stamp < idx.reapAt {
				idx.reapAt = sl.stamp
			}
			return false
		}
		delete(idx.byURL, sl.entry.URL)
		return true
	})
}

// deltaLists are DeltaResponse's two omitempty lists as they open in the
// body.
var deltaLists = [...]string{inChanged: `,"changed":[`, inRemoved: `,"removed":[`}

const inChanged, inRemoved = 0, 1

// list is the DeltaResponse list sl's line belongs to.
func (sl *slot) list() int {
	if sl.entry.Reporters == 0 {
		return inRemoved
	}
	return inChanged
}

// line is sl's line of a list body — an entry's JSON, a tombstone's URL as
// a JSON string — encoded on first use, on the stack and then copied out
// once at its exact length. Caller holds idx.mu.
func (sl *slot) line() []byte {
	if sl.frag == nil {
		var buf [512]byte
		if sl.entry.Reporters == 0 {
			sl.frag = slices.Clone(appendJSONString(buf[:0], sl.entry.URL))
		} else {
			sl.frag = slices.Clone(appendEntry(buf[:0], &sl.entry))
		}
	}
	return sl.frag
}

// appendEntry appends e's JSON, byte for byte what json.Marshal writes: the
// fields in order, a detail omitted when empty, nil stages as null, last_tp
// as time.Time.MarshalJSON writes it and s as encoding/json writes a
// float64. An entry json.Marshal refuses — a year outside [0,9999], a zone
// hour outside [0,23], a vote sum that is not finite — goes to mustJSON,
// which panics.
func appendEntry(b []byte, e *Entry) []byte {
	_, off := e.LastTp.Zone()
	if y := e.LastTp.Year(); y < 0 || y > 9999 || off <= -24*3600 || off >= 24*3600 ||
		math.IsInf(e.Votes, 0) || math.IsNaN(e.Votes) {
		return append(b, mustJSON(e)...)
	}
	b = appendJSONString(append(b, `{"url":`...), e.URL)
	b = strconv.AppendInt(append(b, `,"asn":`...), int64(e.ASN), 10)
	b = append(b, `,"stages":`...)
	if e.Stages == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, st := range e.Stages {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(append(b, `{"type":`...), int64(st.Type), 10)
			if st.Detail != "" {
				b = appendJSONString(append(b, `,"detail":`...), st.Detail)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = e.LastTp.AppendFormat(append(b, `,"last_tp":"`...), time.RFC3339Nano)
	b = appendFloat(append(b, `","s":`...), e.Votes)
	b = strconv.AppendInt(append(b, `,"n":`...), int64(e.Reporters), 10)
	return append(b, '}')
}

// appendJSONString appends s as json.Marshal quotes it. A string of
// printable ASCII without '"', '\\', '<', '>' or '&' is itself between
// quotes; any other goes to json.Marshal, whose escapes (HTML characters,
// U+2028 and U+2029, invalid UTF-8) are the definition.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return append(b, mustJSON(s)...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// form that reads back as f, in 'e' notation below 1e-6 and from 1e21 up,
// with a one-digit negative exponent unpadded.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// mustJSON is json.Marshal for what appendEntry and appendJSONString do not
// write themselves: a string with characters to escape, which always
// encodes, and an entry json.Marshal refuses, which never reaches a list —
// its vote sum is of finite positive terms and its time is built from int64
// nanoseconds, inside the years RFC 3339 can name.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic("globaldb: encoding a list entry: " + err.Error())
	}
	return b
}

func entryEqual(a, b Entry) bool {
	if a.URL != b.URL || a.ASN != b.ASN || a.Votes != b.Votes ||
		a.Reporters != b.Reporters || !a.LastTp.Equal(b.LastTp) {
		return false
	}
	return stagesEqual(a.Stages, b.Stages)
}

// stagesEqual reports whether two stage lists encode alike: the same
// elements, and both nil or neither, since nil marshals as null and an empty
// list as [].
func stagesEqual(a, b []WireStage) bool {
	return (a == nil) == (b == nil) && slices.Equal(a, b)
}

// appendASN opens a list body, full or delta: {"asn":N
func appendASN(b []byte, asn int) []byte {
	return strconv.AppendInt(append(b, `{"asn":`...), int64(asn), 10)
}

// fullBodyLen is len(joinFullBody(asn, order)) without the join.
func fullBodyLen(asn int, order []*slot) int {
	var buf [32]byte
	n, live := len(appendASN(buf[:0], asn))+len(`,"entries":[]}`), 0
	for _, sl := range order {
		if sl.entry.Reporters > 0 {
			n += len(sl.line())
			live++
		}
	}
	return n + max(live-1, 0)
}

// joinFullBody is FetchResponse's encoding, {"asn":N,"entries":[f0,f1,…]},
// with each live slot's line in place.
func joinFullBody(asn int, order []*slot) []byte {
	b := appendASN(make([]byte, 0, fullBodyLen(asn, order)), asn)
	b = append(b, `,"entries":[`...)
	for _, sl := range order {
		if sl.entry.Reporters > 0 {
			b = append(append(b, sl.frag...), ',')
		}
	}
	if b[len(b)-1] == ',' {
		b = b[:len(b)-1]
	}
	return append(b, "]}"...)
}

// deltaBody builds the encoded DeltaResponse for a client at tag inm, or nil
// when the tag names no marked state or the delta would not be smaller than
// the full body. Caller holds idx.mu, which the record that moved the AS
// here held too, so the delta is exact for the tag pair it names.
func (idx *asIndex) deltaBody(inm string) []byte {
	ver, rev, ok := parseSnapTag(inm)
	if !ok {
		return nil
	}
	// Both counters only grow, so the marks are sorted.
	at, found := slices.BinarySearchFunc(idx.marks, mark{ver: ver, rev: rev}, func(m, at mark) int {
		return cmp.Or(cmp.Compare(m.ver, at.ver), cmp.Compare(m.rev, at.rev))
	})
	if !found {
		return nil
	}
	since := idx.marks[at].seq

	// {"asn":N,"since":"inm" ,"changed":[…] ,"removed":[…] } with both lists
	// omitempty; a tag is digits and a dot, so it is its own JSON string.
	var (
		count, size [len(deltaLists)]int
		head        [32]byte
	)
	lines := idx.lines[:0]
	for _, sl := range idx.order {
		if sl.stamp > since {
			lines = append(lines, sl)
			k := sl.list()
			count[k]++
			size[k] += len(sl.line())
		}
	}
	idx.lines = lines
	total := len(appendASN(head[:0], idx.asn)) + len(`,"since":""`) + len(inm) + len("}")
	for k := range deltaLists {
		if count[k] > 0 {
			total += len(deltaLists[k]) + size[k] + count[k] - 1 + len("]")
		}
	}
	if idx.fullLen == 0 {
		idx.fullLen = fullBodyLen(idx.asn, idx.order)
	}
	if total >= idx.fullLen {
		return nil
	}
	body := appendASN(make([]byte, 0, total), idx.asn)
	body = append(body, `,"since":"`...)
	body = append(body, inm...)
	body = append(body, '"')
	for k := range deltaLists {
		if count[k] == 0 {
			continue
		}
		body = append(body, deltaLists[k]...)
		for _, sl := range lines {
			if sl.list() == k {
				body = append(append(body, sl.frag...), ',')
			}
		}
		body[len(body)-1] = ']'
	}
	return append(body, '}')
}

// parseSnapTag is snapTag's inverse. It accepts only a string snapTag could
// have rendered, so a tag that merely parses to a marked state's numbers
// ("07.0") is as unknown as it is to a string comparison.
func parseSnapTag(tag string) (ver, rev int64, ok bool) {
	v, r, _ := strings.Cut(tag, ".")
	ver, errV := strconv.ParseInt(v, 10, 64)
	rev, errR := strconv.ParseInt(r, 10, 64)
	return ver, rev, errV == nil && errR == nil && snapTag(ver, rev) == tag
}
