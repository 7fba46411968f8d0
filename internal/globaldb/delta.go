package globaldb

import (
	"cmp"
	"encoding/json"
	"slices"
	"strconv"
	"strings"
)

// Versioned delta sync. Each AS index remembers the change set between
// consecutive snapshot builds, keyed by the validator tag the previous
// snapshot was served under. A conditional fetch whose If-None-Match tag is
// still in that history gets a DeltaResponse — only the entries that changed
// since the client's snapshot — instead of the full list, so the bytes per
// sync round stay flat once the blocked-URL universe converges. Tags not in
// the history (too old, from another store, or never served) fall back to
// the full body; correctness never depends on the history being long enough.

// deltaHistoryMax is the default cap on the per-AS edit history. Sixty-four
// observed snapshot transitions cover many sync intervals of drift for a
// slow client; anything older pays one full-body fetch and re-enters the
// delta path with a fresh tag. At fleet scale the interval between one
// client's consecutive syncs spans far more than 64 rebuilds (every other
// client's fetches advance the chain), so fleet worlds raise the cap with
// Server.SetDeltaHistory to keep converging-phase syncs on the delta path.
const deltaHistoryMax = 64

// deltaEdit is the change set leading away from the snapshot served under
// snapTag(ver, rev) to the next built snapshot: one item per URL that is new,
// modified or gone, in URL order like the snapshots it diffs.
type deltaEdit struct {
	ver, rev int64
	items    []deltaItem
}

// deltaItem is one URL's line of an edit, already encoded: the entry's
// fragment in the newer snapshot (shared with it), or, for a URL the newer
// snapshot dropped, the URL as a JSON string. list says which, as the index
// of the DeltaResponse list the line belongs to.
type deltaItem struct {
	url  string
	json []byte
	list int
}

// deltaLists are DeltaResponse's two omitempty lists as they open in the
// body.
var deltaLists = [...]string{inChanged: `,"changed":[`, inRemoved: `,"removed":[`}

const inChanged, inRemoved = 0, 1

// encodeLocked pairs the freshly aggregated next list with its fragments,
// written into the spare buffer, by one walk over it and the current
// snapshot: an entry the current snapshot holds unchanged keeps that
// snapshot's fragment, any other is encoded — so the walk that finds the
// change set is also the only place an entry is ever encoded, and the edit
// it returns leads from the current snapshot to next. Caller holds
// idx.snapMu.
func (idx *asIndex) encodeLocked(next []Entry) ([][]byte, deltaEdit) {
	old, oldFrags := idx.entries, idx.frags
	frags := idx.spareFrags[:0]
	edit := deltaEdit{ver: idx.snapVer, rev: idx.snapRev}
	gone := func(e *Entry) {
		edit.items = append(edit.items, deltaItem{url: e.URL, json: mustJSON(e.URL), list: inRemoved})
	}
	i := 0
	for j := range next {
		for ; i < len(old) && old[i].URL < next[j].URL; i++ {
			gone(&old[i])
		}
		if i < len(old) && entryEqual(old[i], next[j]) {
			frags = append(frags, oldFrags[i])
			i++
			continue
		}
		if i < len(old) && old[i].URL == next[j].URL {
			i++
		}
		frag := mustJSON(&next[j])
		frags = append(frags, frag)
		// The first build leads from no snapshot: there is no edit to record.
		if idx.valid {
			edit.items = append(edit.items, deltaItem{url: next[j].URL, json: frag, list: inChanged})
		}
	}
	for ; i < len(old); i++ {
		gone(&old[i])
	}
	return frags, edit
}

// mustJSON is json.Marshal for the two values the list bodies are made of,
// an Entry and a URL string. Neither can fail to encode: a string always
// does, and an entry's only fallible fields are a vote sum of finite
// positive terms and a time built from int64 nanoseconds, inside the years
// RFC 3339 can name.
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
	if (a.Stages == nil) != (b.Stages == nil) || len(a.Stages) != len(b.Stages) {
		return false
	}
	for i := range a.Stages {
		if a.Stages[i] != b.Stages[i] {
			return false
		}
	}
	return true
}

// recordEditLocked appends edit to idx's history and drops the oldest edits
// beyond max. Caller holds idx.snapMu. Empty edits are recorded too: they
// keep the tag chain unbroken so a client holding the older tag can still be
// served a delta after a rebuild that changed nothing (e.g. a version bump
// that re-aggregated to the same list).
func (idx *asIndex) recordEditLocked(edit deltaEdit, max int) {
	if max <= 0 {
		max = deltaHistoryMax
	}
	idx.history = append(idx.history, edit)
	if drop := len(idx.history) - max; drop > 0 {
		// Dropping from the front is a reslice, not a copy of the tail: the
		// array's dead head goes when append next outgrows it (it moves only
		// the live edits, so the cost per edit stays constant at any cap),
		// and clearing it first lets the dropped fragments go now.
		clear(idx.history[:drop])
		idx.history = idx.history[drop:]
	}
}

// appendASN opens a list body, full or delta: {"asn":N
func appendASN(b []byte, asn int) []byte {
	return strconv.AppendInt(append(b, `{"asn":`...), int64(asn), 10)
}

// fullBodyLen is len(joinFullBody(asn, frags)) without the join.
func fullBodyLen(asn int, frags [][]byte) int {
	var buf [32]byte
	n := len(appendASN(buf[:0], asn)) + len(`,"entries":[]}`) + max(len(frags)-1, 0)
	for _, f := range frags {
		n += len(f)
	}
	return n
}

// joinFullBody is FetchResponse's encoding, {"asn":N,"entries":[f0,f1,…]},
// with each entry's fragment in place.
func joinFullBody(asn int, frags [][]byte) []byte {
	b := appendASN(make([]byte, 0, fullBodyLen(asn, frags)), asn)
	b = append(b, `,"entries":[`...)
	for i, f := range frags {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, f...)
	}
	return append(b, "]}"...)
}

// deltaBodyLocked builds the encoded DeltaResponse for a client at tag inm,
// or nil when the tag is not in the history or the delta would not be
// smaller than the current full body. Caller holds idx.snapMu (the history
// and idx.fullLen are read in the same critical section that rebuilt them,
// so the delta is exact for the tag pair it names).
func (idx *asIndex) deltaBodyLocked(inm string) []byte {
	ver, rev, ok := parseSnapTag(inm)
	if !ok {
		return nil
	}
	// Snapshot tags only grow (rebuildLocked), so the history is sorted.
	start, found := slices.BinarySearchFunc(idx.history, deltaEdit{ver: ver, rev: rev}, func(e, at deltaEdit) int {
		return cmp.Or(cmp.Compare(e.ver, at.ver), cmp.Compare(e.rev, at.rev))
	})
	if !found {
		return nil
	}
	// Fold the edit suffix: gather every item, order by URL keeping each
	// URL's items in history order, and keep the last — later edits win per
	// URL, and a URL cannot end up in both lists.
	items := idx.fold[:0]
	for _, e := range idx.history[start:] {
		items = append(items, e.items...)
	}
	slices.SortStableFunc(items, func(a, b deltaItem) int { return strings.Compare(a.url, b.url) })
	n := 0
	for i := range items {
		if i+1 == len(items) || items[i+1].url != items[i].url {
			items[n] = items[i]
			n++
		}
	}
	items = items[:n]
	idx.fold = items

	// {"asn":N,"since":"inm" ,"changed":[…] ,"removed":[…] } with both lists
	// omitempty; a tag is digits and a dot, so it is its own JSON string.
	var count, size [len(deltaLists)]int
	for i := range items {
		count[items[i].list]++
		size[items[i].list] += len(items[i].json)
	}
	var buf [32]byte
	head := appendASN(buf[:0], idx.asn)
	total := len(head) + len(`,"since":""`) + len(inm) + len("}")
	for k := range deltaLists {
		if count[k] > 0 {
			total += len(deltaLists[k]) + size[k] + count[k] - 1 + len("]")
		}
	}
	if total >= idx.fullLen {
		return nil
	}
	body := append(make([]byte, 0, total), head...)
	body = append(body, `,"since":"`...)
	body = append(body, inm...)
	body = append(body, '"')
	for k := range deltaLists {
		if count[k] == 0 {
			continue
		}
		body = append(body, deltaLists[k]...)
		for i := range items {
			if items[i].list == k {
				body = append(body, items[i].json...)
				body = append(body, ',')
			}
		}
		body[len(body)-1] = ']'
	}
	return append(body, '}')
}

// parseSnapTag is snapTag's inverse. It accepts only a string snapTag could
// have rendered, so a tag that merely parses to a recorded snapshot's numbers
// ("07.0") is as unknown as it is to a string comparison.
func parseSnapTag(tag string) (ver, rev int64, ok bool) {
	v, r, _ := strings.Cut(tag, ".")
	ver, errV := strconv.ParseInt(v, 10, 64)
	rev, errR := strconv.ParseInt(r, 10, 64)
	return ver, rev, errV == nil && errR == nil && snapTag(ver, rev) == tag
}

// mergeDelta applies a DeltaResponse to a URL-sorted base list and returns
// a fresh URL-sorted result equal to the server's current full list. Used
// by Client; base is never mutated.
func mergeDelta(base []Entry, changed []Entry, removed []string) []Entry {
	rm := make(map[string]bool, len(removed))
	for _, u := range removed {
		rm[u] = true
	}
	out := make([]Entry, 0, len(base)+len(changed))
	i, j := 0, 0
	for i < len(base) || j < len(changed) {
		switch {
		case j >= len(changed) || (i < len(base) && base[i].URL < changed[j].URL):
			if !rm[base[i].URL] {
				out = append(out, base[i])
			}
			i++
		case i >= len(base) || changed[j].URL < base[i].URL:
			out = append(out, changed[j])
			j++
		default:
			out = append(out, changed[j])
			i++
			j++
		}
	}
	return out
}
