package globaldb

import (
	"encoding/json"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"
)

// The JSON bodies the global DB moves in bulk are walked once without
// reflection: the server's /v1/report body and the client's /v1/blocked
// bodies. A body a fast path does not expect — a key that is unknown,
// repeated or differently cased, a number with a fraction or exponent or out
// of range, a value of the wrong type, anything but JSON — goes to
// json.Unmarshal whole, unchanged. The fallback is the definition: whatever
// a fast path accepts, json.Unmarshal accepts and decodes to the same value
// (FuzzReportDecode, FuzzListDecode), so the reports stored, the lists
// cached and the bodies refused are encoding/json's.

// unmarshal is the fallback every decoder shares: json.Unmarshal of the
// whole body into a fresh T, which only this path allocates.
func unmarshal[T any](body []byte) (T, error) {
	var v T
	err := json.Unmarshal(body, &v)
	return v, err
}

// decodeReport decodes a /v1/report body.
func decodeReport(body []byte) (ReportRequest, error) {
	if req, ok := scanReport(body); ok {
		return req, nil
	}
	return unmarshal[ReportRequest](body)
}

// scanReport is decodeReport's fast path; ok is false on any surprise.
func scanReport(body []byte) (req ReportRequest, ok bool) {
	s := jsonScan{b: body}
	ok = s.reportRequest(&req) && s.end()
	return req, ok
}

// jsonScan is a cursor over a JSON body. Its methods accept a subset of
// JSON, each value exactly as encoding/json would decode it into the field
// it fills, and return false on anything else. Every string is a copy:
// httpx reuses the body's buffer.
type jsonScan struct {
	b []byte
	i int
}

// once reports whether bit is new to seen, and adds it: a key seen twice is
// a surprise.
func once(seen *uint8, bit uint8) bool {
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

func (s *jsonScan) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// end reports whether nothing but whitespace is left.
func (s *jsonScan) end() bool {
	s.space()
	return s.i == len(s.b)
}

// eat consumes c, after any whitespace.
func (s *jsonScan) eat(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// null consumes a null literal, after any whitespace.
func (s *jsonScan) null() bool {
	s.space()
	if len(s.b)-s.i >= 4 && string(s.b[s.i:s.i+4]) == "null" {
		s.i += 4
		return true
	}
	return false
}

// object walks an object, handing each key to member, which decodes the
// value. A key that is not a plain string matches no field.
func (s *jsonScan) object(member func(key []byte) bool) bool {
	if !s.eat('{') {
		return false
	}
	if s.eat('}') {
		return true
	}
	for {
		tok, plain, ok := s.quoted()
		if !ok || !plain || !s.eat(':') || !member(tok[1:len(tok)-1]) {
			return false
		}
		if s.eat('}') {
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
}

// array walks an array, calling elem to decode each element.
func (s *jsonScan) array(elem func() bool) bool {
	if !s.eat('[') {
		return false
	}
	if s.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if s.eat(']') {
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
}

// quoted scans a string token, quotes included. plain reports that the
// bytes between the quotes are the string: no escape, no control character
// and valid UTF-8.
func (s *jsonScan) quoted() (tok []byte, plain, ok bool) {
	s.space()
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		return nil, false, false
	}
	start, esc, high := s.i, false, false
	for s.i++; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			tok = s.b[start:s.i]
			return tok, !esc && (!high || utf8.Valid(tok)), true
		case c == '\\':
			esc = true
			s.i++ // the escaped byte cannot end the token
		case c < 0x20:
			esc = true
		case c >= utf8.RuneSelf:
			high = true
		}
	}
	return nil, false, false
}

// str decodes a string. A token that is not plain is unquoted by
// json.Unmarshal of the token alone, which also rejects a bad escape.
func (s *jsonScan) str(v *string) bool {
	tok, plain, ok := s.quoted()
	if !ok {
		return false
	}
	if plain {
		*v = string(tok[1 : len(tok)-1])
		return true
	}
	var u string // declared here so that only this path allocates it
	if json.Unmarshal(tok, &u) != nil {
		return false
	}
	*v = u
	return true
}

// name decodes a string to its bytes, which are the body's own unless the
// token has escapes to undo: for a string that is looked up before it is
// kept.
func (s *jsonScan) name() ([]byte, bool) {
	tok, plain, ok := s.quoted()
	if !ok {
		return nil, false
	}
	if plain {
		return tok[1 : len(tok)-1], true
	}
	var u string
	if json.Unmarshal(tok, &u) != nil {
		return nil, false
	}
	return []byte(u), true
}

// digits consumes a run of decimal digits and returns its length.
func (s *jsonScan) digits() int {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i - start
}

// int decodes an integer of at most 18 digits, without fraction or
// exponent: every such literal is one strconv.ParseInt takes exactly, as
// encoding/json does.
func (s *jsonScan) int(v *int) bool {
	s.space()
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	start, n := s.i, 0
	for ; s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9'; s.i++ {
		n = n*10 + int(s.b[s.i]-'0')
	}
	if digits := s.i - start; digits == 0 || digits > 18 || (digits > 1 && s.b[start] == '0') {
		return false
	}
	if neg {
		n = -n
	}
	*v = n
	return true
}

// float decodes a number into a float64 as encoding/json does: a literal of
// the JSON number grammar, parsed by strconv.ParseFloat. A literal out of
// float64's range is an error there, so it is refused here.
func (s *jsonScan) float(v *float64) bool {
	s.space()
	start := s.i
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	if s.i < len(s.b) && s.b[s.i] == '0' {
		s.i++
	} else if s.digits() == 0 {
		return false
	}
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		if s.digits() == 0 {
			return false
		}
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.i++
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if s.digits() == 0 {
			return false
		}
	}
	f, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	*v = f
	return err == nil
}

// time decodes a plain string token with time.Time.UnmarshalJSON, the call
// encoding/json makes with the same bytes.
func (s *jsonScan) time(v *time.Time) bool {
	tok, plain, ok := s.quoted()
	return ok && plain && v.UnmarshalJSON(tok) == nil
}

// reportRequest decodes a /v1/report body.
func (s *jsonScan) reportRequest(req *ReportRequest) bool {
	var seen uint8
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "uuid":
			return once(&seen, 1) && s.str(&req.UUID)
		case "reports":
			return once(&seen, 2) && s.reports(&req.Reports)
		}
		return false
	})
}

// reports decodes the report list.
func (s *jsonScan) reports(v *[]Report) bool {
	return list(s, v, func() (r Report, ok bool) {
		var seen uint8
		ok = s.object(func(key []byte) bool {
			switch string(key) {
			case "url":
				return once(&seen, 1) && s.str(&r.URL)
			case "asn":
				return once(&seen, 2) && s.int(&r.ASN)
			case "stages":
				return once(&seen, 4) && s.stages(&r.Stages)
			case "tm":
				return once(&seen, 8) && s.time(&r.Tm)
			}
			return false
		})
		return r, ok
	})
}

// stages decodes a report's stage list.
func (s *jsonScan) stages(v *[]WireStage) bool {
	return list(s, v, func() (w WireStage, ok bool) {
		var seen uint8
		ok = s.object(func(key []byte) bool {
			switch string(key) {
			case "type":
				return once(&seen, 1) && s.int(&w.Type)
			case "detail":
				return once(&seen, 2) && s.str(&w.Detail)
			}
			return false
		})
		return w, ok
	})
}

// list decodes an array, elem decoding each element: null leaves the list
// nil, [] makes it empty. Elements gather on the stack and are copied out
// once, so a list costs one allocation.
func list[T any](s *jsonScan, v *[]T, elem func() (T, bool)) bool {
	if s.null() {
		return true
	}
	var buf [8]T
	xs := buf[:0]
	ok := s.array(func() bool {
		x, ok := elem()
		xs = append(xs, x)
		return ok
	})
	if !ok {
		return false
	}
	*v = append(make([]T, 0, len(xs)), xs...)
	return true
}

// listBody is a decoded /v1/blocked 200 body: a full list, or a delta
// already spliced into the list it was taken against.
type listBody struct {
	asn     int
	since   string  // a delta's base tag
	entries []Entry // URL-sorted
}

// decodeList decodes a full (FetchResponse) or delta (DeltaResponse) body
// against base, the AS's cached URL-sorted list. The fast path, scanList,
// shares base's strings and stage lists with the entries that repeat them,
// and splices a delta without an intermediate list. A body it refuses goes
// to json.Unmarshal: its full list is sorted, and its delta put in order —
// a URL named twice keeps its first line — and spliced.
func decodeList(body []byte, base []Entry, delta bool) (listBody, error) {
	if l, ok := scanList(body, base, delta); ok {
		return l, nil
	}
	if !delta {
		fr, err := unmarshal[FetchResponse](body)
		slices.SortStableFunc(fr.Entries, byURL)
		return listBody{asn: fr.ASN, entries: fr.Entries}, err
	}
	dr, err := unmarshal[DeltaResponse](body)
	if err != nil {
		return listBody{}, err
	}
	slices.SortStableFunc(dr.Changed, byURL)
	changed := slices.CompactFunc(dr.Changed, func(a, b Entry) bool { return a.URL == b.URL })
	slices.Sort(dr.Removed)
	return listBody{asn: dr.ASN, since: dr.Since, entries: splice(base, changed, dr.Removed)}, nil
}

// deltaSince reads a delta body's base tag from the body's head — the
// "asn" and "since" members that lead every delta the server writes —
// without decoding the rest. ok is false for a body that does not open so.
func deltaSince(body []byte) (since []byte, ok bool) {
	s := jsonScan{b: body}
	var seen uint8
	s.object(func(key []byte) bool {
		switch string(key) {
		case "asn":
			var asn int
			return once(&seen, 1) && s.int(&asn)
		case "since":
			since, ok = s.name()
		}
		return false // stop at since, or at anything else
	})
	return since, ok
}

func byURL(a, b Entry) int { return strings.Compare(a.URL, b.URL) }

// search returns the index of url in es, a URL-sorted list, or where it
// would go, and whether it is there.
func search(es []Entry, url string) (int, bool) {
	i := sort.Search(len(es), func(i int) bool { return es[i].URL >= url })
	return i, i < len(es) && es[i].URL == url
}

// splice applies a delta to base, which it never writes: each of changed's
// entries (URL-sorted, no URL twice) takes the place of base's entry for its
// URL or joins the list, and base's entries for the URLs of removed (sorted;
// a URL named more than once goes once) go. The result is sized exactly, and
// base's runs between changes are copied whole.
func splice(base, changed []Entry, removed []string) []Entry {
	n := len(base)
	for _, c := range changed {
		if _, ok := search(base, c.URL); !ok {
			n++
		}
	}
	for i, u := range removed {
		if i > 0 && u == removed[i-1] {
			continue
		}
		if _, ok := search(base, u); ok {
			if _, kept := search(changed, u); !kept {
				n--
			}
		}
	}
	out := make([]Entry, 0, n)
	i := 0
	for _, c := range changed {
		j, ok := search(base[i:], c.URL)
		out = keep(out, base[i:i+j], &removed)
		out = append(out, c)
		if i += j; ok {
			i++
		}
	}
	return keep(out, base[i:], &removed)
}

// keep appends run, a stretch of splice's base, to out without the entries
// that removed names, and consumes the names up to the run's end.
func keep(out, run []Entry, removed *[]string) []Entry {
	for len(*removed) > 0 {
		j, ok := search(run, (*removed)[0])
		if j == len(run) {
			break // a name for a later run
		}
		out = append(out, run[:j]...)
		if ok {
			j++
		}
		run, *removed = run[j:], (*removed)[1:]
	}
	return append(out, run...)
}

// listScratch is where scanList gathers a body's entries and removals
// before it sizes the list they make, and its memo of the stage lists the
// body has built. It is pooled: a sync round allocates only what it keeps.
type listScratch struct {
	got  []Entry
	gone []string
	memo [][]WireStage
}

var scratchPool = sync.Pool{New: func() any { return new(listScratch) }}

// maxMemo bounds the stage lists one body remembers. An AS's censor blocks
// most URLs the same few ways, so a body repeats its stage lists: in a
// 10k-client fleet the memo supplies more of them than the base does
// (PERF_LOG.md, "encoding/json leaves the list path"). A miss costs only
// the allocation sharing would have saved.
const maxMemo = 16

// listScan is scanList's cursor: a jsonScan over the body and the list the
// body is decoded against.
type listScan struct {
	jsonScan
	*listScratch
	base []Entry
	at   int // base[:at] sorts before every URL still to come
}

// scanList is decodeList's fast path; ok is false on any surprise, which
// includes a list whose URLs are not strictly increasing. Every entry whose
// URL base holds takes base's string, and with a stage list equal to that
// entry's, its slice as well; a stage list that is new takes the slice of an
// equal one the body built before. The cache is read-only, so sharing is
// safe, and an entry base already holds costs no allocation.
func scanList(body []byte, base []Entry, delta bool) (l listBody, ok bool) {
	sc := scratchPool.Get().(*listScratch)
	s := listScan{jsonScan: jsonScan{b: body}, listScratch: sc, base: base}
	var seen uint8
	listed := false // the entries key held a list, not null
	ok = s.object(func(key []byte) bool {
		switch string(key) {
		case "asn":
			return once(&seen, 1) && s.int(&l.asn)
		case "entries":
			return !delta && once(&seen, 2) && s.entryList(&listed)
		case "since":
			return delta && once(&seen, 2) && s.str(&l.since)
		case "changed":
			return delta && once(&seen, 4) && s.entryList(&listed)
		case "removed":
			return delta && once(&seen, 8) && s.removed()
		}
		return false
	}) && s.end()
	switch {
	case !ok:
	case delta:
		l.entries = splice(base, s.got, s.gone)
	case listed:
		l.entries = append(make([]Entry, 0, len(s.got)), s.got...)
	}
	clear(sc.got)
	clear(sc.gone)
	clear(sc.memo)
	sc.got, sc.gone, sc.memo = sc.got[:0], sc.gone[:0], sc.memo[:0]
	scratchPool.Put(sc)
	return l, ok
}

// entryList decodes a list of entries into s.got.
func (s *listScan) entryList(listed *bool) bool {
	if s.null() {
		return true
	}
	*listed = true
	return s.array(func() bool {
		e, ok := s.entry()
		if !ok || (len(s.got) > 0 && s.got[len(s.got)-1].URL >= e.URL) {
			return false
		}
		s.got = append(s.got, e)
		return true
	})
}

// entry decodes one entry. Its URL must come before its stages, as the
// server writes them, so that the stages are compared with base's entry for
// the URL.
func (s *listScan) entry() (e Entry, ok bool) {
	var (
		seen uint8
		from *Entry // base's entry for e.URL
	)
	ok = s.object(func(key []byte) bool {
		switch string(key) {
		case "url":
			return once(&seen, 1) && s.url(&e.URL, &from)
		case "asn":
			return once(&seen, 2) && s.int(&e.ASN)
		case "stages":
			return seen&1 != 0 && once(&seen, 4) && s.stageList(&e.Stages, from)
		case "last_tp":
			return once(&seen, 8) && s.time(&e.LastTp)
		case "s":
			return once(&seen, 16) && s.float(&e.Votes)
		case "n":
			return once(&seen, 32) && s.int(&e.Reporters)
		}
		return false
	})
	return e, ok
}

// url decodes an entry's URL, taking base's string, and base's entry as
// from, when base holds the URL. The cursor only moves forward: the URLs of
// a list the fast path takes increase.
func (s *listScan) url(v *string, from **Entry) bool {
	name, ok := s.name()
	if !ok {
		return false
	}
	if e := find(s.base, &s.at, name); e != nil {
		*v, *from = e.URL, e
	} else {
		*v = string(name)
	}
	return true
}

// find moves *at past base's URLs below name and returns base's entry for
// name, or nil.
func find(base []Entry, at *int, name []byte) *Entry {
	for *at < len(base) && base[*at].URL < string(name) {
		*at++
	}
	if *at < len(base) && base[*at].URL == string(name) {
		return &base[*at]
	}
	return nil
}

// removed decodes a delta's removed URLs, strictly increasing, into s.gone:
// base's string for each URL base holds, and nothing for the others, which
// remove nothing.
func (s *listScan) removed() bool {
	if s.null() {
		return true
	}
	var last []byte
	at, n := 0, 0
	return s.array(func() bool {
		name, ok := s.name()
		if !ok || (n > 0 && string(last) >= string(name)) {
			return false
		}
		if e := find(s.base, &at, name); e != nil {
			s.gone = append(s.gone, e.URL)
		}
		last, n = name, n+1
		return true
	})
}

// stageTok is one stage as the body spells it: its type, and its detail's
// string token (nil: no detail key).
type stageTok struct {
	typ    int
	detail []byte
	plain  bool
}

// stageList decodes an entry's stage list. One equal to from's is from's
// slice, and one equal to a list the body built before is that list: only a
// list new to the body allocates.
func (s *listScan) stageList(v *[]WireStage, from *Entry) bool {
	if s.null() {
		return true
	}
	var buf [4]stageTok
	toks := buf[:0]
	ok := s.array(func() bool {
		var (
			t    stageTok
			seen uint8
		)
		ok := s.object(func(key []byte) bool {
			switch string(key) {
			case "type":
				return once(&seen, 1) && s.int(&t.typ)
			case "detail":
				var ok bool
				t.detail, t.plain, ok = s.quoted()
				return once(&seen, 2) && ok
			}
			return false
		})
		toks = append(toks, t)
		return ok
	})
	if !ok {
		return false
	}
	if from != nil && sameStages(toks, from.Stages) {
		*v = from.Stages
		return true
	}
	for _, m := range s.memo {
		if sameStages(toks, m) {
			*v = m
			return true
		}
	}
	out := make([]WireStage, len(toks))
	for i, t := range toks {
		out[i].Type = t.typ
		switch {
		case t.detail == nil:
		case t.plain:
			out[i].Detail = string(t.detail[1 : len(t.detail)-1])
		case json.Unmarshal(t.detail, &out[i].Detail) != nil:
			return false
		}
	}
	if len(s.memo) < maxMemo {
		s.memo = append(s.memo, out)
	}
	*v = out
	return true
}

// sameStages reports whether toks decode to list: a list, not null, of the
// same types and details. A detail with escapes is never the same: it is
// unquoted only when a list is built.
func sameStages(toks []stageTok, list []WireStage) bool {
	if list == nil || len(list) != len(toks) {
		return false
	}
	for i, t := range toks {
		switch {
		case t.typ != list[i].Type:
			return false
		case t.detail == nil:
			if list[i].Detail != "" {
				return false
			}
		case !t.plain || string(t.detail[1:len(t.detail)-1]) != list[i].Detail:
			return false
		}
	}
	return true
}
