package globaldb

import (
	"encoding/json"
	"time"
	"unicode/utf8"
)

// decodeReport decodes a /v1/report body. The fast path, scanReport, walks
// the body once without reflection. A body it does not expect — a key that
// is unknown, repeated or differently cased, a number with a fraction or
// exponent or out of range, a value of the wrong type, anything but JSON —
// goes to json.Unmarshal whole, unchanged. The fallback is the definition:
// whatever the fast path accepts, json.Unmarshal accepts and decodes to the
// same value (FuzzReportDecode), so the reports stored and the requests
// refused are encoding/json's.
func decodeReport(body []byte) (ReportRequest, error) {
	if req, ok := scanReport(body); ok {
		return req, nil
	}
	var req ReportRequest
	err := json.Unmarshal(body, &req)
	return req, err
}

// scanReport is decodeReport's fast path; ok is false on any surprise.
// Every string is a copy: httpx reuses the body's buffer.
func scanReport(body []byte) (req ReportRequest, ok bool) {
	s := jsonScan{b: body}
	var seen uint8
	ok = s.object(func(key []byte) bool {
		switch string(key) {
		case "uuid":
			return once(&seen, 1) && s.str(&req.UUID)
		case "reports":
			return once(&seen, 2) && s.reports(&req.Reports)
		}
		return false
	})
	s.space()
	return req, ok && s.i == len(s.b)
}

// jsonScan is a cursor over a JSON body. Its methods accept a subset of
// JSON, each value exactly as encoding/json would decode it into the field
// it fills, and return false on anything else.
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

// time decodes a plain string token with time.Time.UnmarshalJSON, the call
// encoding/json makes with the same bytes.
func (s *jsonScan) time(v *time.Time) bool {
	tok, plain, ok := s.quoted()
	return ok && plain && v.UnmarshalJSON(tok) == nil
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
