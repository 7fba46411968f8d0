package dnsx

// The codec this package had before a frame was built and read in place
// (wireLen/appendWire, ReadFrame), kept as the oracle FuzzCodecVsReference
// holds the new one to: same accept/reject, same decoded message, same
// bytes back on the wire. It is the old code with its names prefixed — do
// not "improve" it.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

type refMessage struct {
	ID                 uint16
	Response           bool
	Opcode             uint8
	Authoritative      bool
	RecursionDesired   bool
	RecursionAvailable bool
	RCode              int
	Questions          []Question
	Answers            []RR
	Authority          []RR
	Additional         []RR
}

func (m *refMessage) refReply() *refMessage {
	return &refMessage{
		ID:                 m.ID,
		Response:           true,
		Opcode:             m.Opcode,
		RecursionDesired:   m.RecursionDesired,
		RecursionAvailable: true,
		Questions:          append([]Question(nil), m.Questions...),
	}
}

func (m *refMessage) refAnswerA(name, ip string, ttl uint32) *refMessage {
	m.Answers = append(m.Answers, RR{Name: CanonicalName(name), Type: TypeA, Class: ClassIN, TTL: ttl, Data: ip})
	return m
}

func (m *refMessage) refMarshal() ([]byte, error) {
	buf := make([]byte, 12, 64)
	binary.BigEndian.PutUint16(buf[0:2], m.ID)
	var flags uint16
	if m.Response {
		flags |= flagQR
	}
	flags |= uint16(m.Opcode&0xF) << 11
	if m.Authoritative {
		flags |= flagAA
	}
	if m.RecursionDesired {
		flags |= flagRD
	}
	if m.RecursionAvailable {
		flags |= flagRA
	}
	flags |= uint16(m.RCode & 0xF)
	binary.BigEndian.PutUint16(buf[2:4], flags)
	binary.BigEndian.PutUint16(buf[4:6], uint16(len(m.Questions)))
	binary.BigEndian.PutUint16(buf[6:8], uint16(len(m.Answers)))
	binary.BigEndian.PutUint16(buf[8:10], uint16(len(m.Authority)))
	binary.BigEndian.PutUint16(buf[10:12], uint16(len(m.Additional)))

	var err error
	for _, q := range m.Questions {
		if buf, err = refAppendName(buf, q.Name); err != nil {
			return nil, err
		}
		buf = binary.BigEndian.AppendUint16(buf, q.Type)
		buf = binary.BigEndian.AppendUint16(buf, q.Class)
	}
	for _, set := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for _, rr := range set {
			if buf, err = refAppendRR(buf, rr); err != nil {
				return nil, err
			}
		}
	}
	return buf, nil
}

func refAppendName(buf []byte, name string) ([]byte, error) {
	name = CanonicalName(name)
	if name != "" {
		for _, label := range strings.Split(name, ".") {
			if len(label) == 0 || len(label) > 63 {
				return nil, fmt.Errorf("%w: label %q", ErrBadName, label)
			}
			buf = append(buf, byte(len(label)))
			buf = append(buf, label...)
		}
	}
	return append(buf, 0), nil
}

func refAppendRR(buf []byte, rr RR) ([]byte, error) {
	buf, err := refAppendName(buf, rr.Name)
	if err != nil {
		return nil, err
	}
	buf = binary.BigEndian.AppendUint16(buf, rr.Type)
	buf = binary.BigEndian.AppendUint16(buf, rr.Class)
	buf = binary.BigEndian.AppendUint32(buf, rr.TTL)
	var rdata []byte
	switch rr.Type {
	case TypeA:
		ip, err := refParseIPv4(rr.Data)
		if err != nil {
			return nil, err
		}
		rdata = ip
	case TypeCNAME, TypeNS:
		rdata, err = refAppendName(nil, rr.Data)
		if err != nil {
			return nil, err
		}
	case TypeTXT:
		if len(rr.Data) > 255 {
			return nil, fmt.Errorf("dnsx: TXT data too long (%d)", len(rr.Data))
		}
		rdata = append([]byte{byte(len(rr.Data))}, rr.Data...)
	default:
		rdata = []byte(rr.Data)
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(rdata)))
	return append(buf, rdata...), nil
}

func refParseIPv4(s string) ([]byte, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return nil, fmt.Errorf("dnsx: bad IPv4 %q", s)
	}
	ip := make([]byte, 4)
	for i, p := range parts {
		var v int
		for _, c := range p {
			if c < '0' || c > '9' {
				return nil, fmt.Errorf("dnsx: bad IPv4 %q", s)
			}
			v = v*10 + int(c-'0')
		}
		if len(p) == 0 || v > 255 {
			return nil, fmt.Errorf("dnsx: bad IPv4 %q", s)
		}
		ip[i] = byte(v)
	}
	return ip, nil
}

func refUnmarshal(b []byte) (*refMessage, error) {
	if len(b) < 12 {
		return nil, ErrTruncatedMessage
	}
	m := &refMessage{ID: binary.BigEndian.Uint16(b[0:2])}
	flags := binary.BigEndian.Uint16(b[2:4])
	m.Response = flags&flagQR != 0
	m.Opcode = uint8(flags >> 11 & 0xF)
	m.Authoritative = flags&flagAA != 0
	m.RecursionDesired = flags&flagRD != 0
	m.RecursionAvailable = flags&flagRA != 0
	m.RCode = int(flags & 0xF)
	qd := int(binary.BigEndian.Uint16(b[4:6]))
	an := int(binary.BigEndian.Uint16(b[6:8]))
	ns := int(binary.BigEndian.Uint16(b[8:10]))
	ar := int(binary.BigEndian.Uint16(b[10:12]))

	off := 12
	var err error
	for i := 0; i < qd; i++ {
		var q Question
		q.Name, off, err = refReadName(b, off)
		if err != nil {
			return nil, err
		}
		if off+4 > len(b) {
			return nil, ErrTruncatedMessage
		}
		q.Type = binary.BigEndian.Uint16(b[off:])
		q.Class = binary.BigEndian.Uint16(b[off+2:])
		off += 4
		m.Questions = append(m.Questions, q)
	}
	readRRs := func(count int) ([]RR, error) {
		var rrs []RR
		for i := 0; i < count; i++ {
			var rr RR
			rr.Name, off, err = refReadName(b, off)
			if err != nil {
				return nil, err
			}
			if off+10 > len(b) {
				return nil, ErrTruncatedMessage
			}
			rr.Type = binary.BigEndian.Uint16(b[off:])
			rr.Class = binary.BigEndian.Uint16(b[off+2:])
			rr.TTL = binary.BigEndian.Uint32(b[off+4:])
			rdlen := int(binary.BigEndian.Uint16(b[off+8:]))
			off += 10
			if off+rdlen > len(b) {
				return nil, ErrTruncatedMessage
			}
			rdata := b[off : off+rdlen]
			switch rr.Type {
			case TypeA:
				if rdlen != 4 {
					return nil, fmt.Errorf("dnsx: A record rdlen %d", rdlen)
				}
				rr.Data = formatIPv4(rdata)
			case TypeCNAME, TypeNS:
				name, _, err := refReadName(b, off)
				if err != nil {
					return nil, err
				}
				rr.Data = name
			case TypeTXT:
				if rdlen > 0 {
					n := int(rdata[0])
					if n+1 > rdlen {
						return nil, ErrTruncatedMessage
					}
					rr.Data = string(rdata[1 : 1+n])
				}
			default:
				rr.Data = string(rdata)
			}
			off += rdlen
			rrs = append(rrs, rr)
		}
		return rrs, nil
	}
	if m.Answers, err = readRRs(an); err != nil {
		return nil, err
	}
	if m.Authority, err = readRRs(ns); err != nil {
		return nil, err
	}
	if m.Additional, err = readRRs(ar); err != nil {
		return nil, err
	}
	return m, nil
}

func refReadName(b []byte, off int) (string, int, error) {
	// Labels are joined with dots as they are read, in room for any legal
	// name (a longer, illegal one spills to the heap), and the name is made
	// a string once.
	var room [255]byte
	name := room[:0]
	jumped := false
	end := off
	for hops := 0; ; hops++ {
		if hops > 64 {
			return "", 0, ErrBadPointer
		}
		if off >= len(b) {
			return "", 0, ErrTruncatedMessage
		}
		c := int(b[off])
		switch {
		case c == 0:
			if !jumped {
				end = off + 1
			}
			return string(name), end, nil
		case c&0xC0 == 0xC0:
			if off+1 >= len(b) {
				return "", 0, ErrTruncatedMessage
			}
			ptr := (c&0x3F)<<8 | int(b[off+1])
			if !jumped {
				end = off + 2
			}
			if ptr >= off {
				return "", 0, ErrBadPointer
			}
			off = ptr
			jumped = true
		case c&0xC0 != 0:
			return "", 0, ErrBadName
		default:
			if off+1+c > len(b) {
				return "", 0, ErrTruncatedMessage
			}
			if len(name) > 0 {
				name = append(name, '.')
			}
			name = append(name, b[off+1:off+1+c]...)
			off += 1 + c
		}
	}
}

func refWriteMessage(w io.Writer, m *refMessage) error {
	b, err := m.refMarshal()
	if err != nil {
		return err
	}
	frame := make([]byte, 2+len(b))
	binary.BigEndian.PutUint16(frame, uint16(len(b)))
	copy(frame[2:], b)
	_, err = w.Write(frame)
	return err
}

func refReadMessage(r io.Reader) (*refMessage, error) {
	var lb [2]byte
	if _, err := io.ReadFull(r, lb[:]); err != nil {
		return nil, err
	}
	b := make([]byte, binary.BigEndian.Uint16(lb[:]))
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return refUnmarshal(b)
}

// asRef is m's exported fields as the reference holds them: a section
// with nothing in it is nil there, and may start in m's room here.
func asRef(m *Message) *refMessage {
	if m == nil {
		return nil
	}
	return &refMessage{
		ID: m.ID, Response: m.Response, Opcode: m.Opcode, Authoritative: m.Authoritative,
		RecursionDesired: m.RecursionDesired, RecursionAvailable: m.RecursionAvailable, RCode: m.RCode,
		Questions: nilIfEmpty(m.Questions), Answers: nilIfEmpty(m.Answers),
		Authority: nilIfEmpty(m.Authority), Additional: nilIfEmpty(m.Additional),
	}
}

func nilIfEmpty[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// codecSeeds are wire messages for the codec targets: what production sends
// (a query, one- and two-answer responses, an RCODE-only reply), the
// encoder's edge cases once decoded (upper case, non-ASCII and invalid
// UTF-8 labels, a label holding a dot, empty and 63-byte labels, every
// record type) and the decoder's (pointers, truncation, a pointer loop).
func codecSeeds() [][]byte {
	must := func(b []byte, err error) []byte {
		if err != nil {
			panic(err)
		}
		return b
	}
	two := NewQuery(7, "news.example.pk").Reply().AnswerA("news.example.pk", "10.9.8.7", 300).AnswerA("news.example.pk", "10.9.8.8", 300)
	nx := NewQuery(9, "missing.example").Reply()
	nx.RCode = RCodeNXDomain
	mixed := NewQuery(4, "cdn.example").Reply()
	mixed.Answers = append(mixed.Answers,
		RR{Name: "cdn.example", Type: TypeCNAME, Class: ClassIN, TTL: 30, Data: "edge.example"},
		RR{Name: "edge.example", Type: TypeA, Class: ClassIN, TTL: 30, Data: "198.51.100.4"},
		RR{Name: "edge.example", Type: TypeA, Class: ClassIN, TTL: 30, Data: "198.51.100.5"})
	mixed.Authority = append(mixed.Authority, RR{Name: "example", Type: TypeNS, Class: ClassIN, TTL: 3600, Data: "ns1.example"})
	mixed.Additional = append(mixed.Additional,
		RR{Name: "note.example", Type: TypeTXT, Class: ClassIN, TTL: 10, Data: "censorship measurement"},
		RR{Name: "raw.example", Type: 99, Class: ClassIN, TTL: 10, Data: "\x00\x01raw"})
	seeds := [][]byte{
		must(NewQuery(0x1234, "www.youtube.com").Marshal()),
		must(two.Marshal()),
		must(nx.Marshal()),
		must(mixed.Marshal()),
		must(NewQuery(1, strings.Repeat("a", 63)+".example").Marshal()),
		{0x00, 0x01, 0x02},
	}
	// Labels the decoder passes through as they are, which the encoder
	// lowers, refuses or repairs.
	for _, label := range []string{"WWW", "\xc3\x89COLE", "\xe1\xba\x9e", "\xff\xfe", "a.b", "", strings.Repeat("Z", 63)} {
		b := must(NewQuery(2, "x.example").Marshal())
		head, tail := b[:12], b[12+1+1:] // drop the "x" label
		seeds = append(seeds, append(append(append(bytes.Clone(head), byte(len(label))), label...), tail...))
	}
	// A response naming its answer by a pointer to the question.
	seeds = append(seeds, []byte{
		0x12, 0x34, 0x81, 0x80, 0x00, 0x01, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00,
		0x01, 'a', 0x02, 'b', 'c', 0x00, 0x00, 0x01, 0x00, 0x01,
		0xC0, 0x0C, 0x00, 0x01, 0x00, 0x01, 0x00, 0x00, 0x00, 0x3C, 0x00, 0x04, 0x7F, 0x00, 0x00, 0x01,
	})
	// A pointer to itself, and a message cut inside its answer.
	q := must(NewQuery(9, "x.example").Marshal())
	q[5] = 2
	seeds = append(seeds, append(bytes.Clone(q), 0xC0, byte(len(q)), 0, 1, 0, 1))
	seeds = append(seeds, must(two.Marshal())[:40])
	return seeds
}

// FuzzCodecVsReference holds the codec to the one it replaced
// (refUnmarshal, refMarshal): the same accept/reject with the same error,
// the same decoded message, and the same bytes back — for the decoded
// message, its Reply with an A record for ip (any string: parseIPv4's
// accept/reject is under test too), and both framed for the wire.
func FuzzCodecVsReference(f *testing.F) {
	for _, s := range codecSeeds() {
		f.Add(s, "203.0.113.7")
	}
	for _, ip := range []string{"1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "1..2.3", "00.0.0.255", "", "1.2.3.99999999999999999999"} {
		f.Add(codecSeeds()[1], ip)
	}
	f.Fuzz(func(t *testing.T, data []byte, ip string) {
		m, err := Unmarshal(data)
		ref, refErr := refUnmarshal(data)
		if errText(err) != errText(refErr) || (m == nil) != (ref == nil) {
			t.Fatalf("Unmarshal: %v (message %v), reference: %v (message %v)", err, m != nil, refErr, ref != nil)
		}
		if m == nil {
			return
		}
		if !reflect.DeepEqual(asRef(m), ref) {
			t.Fatalf("decoded\n%+v\nreference decoded\n%+v", asRef(m), ref)
		}
		same := func(what string, m *Message, ref *refMessage) {
			t.Helper()
			b, err := m.Marshal()
			refB, refErr := ref.refMarshal()
			if errText(err) != errText(refErr) || !bytes.Equal(b, refB) {
				t.Fatalf("%s: Marshal %x, %v; reference %x, %v", what, b, err, refB, refErr)
			}
			var w, refW bytes.Buffer
			err, refErr = WriteMessage(&w, m), refWriteMessage(&refW, ref)
			if errText(err) != errText(refErr) || !bytes.Equal(w.Bytes(), refW.Bytes()) {
				t.Fatalf("%s: WriteMessage %x, %v; reference %x, %v", what, w.Bytes(), err, refW.Bytes(), refErr)
			}
		}
		same("decoded", m, ref)
		name := ""
		if len(m.Questions) > 0 {
			name = m.Questions[0].Name
		}
		same("reply", m.Reply().AnswerA(name, ip, 60), ref.refReply().refAnswerA(name, ip, 60))
	})
}
