// Package dnsx implements the DNS subset the C-Saw reproduction needs: an
// RFC-1035-style wire codec (A/CNAME/TXT records, compression-pointer
// decoding), authoritative and recursive servers that run on emulated hosts,
// and a stub resolver whose timeout/retry behaviour reproduces the detection
// times in Table 5 of the paper (REFUSED fails in one RTT, SERVFAIL after
// retries ≈10.6 s, silent drops after the full attempt budget).
//
// Transport note: queries travel over netem stream connections with a
// two-byte length prefix — DNS-over-TCP framing — because the emulator
// models connections, not datagrams. Every failure mode a censor can induce
// on UDP DNS (no answer, bogus answer, NXDOMAIN/SERVFAIL/REFUSED, redirect
// to a block-page host) is representable on this transport, which is what
// the detection logic cares about.
package dnsx

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Query/response codes (RCODEs) used by the censor and detection logic.
const (
	RCodeNoError  = 0
	RCodeFormErr  = 1
	RCodeServFail = 2
	RCodeNXDomain = 3
	RCodeNotImp   = 4
	RCodeRefused  = 5
)

// RCodeName returns the conventional name for an RCODE.
func RCodeName(rc int) string {
	switch rc {
	case RCodeNoError:
		return "NOERROR"
	case RCodeFormErr:
		return "FORMERR"
	case RCodeServFail:
		return "SERVFAIL"
	case RCodeNXDomain:
		return "NXDOMAIN"
	case RCodeNotImp:
		return "NOTIMP"
	case RCodeRefused:
		return "REFUSED"
	default:
		return fmt.Sprintf("RCODE%d", rc)
	}
}

// Record types.
const (
	TypeA     = 1
	TypeNS    = 2
	TypeCNAME = 5
	TypeTXT   = 16
)

// ClassIN is the only class in use.
const ClassIN = 1

// Question is a DNS question section entry.
type Question struct {
	Name  string
	Type  uint16
	Class uint16
}

// RR is a resource record. Data holds the presentation form: a dotted quad
// for A records, a domain name for CNAME/NS, and raw text for TXT.
type RR struct {
	Name  string
	Type  uint16
	Class uint16
	TTL   uint32
	Data  string
}

// Message is a DNS message. One that NewQuery, Reply or Unmarshal made keeps
// its first question and first answer in room, inside its own allocation —
// every answer the simulated resolvers give carries one A record: Questions
// and Answers start there, and an append past the room moves on to the
// heap as any append does. A Message is therefore used
// through its pointer and not copied by value, since a copy's Questions and
// Answers would still point into the original.
type Message struct {
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

	room struct {
		q  [1]Question
		an [1]RR
	}
}

// NewQuery builds a recursive A query for name.
func NewQuery(id uint16, name string) *Message {
	m := &Message{ID: id, RecursionDesired: true}
	m.room.q[0] = Question{Name: CanonicalName(name), Type: TypeA, Class: ClassIN}
	m.Questions, m.Answers = m.room.q[:], m.room.an[:0]
	return m
}

// Reply builds a response skeleton echoing the query's ID and question.
func (m *Message) Reply() *Message {
	r := &Message{
		ID:                 m.ID,
		Response:           true,
		Opcode:             m.Opcode,
		RecursionDesired:   m.RecursionDesired,
		RecursionAvailable: true,
	}
	r.Questions, r.Answers = r.room.q[:0], r.room.an[:0]
	for _, q := range m.Questions {
		r.Questions = append(r.Questions, q) // one by one: the room keeps the first, as Unmarshal leaves it
	}
	return r
}

// AnswerA appends an A record answer for the query's name.
func (m *Message) AnswerA(name, ip string, ttl uint32) *Message {
	if m.Answers == nil {
		m.Answers = m.room.an[:0]
	}
	m.Answers = append(m.Answers, RR{Name: CanonicalName(name), Type: TypeA, Class: ClassIN, TTL: ttl, Data: ip})
	return m
}

// CanonicalName lowercases and strips any trailing dot.
func CanonicalName(name string) string {
	return strings.TrimSuffix(strings.ToLower(name), ".")
}

// Errors returned by the codec.
var (
	ErrTruncatedMessage = errors.New("dnsx: truncated message")
	ErrBadName          = errors.New("dnsx: bad domain name")
	ErrBadPointer       = errors.New("dnsx: bad compression pointer")
)

const (
	flagQR = 1 << 15
	flagAA = 1 << 10
	flagTC = 1 << 9
	flagRD = 1 << 8
	flagRA = 1 << 7
)

// Marshal encodes the message to wire format (no name compression on
// encode; compression pointers are handled on decode), in one allocation of
// exactly its length.
func (m *Message) Marshal() ([]byte, error) {
	n, err := m.wireLen()
	if err != nil {
		return nil, err
	}
	return m.appendWire(make([]byte, 0, n)), nil
}

// frame encodes the message as it travels: behind its 2-byte length, in one
// allocation of exactly that length.
func (m *Message) frame() ([]byte, error) {
	n, err := m.wireLen()
	if err != nil {
		return nil, err
	}
	return m.appendWire(binary.BigEndian.AppendUint16(make([]byte, 0, 2+n), uint16(n))), nil
}

// wireLen is the length of the message's wire form. It checks everything
// appendWire relies on, in the order the encoder meets it, so an
// unencodable message is refused with the error of its first fault.
func (m *Message) wireLen() (int, error) {
	n := 12
	for _, q := range m.Questions {
		k, err := nameLen(q.Name)
		if err != nil {
			return 0, err
		}
		n += k + 4
	}
	for _, set := range [3][]RR{m.Answers, m.Authority, m.Additional} {
		for i := range set {
			k, err := rrLen(&set[i])
			if err != nil {
				return 0, err
			}
			n += k
		}
	}
	return n, nil
}

// appendWire appends the wire form of a message wireLen accepted.
func (m *Message) appendWire(buf []byte) []byte {
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
	buf = binary.BigEndian.AppendUint16(buf, m.ID)
	buf = binary.BigEndian.AppendUint16(buf, flags)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Questions)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Answers)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Authority)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Additional)))
	for _, q := range m.Questions {
		buf = appendName(buf, q.Name)
		buf = binary.BigEndian.AppendUint16(buf, q.Type)
		buf = binary.BigEndian.AppendUint16(buf, q.Class)
	}
	for _, set := range [3][]RR{m.Answers, m.Authority, m.Additional} {
		for i := range set {
			buf = appendRR(buf, &set[i])
		}
	}
	return buf
}

// wireName is name as the wire spells it, but for the lowering of ASCII
// letters, which appendName does as it copies: the trailing dot goes, and
// a name with non-ASCII bytes is canonicalised whole (strings.ToLower may
// change its length).
func wireName(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] >= utf8.RuneSelf {
			return CanonicalName(name)
		}
	}
	return strings.TrimSuffix(name, ".")
}

// nameLen is the wire length of name — each label behind its length byte,
// then the root label — or the error the encoder refuses it with.
func nameLen(name string) (int, error) {
	name = wireName(name)
	if name == "" {
		return 1, nil
	}
	for rest, more := name, true; more; {
		var label string
		label, rest, more = strings.Cut(rest, ".")
		if len(label) == 0 || len(label) > 63 {
			return 0, fmt.Errorf("%w: label %q", ErrBadName, label)
		}
	}
	return len(name) + 2, nil
}

// appendName appends a name nameLen accepted, lowered.
func appendName(buf []byte, name string) []byte {
	for name = wireName(name); name != ""; {
		label, rest, _ := strings.Cut(name, ".")
		buf = append(buf, byte(len(label)))
		for i := 0; i < len(label); i++ {
			c := label[i]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			buf = append(buf, c)
		}
		name = rest
	}
	return append(buf, 0)
}

// rrLen is the wire length of rr, or the error the encoder refuses it with.
func rrLen(rr *RR) (int, error) {
	n, err := nameLen(rr.Name)
	if err != nil {
		return 0, err
	}
	n += 10 // type, class, TTL, RDLENGTH
	switch rr.Type {
	case TypeA:
		if _, ok := parseIPv4(rr.Data); !ok {
			return 0, fmt.Errorf("dnsx: bad IPv4 %q", rr.Data)
		}
		return n + 4, nil
	case TypeCNAME, TypeNS:
		k, err := nameLen(rr.Data)
		if err != nil {
			return 0, err
		}
		return n + k, nil
	case TypeTXT:
		if len(rr.Data) > 255 {
			return 0, fmt.Errorf("dnsx: TXT data too long (%d)", len(rr.Data))
		}
		return n + 1 + len(rr.Data), nil
	default:
		return n + len(rr.Data), nil
	}
}

// appendRR appends a record rrLen accepted.
func appendRR(buf []byte, rr *RR) []byte {
	buf = appendName(buf, rr.Name)
	buf = binary.BigEndian.AppendUint16(buf, rr.Type)
	buf = binary.BigEndian.AppendUint16(buf, rr.Class)
	buf = binary.BigEndian.AppendUint32(buf, rr.TTL)
	at := len(buf)
	buf = append(buf, 0, 0) // RDLENGTH, once the rdata is in
	switch rr.Type {
	case TypeA:
		ip, _ := parseIPv4(rr.Data)
		buf = append(buf, ip[:]...)
	case TypeCNAME, TypeNS:
		buf = appendName(buf, rr.Data)
	case TypeTXT:
		buf = append(append(buf, byte(len(rr.Data))), rr.Data...)
	default:
		buf = append(buf, rr.Data...)
	}
	binary.BigEndian.PutUint16(buf[at:], uint16(len(buf)-at-2))
	return buf
}

// parseIPv4 reads a dotted quad: four parts of decimal digits, each at most
// 255.
func parseIPv4(s string) (ip [4]byte, ok bool) {
	for i := range ip {
		part, rest, more := strings.Cut(s, ".")
		if more != (i < 3) || part == "" {
			return ip, false
		}
		v := 0
		for j := 0; j < len(part); j++ {
			c := part[j]
			if c < '0' || c > '9' {
				return ip, false
			}
			v = v*10 + int(c-'0')
		}
		if v > 255 {
			return ip, false
		}
		ip[i] = byte(v)
		s = rest
	}
	return ip, true
}

// formatIPv4 renders the dotted quad of b[:4] with one allocation, the
// string itself.
func formatIPv4(b []byte) string {
	var buf [15]byte // "255.255.255.255"
	out := strconv.AppendUint(buf[:0], uint64(b[0]), 10)
	for _, o := range b[1:4] {
		out = strconv.AppendUint(append(out, '.'), uint64(o), 10)
	}
	return string(out)
}

// Unmarshal decodes a wire-format message. It allocates the Message (its
// room holds a question and an answer), then one string per name or
// value decoded, except that a name spelled like the first question's
// shares its string, and one slice for each section whose records the
// room cannot hold.
func Unmarshal(b []byte) (*Message, error) {
	if len(b) < 12 {
		return nil, ErrTruncatedMessage
	}
	m := &Message{ID: binary.BigEndian.Uint16(b[0:2])}
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

	// Names are read into scratch, room for any legal name (a longer,
	// illegal one spills to the heap), and made strings by intern.
	var scratch [255]byte
	m.Questions, m.Answers = m.room.q[:0], m.room.an[:0]
	off := 12
	for i := 0; i < qd; i++ {
		name, next, err := readName(b, off, scratch[:0])
		if err != nil {
			return nil, err
		}
		off = next
		if off+4 > len(b) {
			return nil, ErrTruncatedMessage
		}
		m.Questions = append(m.Questions, Question{
			Name:  string(name),
			Type:  binary.BigEndian.Uint16(b[off:]),
			Class: binary.BigEndian.Uint16(b[off+2:]),
		})
		off += 4
	}
	var err error
	if m.Answers, off, err = m.readRRs(b, off, an, m.Answers, scratch[:0]); err != nil {
		return nil, err
	}
	if m.Authority, off, err = m.readRRs(b, off, ns, nil, scratch[:0]); err != nil {
		return nil, err
	}
	if m.Additional, _, err = m.readRRs(b, off, ar, nil, scratch[:0]); err != nil {
		return nil, err
	}
	return m, nil
}

// readRRs appends count records read from b at off to rrs, and returns
// them with the offset past the last; scratch is room for a name. Records
// that do not all fit rrs take one slice of their number instead, so a
// message's answers are all in its room or all on the heap, as a batch
// append leaves them. The header's count is believed only as far as the
// bytes left could hold records of the least size, a root name and 10.
func (m *Message) readRRs(b []byte, off, count int, rrs []RR, scratch []byte) ([]RR, int, error) {
	if count > cap(rrs) {
		rrs = make([]RR, 0, min(count, (len(b)-off)/11))
	}
	for i := 0; i < count; i++ {
		name, next, err := readName(b, off, scratch)
		if err != nil {
			return nil, 0, err
		}
		off = next
		if off+10 > len(b) {
			return nil, 0, ErrTruncatedMessage
		}
		rr := RR{
			Name:  m.intern(name),
			Type:  binary.BigEndian.Uint16(b[off:]),
			Class: binary.BigEndian.Uint16(b[off+2:]),
			TTL:   binary.BigEndian.Uint32(b[off+4:]),
		}
		rdlen := int(binary.BigEndian.Uint16(b[off+8:]))
		off += 10
		if off+rdlen > len(b) {
			return nil, 0, ErrTruncatedMessage
		}
		rdata := b[off : off+rdlen]
		switch rr.Type {
		case TypeA:
			if rdlen != 4 {
				return nil, 0, fmt.Errorf("dnsx: A record rdlen %d", rdlen)
			}
			rr.Data = formatIPv4(rdata)
		case TypeCNAME, TypeNS:
			name, _, err := readName(b, off, scratch)
			if err != nil {
				return nil, 0, err
			}
			rr.Data = m.intern(name)
		case TypeTXT:
			if rdlen > 0 {
				n := int(rdata[0])
				if n+1 > rdlen {
					return nil, 0, ErrTruncatedMessage
				}
				rr.Data = string(rdata[1 : 1+n])
			}
		default:
			rr.Data = string(rdata)
		}
		off += rdlen
		rrs = append(rrs, rr)
	}
	return rrs, off, nil
}

// intern makes a decoded name a string, sharing the first question's when
// the bytes are the same — an answer almost always names what was asked.
func (m *Message) intern(name []byte) string {
	if len(m.Questions) > 0 && string(name) == m.Questions[0].Name {
		return m.Questions[0].Name
	}
	return string(name)
}

// readName decodes a possibly-compressed domain name starting at off,
// appending its labels, joined with dots, to dst. It returns the name and
// the offset just past it in the original stream.
func readName(b []byte, off int, dst []byte) ([]byte, int, error) {
	name := dst
	jumped := false
	end := off
	for hops := 0; ; hops++ {
		if hops > 64 {
			return nil, 0, ErrBadPointer
		}
		if off >= len(b) {
			return nil, 0, ErrTruncatedMessage
		}
		c := int(b[off])
		switch {
		case c == 0:
			if !jumped {
				end = off + 1
			}
			return name, end, nil
		case c&0xC0 == 0xC0:
			if off+1 >= len(b) {
				return nil, 0, ErrTruncatedMessage
			}
			ptr := (c&0x3F)<<8 | int(b[off+1])
			if !jumped {
				end = off + 2
			}
			if ptr >= off {
				return nil, 0, ErrBadPointer
			}
			off = ptr
			jumped = true
		case c&0xC0 != 0:
			return nil, 0, ErrBadName
		default:
			if off+1+c > len(b) {
				return nil, 0, ErrTruncatedMessage
			}
			if len(name) > len(dst) {
				name = append(name, '.')
			}
			name = append(name, b[off+1:off+1+c]...)
			off += 1 + c
		}
	}
}

// AnswerIPs extracts the A-record IPs from a response, following at most one
// CNAME level for the queried name.
func (m *Message) AnswerIPs() []string {
	var ips []string
	for _, rr := range m.Answers {
		if rr.Type == TypeA {
			ips = append(ips, rr.Data)
		}
	}
	return ips
}
