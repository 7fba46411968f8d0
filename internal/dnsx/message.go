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

// Message is a DNS message.
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
}

// NewQuery builds a recursive A query for name.
func NewQuery(id uint16, name string) *Message {
	return &Message{
		ID:               id,
		RecursionDesired: true,
		Questions:        []Question{{Name: CanonicalName(name), Type: TypeA, Class: ClassIN}},
	}
}

// Reply builds a response skeleton echoing the query's ID and question.
func (m *Message) Reply() *Message {
	r := &Message{
		ID:                 m.ID,
		Response:           true,
		Opcode:             m.Opcode,
		RecursionDesired:   m.RecursionDesired,
		RecursionAvailable: true,
		Questions:          append([]Question(nil), m.Questions...),
	}
	return r
}

// AnswerA appends an A record answer for the query's name.
func (m *Message) AnswerA(name, ip string, ttl uint32) *Message {
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
// encode; compression pointers are handled on decode).
func (m *Message) Marshal() ([]byte, error) {
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
		if buf, err = appendName(buf, q.Name); err != nil {
			return nil, err
		}
		buf = binary.BigEndian.AppendUint16(buf, q.Type)
		buf = binary.BigEndian.AppendUint16(buf, q.Class)
	}
	for _, set := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for _, rr := range set {
			if buf, err = appendRR(buf, rr); err != nil {
				return nil, err
			}
		}
	}
	return buf, nil
}

func appendName(buf []byte, name string) ([]byte, error) {
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

func appendRR(buf []byte, rr RR) ([]byte, error) {
	buf, err := appendName(buf, rr.Name)
	if err != nil {
		return nil, err
	}
	buf = binary.BigEndian.AppendUint16(buf, rr.Type)
	buf = binary.BigEndian.AppendUint16(buf, rr.Class)
	buf = binary.BigEndian.AppendUint32(buf, rr.TTL)
	var rdata []byte
	switch rr.Type {
	case TypeA:
		ip, err := parseIPv4(rr.Data)
		if err != nil {
			return nil, err
		}
		rdata = ip
	case TypeCNAME, TypeNS:
		rdata, err = appendName(nil, rr.Data)
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

func parseIPv4(s string) ([]byte, error) {
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

// Unmarshal decodes a wire-format message.
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

	off := 12
	var err error
	for i := 0; i < qd; i++ {
		var q Question
		q.Name, off, err = readName(b, off)
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
			rr.Name, off, err = readName(b, off)
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
				name, _, err := readName(b, off)
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

// readName decodes a possibly-compressed domain name starting at off,
// returning the name and the offset just past it in the original stream.
func readName(b []byte, off int) (string, int, error) {
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
