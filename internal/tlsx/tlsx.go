// Package tlsx is a pseudo-TLS layer for the emulated internet.
//
// What the paper's censors act on is TLS's *observable surface*: the Server
// Name Indication travels in cleartext in the ClientHello, while the HTTP
// Host header and payload are encrypted (§2.1, §2.2). tlsx reproduces
// exactly that surface — a cleartext handshake carrying the SNI and the
// server's certificate name, followed by a keystream-obscured byte stream —
// without real cryptography, which the system under test never depends on.
// Domain fronting works as in the paper: the client connects to a front
// host with the front's name in the SNI while the encrypted Host header
// names the blocked back end (§2.2).
//
// Handshake wire format (all cleartext, censor-parseable):
//
//	"TLSX" | type(1) | nameLen(2) | name | random(8)
//
// where type 0x01 is a ClientHello (name = SNI) and 0x02 a ServerHello
// (name = certificate subject). The subsequent stream is XORed with a
// per-direction xorshift keystream seeded from both randoms.
package tlsx

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"sync"

	"csaw/internal/netem"
)

// Port is the conventional HTTPS port in the emulated world.
const Port = 443

var magic = [4]byte{'T', 'L', 'S', 'X'}

// Handshake message types.
const (
	typeClientHello = 0x01
	typeServerHello = 0x02
)

// Errors returned by the handshake.
var (
	ErrNotTLSX       = errors.New("tlsx: not a TLSX handshake")
	ErrCertMismatch  = errors.New("tlsx: certificate name mismatch")
	ErrNoCertForName = errors.New("tlsx: server has no certificate for SNI")
)

// maxNameLen bounds SNI/certificate names.
const maxNameLen = 255

// Hello is a parsed handshake message.
type Hello struct {
	Type   byte
	Name   string // SNI for ClientHello, certificate subject for ServerHello
	Random [8]byte
}

// marshalHello encodes a handshake message.
func marshalHello(typ byte, name string, random [8]byte) ([]byte, error) {
	if len(name) > maxNameLen {
		return nil, fmt.Errorf("tlsx: name too long (%d)", len(name))
	}
	b := make([]byte, 0, 4+1+2+len(name)+8)
	b = append(b, magic[:]...)
	b = append(b, typ)
	b = binary.BigEndian.AppendUint16(b, uint16(len(name)))
	b = append(b, name...)
	b = append(b, random[:]...)
	return b, nil
}

// ErrIncomplete is ParseHello's answer to bytes that end before the
// handshake message does.
var ErrIncomplete = errors.New("tlsx: incomplete hello")

// RawHello is a handshake message located in the bytes ParseHello found it
// in: Name is a view of them.
type RawHello struct {
	Len    int // bytes of the message
	Type   byte
	Name   []byte
	Random [8]byte
}

// ParseHello parses the handshake message b starts with where it lies,
// allocating nothing. Bytes that cannot begin one are ErrNotTLSX; bytes
// that end before it does are ErrIncomplete, with Len the length b must
// reach before ParseHello can say more: like ReadHello on a stream, it
// judges nothing before the 7-byte head is whole.
func ParseHello(b []byte) (RawHello, error) {
	h := RawHello{Len: 7}
	if len(b) < h.Len {
		return h, ErrIncomplete
	}
	if [4]byte(b[0:4]) != magic {
		return h, ErrNotTLSX
	}
	nameLen := int(binary.BigEndian.Uint16(b[5:7]))
	if nameLen > maxNameLen {
		return h, ErrNotTLSX
	}
	h.Len += nameLen + 8
	if len(b) < h.Len {
		return h, ErrIncomplete
	}
	h.Type, h.Name = b[4], b[7:7+nameLen]
	h.Random = [8]byte(b[7+nameLen : h.Len])
	return h, nil
}

// ReadHello reads one handshake message from r, as ParseHello parses it.
func ReadHello(r io.Reader) (*Hello, error) {
	h, err := readHello(r, nil)
	if err != nil {
		return nil, err
	}
	return &h, nil
}

// readHello is ReadHello continued after b, bytes of the message already
// read from r. It reads in ParseHello's steps — the 7-byte head, then the
// rest — and a stream that ends inside a step it has begun is
// io.ErrUnexpectedEOF.
func readHello(r io.Reader, b []byte) (Hello, error) {
	for {
		h, err := ParseHello(b)
		if err == nil {
			return Hello{Type: h.Type, Name: string(h.Name), Random: h.Random}, nil
		}
		if err != ErrIncomplete {
			return Hello{}, err
		}
		n, step := len(b), 0
		if n >= 7 {
			step = 7
		}
		// b may be bytes taken by reference, never to be written: grow it
		// into a copy.
		b = append(b[:n:n], make([]byte, h.Len-n)...)
		if _, err := io.ReadFull(r, b[n:]); err != nil {
			if err == io.EOF && n > step {
				err = io.ErrUnexpectedEOF
			}
			return Hello{}, err
		}
	}
}

// takeHello reads one handshake message from conn as ReadHello does, with
// its errors. A message that arrives whole in one segment, as Client and
// Server write theirs, is taken off conn by reference (netem.Take) and
// parsed where it lies: its name is all it allocates.
func takeHello(conn net.Conn) (Hello, error) {
	head, err := netem.Take(conn, 7)
	switch {
	case err == netem.ErrCannotTake:
		return readHello(conn, nil)
	case err != nil:
		return Hello{}, err
	case len(head) < 7:
		return readHello(conn, head)
	}
	h, err := ParseHello(head)
	if err != ErrIncomplete {
		return Hello{}, err // not TLSX: a head alone is never a whole hello
	}
	rest, err := netem.Take(conn, h.Len-7)
	if err != nil {
		return Hello{}, err
	}
	if len(rest) < h.Len-7 {
		return readHello(conn, slices.Concat(head, rest))
	}
	nameLen := len(rest) - 8
	return Hello{Type: head[4], Name: string(rest[:nameLen]), Random: [8]byte(rest[nameLen:])}, nil
}

// SniffClientHello reports whether b begins a whole TLSX ClientHello and if
// so the SNI it carries.
func SniffClientHello(b []byte) (sni string, ok bool) {
	h, err := ParseHello(b)
	if err != nil || h.Type != typeClientHello {
		return "", false
	}
	return string(h.Name), true
}

// keystream is a xorshift64-based pseudo-random byte stream. It provides
// payload opacity to the on-path observer, standing in for TLS's real
// cipher (see the package comment for why this is sufficient here).
type keystream struct {
	state uint64
	buf   [8]byte
	pos   int
}

// FNV-64a, inlined: a hash/fnv hasher escapes through its interface, which
// cost two allocations per hash.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvAdd folds b into the FNV-64a state h.
func fnvAdd[T string | []byte](h uint64, b T) uint64 {
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= fnvPrime64
	}
	return h
}

func newKeystream(clientRand, serverRand [8]byte, direction string) *keystream {
	s := fnvAdd(fnvAdd(fnvAdd(fnvOffset64, clientRand[:]), serverRand[:]), direction)
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	return &keystream{state: s, pos: 8}
}

// step advances the xorshift state by one 8-byte keystream word.
func step(s uint64) uint64 {
	s ^= s << 13
	s ^= s >> 7
	s ^= s << 17
	return s
}

// xor applies the keystream to b: byte-wise through a word a previous call
// left partly used, then a whole word per step, then byte-wise into the
// word the next call continues from.
func (k *keystream) xor(b []byte) {
	for ; len(b) > 0 && k.pos < 8; b = b[1:] {
		b[0] ^= k.buf[k.pos]
		k.pos++
	}
	for ; len(b) >= 8; b = b[8:] {
		k.state = step(k.state)
		binary.BigEndian.PutUint64(b, binary.BigEndian.Uint64(b)^k.state)
	}
	if len(b) > 0 {
		k.state = step(k.state)
		binary.BigEndian.PutUint64(k.buf[:], k.state)
		for i := range b {
			b[i] ^= k.buf[i]
		}
		k.pos = len(b)
	}
}

// Conn is an established pseudo-TLS connection.
type Conn struct {
	net.Conn
	peerName string // server cert (client side) or SNI (server side)

	rmu sync.Mutex
	rks *keystream
	wmu sync.Mutex
	wks *keystream
}

// PeerName returns the certificate name (on clients) or the received SNI
// (on servers).
func (c *Conn) PeerName() string { return c.peerName }

// Read decrypts from the underlying connection.
func (c *Conn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.rmu.Lock()
		c.rks.xor(b[:n])
		c.rmu.Unlock()
	}
	return n, err
}

// Write encrypts to the underlying connection, which gets to keep the
// ciphertext buffer: nothing here touches it again.
func (c *Conn) Write(b []byte) (int, error) {
	enc := make([]byte, len(b))
	copy(enc, b)
	c.wmu.Lock()
	c.wks.xor(enc)
	n, err := netem.WriteOwned(c.Conn, enc)
	if n < len(b) && err == nil {
		err = io.ErrShortWrite
	}
	c.wmu.Unlock()
	return n, err
}

// randomFrom derives an 8-byte handshake random. Determinism is fine: the
// randoms only diversify keystreams, they carry no security weight here.
func randomFrom(parts ...string) [8]byte {
	h := uint64(fnvOffset64)
	for _, p := range parts {
		h = fnvAdd(fnvAdd(h, p), "\x00")
	}
	var r [8]byte
	binary.BigEndian.PutUint64(r[:], h)
	return r
}

// Client performs the client side of the handshake over conn, offering sni.
// If expectCert is non-empty the server's certificate name must match it.
func Client(conn net.Conn, sni, expectCert string) (*Conn, error) {
	cr := randomFrom("client", sni, conn.LocalAddr().String())
	hello, err := marshalHello(typeClientHello, sni, cr)
	if err != nil {
		return nil, err
	}
	if _, err := netem.WriteOwned(conn, hello); err != nil {
		return nil, err
	}
	sh, err := takeHello(conn)
	if err != nil {
		return nil, err
	}
	if sh.Type != typeServerHello {
		return nil, ErrNotTLSX
	}
	if expectCert != "" && !nameMatches(sh.Name, expectCert) {
		return nil, fmt.Errorf("%w: got %q, want %q", ErrCertMismatch, sh.Name, expectCert)
	}
	return &Conn{
		Conn:     conn,
		peerName: sh.Name,
		rks:      newKeystream(cr, sh.Random, "s2c"),
		wks:      newKeystream(cr, sh.Random, "c2s"),
	}, nil
}

// CertFunc maps a received SNI to the certificate name the server presents,
// or "" to refuse the handshake. CDN/front servers present per-site certs.
type CertFunc func(sni string) string

// CertFor returns a CertFunc serving exactly the given names.
func CertFor(names ...string) CertFunc {
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[strings.ToLower(n)] = true
	}
	return func(sni string) string {
		if set[strings.ToLower(sni)] {
			return strings.ToLower(sni)
		}
		return ""
	}
}

// Server performs the server side of the handshake over conn.
func Server(conn net.Conn, certs CertFunc) (*Conn, error) {
	ch, err := takeHello(conn)
	if err != nil {
		return nil, err
	}
	if ch.Type != typeClientHello {
		return nil, ErrNotTLSX
	}
	cert := certs(ch.Name)
	if cert == "" {
		return nil, fmt.Errorf("%w: %q", ErrNoCertForName, ch.Name)
	}
	sr := randomFrom("server", cert, conn.LocalAddr().String())
	hello, err := marshalHello(typeServerHello, cert, sr)
	if err != nil {
		return nil, err
	}
	if _, err := netem.WriteOwned(conn, hello); err != nil {
		return nil, err
	}
	return &Conn{
		Conn:     conn,
		peerName: ch.Name,
		rks:      newKeystream(ch.Random, sr, "c2s"),
		wks:      newKeystream(ch.Random, sr, "s2c"),
	}, nil
}

// nameMatches compares certificate names case-insensitively, honouring a
// single leading wildcard label ("*.cdn.example").
func nameMatches(cert, want string) bool {
	cert, want = strings.ToLower(cert), strings.ToLower(want)
	if cert == want {
		return true
	}
	if rest, ok := strings.CutPrefix(cert, "*."); ok {
		if i := strings.IndexByte(want, '.'); i >= 0 && want[i+1:] == rest {
			return true
		}
	}
	return false
}
