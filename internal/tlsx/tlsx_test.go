package tlsx

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"testing/quick"

	"csaw/internal/netem"
	"csaw/internal/vtime"
)

// handshakePair runs client and server handshakes over a net.Pipe.
func handshakePair(t *testing.T, sni, expectCert string, certs CertFunc) (*Conn, *Conn, error, error) {
	t.Helper()
	pc, ps := net.Pipe()
	var (
		cc, sc            *Conn
		clientErr, srvErr error
		clientOK          = make(chan struct{})
		serverOK          = make(chan struct{})
	)
	go func() {
		defer close(clientOK)
		cc, clientErr = Client(pc, sni, expectCert)
		if clientErr != nil {
			pc.Close() // unblock the peer on a synchronous pipe
		}
	}()
	go func() {
		defer close(serverOK)
		sc, srvErr = Server(ps, certs)
		if srvErr != nil {
			ps.Close()
		}
	}()
	<-clientOK
	<-serverOK
	return cc, sc, clientErr, srvErr
}

func TestHandshakeAndEcho(t *testing.T) {
	cc, sc, cerr, serr := handshakePair(t, "www.youtube.com", "www.youtube.com", CertFor("www.youtube.com"))
	if cerr != nil || serr != nil {
		t.Fatalf("handshake: client=%v server=%v", cerr, serr)
	}
	if sc.PeerName() != "www.youtube.com" {
		t.Fatalf("server saw SNI %q", sc.PeerName())
	}
	if cc.PeerName() != "www.youtube.com" {
		t.Fatalf("client saw cert %q", cc.PeerName())
	}

	msg := []byte("GET / HTTP/1.1\r\nHost: www.youtube.com\r\n\r\n")
	go func() {
		cc.Write(msg)
	}()
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(sc, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatalf("server read %q", buf)
	}

	// And the other direction.
	reply := []byte("HTTP/1.1 200 OK\r\n\r\n")
	go func() { sc.Write(reply) }()
	buf2 := make([]byte, len(reply))
	if _, err := io.ReadFull(cc, buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf2, reply) {
		t.Fatalf("client read %q", buf2)
	}
}

func TestPayloadIsOpaqueOnWire(t *testing.T) {
	// The censor must not see the Host header in the ciphertext.
	pc, ps := net.Pipe()
	var wire bytes.Buffer

	done := make(chan struct{})
	go func() {
		defer close(done)
		sc, err := Server(ps, CertFor("front.cdn.example"))
		if err != nil {
			return
		}
		io.Copy(io.Discard, sc)
	}()

	// Tap the client→server bytes by wrapping the client side.
	tap := &tapConn{Conn: pc, sink: &wire}
	cc, err := Client(tap, "front.cdn.example", "")
	if err != nil {
		t.Fatal(err)
	}
	secret := "Host: blocked.backend.example"
	if _, err := cc.Write([]byte(secret)); err != nil {
		t.Fatal(err)
	}
	pc.Close()
	<-done

	onWire := wire.String()
	if !strings.Contains(onWire, "front.cdn.example") {
		t.Error("SNI should be cleartext on the wire")
	}
	if strings.Contains(onWire, "blocked.backend") {
		t.Error("encrypted payload leaked the Host header")
	}
}

type tapConn struct {
	net.Conn
	sink *bytes.Buffer
}

func (c *tapConn) Write(b []byte) (int, error) {
	c.sink.Write(b)
	return c.Conn.Write(b)
}

func TestCertMismatch(t *testing.T) {
	_, _, cerr, _ := handshakePair(t, "evil.example", "good.example", CertFor("evil.example"))
	if cerr == nil {
		t.Fatal("client accepted wrong certificate")
	}
}

func TestServerRefusesUnknownSNI(t *testing.T) {
	_, _, cerr, serr := handshakePair(t, "unknown.example", "", CertFor("known.example"))
	if serr == nil {
		t.Fatal("server handshook for unknown SNI")
	}
	_ = cerr // client fails too (EOF/short read); exact error not important
}

func TestWildcardCert(t *testing.T) {
	if !nameMatches("*.cdn.example", "img7.cdn.example") {
		t.Error("wildcard should match one label")
	}
	if nameMatches("*.cdn.example", "cdn.example") {
		t.Error("wildcard should not match the bare domain")
	}
	if !nameMatches("A.Example", "a.example") {
		t.Error("match should be case-insensitive")
	}
}

func TestSniffClientHello(t *testing.T) {
	cr := randomFrom("x")
	hello, err := marshalHello(typeClientHello, "www.youtube.com", cr)
	if err != nil {
		t.Fatal(err)
	}
	sni, ok := SniffClientHello(hello)
	if !ok || sni != "www.youtube.com" {
		t.Fatalf("sniff = %q %v", sni, ok)
	}
	if _, ok := SniffClientHello([]byte("GET / HTTP/1.1\r\n")); ok {
		t.Error("sniffed SNI from plain HTTP")
	}
	if _, ok := SniffClientHello(hello[:5]); ok {
		t.Error("sniffed SNI from truncated hello")
	}
}

func TestReadHelloRejectsGarbage(t *testing.T) {
	if _, err := ReadHello(strings.NewReader("NOPE....")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadHello(strings.NewReader("TL")); err == nil {
		t.Error("short read accepted")
	}
}

func TestNameTooLong(t *testing.T) {
	if _, err := marshalHello(typeClientHello, strings.Repeat("a", 300), [8]byte{}); err == nil {
		t.Error("oversized name accepted")
	}
}

func TestQuickKeystreamSymmetry(t *testing.T) {
	// Property: XOR with the same keystream twice is the identity, across
	// arbitrary chunking.
	f := func(data []byte, cut uint8) bool {
		var cr, sr [8]byte
		cr = randomFrom("c")
		sr = randomFrom("s")
		enc := newKeystream(cr, sr, "d")
		dec := newKeystream(cr, sr, "d")
		buf := append([]byte(nil), data...)
		k := int(cut)
		if k > len(buf) {
			k = len(buf)
		}
		enc.xor(buf[:k])
		enc.xor(buf[k:])
		dec.xor(buf)
		return bytes.Equal(buf, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestKeystreamDirectionsDiffer(t *testing.T) {
	cr, sr := randomFrom("c"), randomFrom("s")
	a := make([]byte, 64)
	b := make([]byte, 64)
	newKeystream(cr, sr, "c2s").xor(a)
	newKeystream(cr, sr, "s2c").xor(b)
	if bytes.Equal(a, b) {
		t.Fatal("directional keystreams identical")
	}
}

// TestKeystreamVectors pins the ciphertext to vectors taken from the
// byte-at-a-time keystream this one replaced: whatever lengths and
// offsets xor is called with, the stream must not move by a bit.
func TestKeystreamVectors(t *testing.T) {
	const (
		total  = 4<<10 + 3
		first  = "64ae7f34e776dbd3fe5b6b41b449e71f99" // ciphertext bytes 0..16
		sumAll = "95e626d50ab4de2a5156d7b3bf16faa5d5f25b378e8c37c64d499f7011477261"
	)
	plain := make([]byte, total)
	for i := range plain {
		plain[i] = byte(i*31 + 7)
	}
	fresh := func() *keystream { return newKeystream(randomFrom("client"), randomFrom("server"), "c2s") }
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17} {
		buf := append([]byte(nil), plain[:n]...)
		fresh().xor(buf)
		if got := hex.EncodeToString(buf); got != first[:2*n] {
			t.Errorf("xor of %d bytes = %s, want %s", n, got, first[:2*n])
		}
	}
	// The whole stream, cut into calls at word-aligned and odd offsets.
	for _, cuts := range [][]int{{}, {0}, {1}, {7}, {8}, {9}, {3, 4099 - 8}, {1, 8, 16, 23, 4098}, {5, 5, 6, 2048}} {
		buf := append([]byte(nil), plain...)
		ks, prev := fresh(), 0
		for _, c := range append(cuts, total) {
			ks.xor(buf[prev:c])
			prev = c
		}
		if got := hex.EncodeToString(buf[:17]); got != first {
			t.Errorf("cuts %v: first bytes %s, want %s", cuts, got, first)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf)); got != sumAll {
			t.Errorf("cuts %v: sha256 %s, want %s", cuts, got, sumAll)
		}
	}
}

// TestWriteVectors pins the bytes two Writes put on the wire (the second
// starting mid-word), again against the replaced implementation.
func TestWriteVectors(t *testing.T) {
	const wireSum = "a1fc12560c307e2b98e830bb8441ab7ae013cb4a69e0e0f673f7cccdd8c9aa5f"
	cc, sc, cerr, serr := handshakePair(t, "www.example.com", "", CertFor("www.example.com"))
	if cerr != nil || serr != nil {
		t.Fatalf("handshake: client %v, server %v", cerr, serr)
	}
	plain := make([]byte, 4<<10+3)
	for i := range plain {
		plain[i] = byte(i*31 + 7)
	}
	werr := make(chan error, 1)
	go func() {
		_, err := cc.Write(plain[:5])
		if err == nil {
			_, err = cc.Write(plain[5:])
		}
		werr <- err
	}()
	raw := make([]byte, len(plain))
	if _, err := io.ReadFull(sc.Conn, raw); err != nil { // below the server's decryption
		t.Fatal(err)
	}
	if err := <-werr; err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != wireSum {
		t.Errorf("wire sha256 %s, want %s", got, wireSum)
	}
	if plain[0] != 7 || plain[5] != byte(5*31+7) {
		t.Error("Write modified the caller's buffer")
	}
}

// TestInlineFNVMatchesHashFNV: newKeystream and randomFrom hash with an
// inlined FNV-64a; they must agree with hash/fnv on every input, or every
// keystream, trace and golden built on them would shift.
func TestInlineFNVMatchesHashFNV(t *testing.T) {
	refRandom := func(parts ...string) [8]byte {
		h := fnv.New64a()
		for _, p := range parts {
			io.WriteString(h, p)
			h.Write([]byte{0})
		}
		var r [8]byte
		binary.BigEndian.PutUint64(r[:], h.Sum64())
		return r
	}
	refSeed := func(cr, sr [8]byte, direction string) uint64 {
		h := fnv.New64a()
		h.Write(cr[:])
		h.Write(sr[:])
		io.WriteString(h, direction)
		return h.Sum64()
	}
	partsTable := [][]string{
		nil,
		{""},
		{"", ""},
		{"x"},
		{"client", "www.youtube.com", "10.0.0.7:49152"},
		{"server", "cdn.example.net", "203.0.113.9:443"},
		{"\x00\xff", "ünïcode", strings.Repeat("a", 300)},
	}
	directions := []string{"", "c2s", "s2c", "d"}
	for _, parts := range partsTable {
		got, want := randomFrom(parts...), refRandom(parts...)
		if got != want {
			t.Fatalf("randomFrom(%q) = %x, hash/fnv gives %x", parts, got, want)
		}
		for _, dir := range directions {
			cr, sr := got, refRandom(append([]string{"peer"}, parts...)...)
			want := refSeed(cr, sr, dir)
			if want == 0 {
				want = 0x9E3779B97F4A7C15
			}
			if ks := newKeystream(cr, sr, dir); ks.state != want {
				t.Fatalf("newKeystream(%x, %x, %q) state %#x, hash/fnv gives %#x", cr, sr, dir, ks.state, want)
			}
		}
	}
}

// helloBytes is a handshake message on the wire, written by hand so that a
// name longer than marshalHello allows can be sent.
func helloBytes(typ byte, name string, random [8]byte) []byte {
	b := append(magic[:4:4], typ)
	b = binary.BigEndian.AppendUint16(b, uint16(len(name)))
	return append(append(b, name...), random[:]...)
}

// FuzzParseHello holds the in-place parse to ReadHello over the same bytes:
// both accept or both reject, an accepted hello has the same type, name and
// random, and ParseHello's ErrIncomplete is exactly ReadHello running out
// of bytes. Every cut of an accepted hello short of its end is incomplete.
func FuzzParseHello(f *testing.F) {
	r := randomFrom("seed")
	for _, b := range [][]byte{
		helloBytes(typeClientHello, "www.youtube.com", r),
		helloBytes(typeServerHello, "*.cdn.example", r),
		helloBytes(0x7f, "", r),
		helloBytes(typeClientHello, strings.Repeat("a", maxNameLen), r),
		helloBytes(typeClientHello, strings.Repeat("b", maxNameLen+1), r),
		append(helloBytes(typeClientHello, "x.org", r), "GET / HTTP/1.1\r\n"...),
		helloBytes(typeClientHello, "x.org", r)[:11],
		[]byte("TLSX"),
		[]byte("TLSY\x01\x00\x00"),
		[]byte("GET / HTTP/1.1\r\nHost: a.com\r\n\r\n"),
		nil,
	} {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ParseHello(data)
		want, rerr := ReadHello(bytes.NewReader(data))
		switch {
		case rerr == io.EOF || rerr == io.ErrUnexpectedEOF:
			if err != ErrIncomplete || h.Len <= len(data) {
				t.Fatalf("ReadHello runs out of bytes (%v); ParseHello: %v, Len %d of %d", rerr, err, h.Len, len(data))
			}
		case rerr != nil:
			if err != rerr {
				t.Fatalf("ReadHello: %v; ParseHello: %v", rerr, err)
			}
		case err != nil:
			t.Fatalf("ReadHello reads %+v; ParseHello: %v", want, err)
		default:
			if h.Type != want.Type || string(h.Name) != want.Name || h.Random != want.Random || h.Len != 7+len(want.Name)+8 {
				t.Fatalf("ParseHello %+v, ReadHello %+v", h, want)
			}
			for c := range h.Len {
				if _, err := ParseHello(data[:c]); err != ErrIncomplete {
					t.Fatalf("the hello cut at %d of %d: %v, want ErrIncomplete", c, h.Len, err)
				}
			}
		}
	})
}

// TestParseHelloAllocs pins what the censor's look at a ClientHello costs:
// nothing.
func TestParseHelloAllocs(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts are not exact under the race detector")
			}
		}
	}
	b := append(helloBytes(typeClientHello, "www.YouTube.com", randomFrom("x")), "payload"...)
	var h RawHello
	got := testing.AllocsPerRun(100, func() {
		var err error
		if h, err = ParseHello(b); err != nil {
			t.Fatal(err)
		}
	})
	if string(h.Name) != "www.YouTube.com" || h.Len != len(b)-len("payload") {
		t.Fatalf("parsed %+v", h)
	}
	if got != 0 {
		t.Errorf("%v allocations, want 0", got)
	}
}

// netemPairs dials n connections between two hosts of an emulated network
// on the event clock and returns both ends of each.
func netemPairs(t testing.TB, n int) (clients, servers []net.Conn) {
	t.Helper()
	nw := netem.New(vtime.NewEventDriven())
	as := nw.AddAS(64500, "tlsx-test", "xx")
	a := nw.MustAddHost("a", "10.0.0.1", "xx", as)
	l, err := nw.MustAddHost("b", "10.0.0.2", "xx", as).Listen(Port)
	if err != nil {
		t.Fatal(err)
	}
	for range n {
		c, err := a.Dial(context.Background(), "10.0.0.2:443")
		if err != nil {
			t.Fatal(err)
		}
		s, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		clients, servers = append(clients, c), append(servers, s)
	}
	return clients, servers
}

// TestTakeHelloMatchesReadHello: whatever segments a hello arrives in, and
// wherever its stream ends, the handshake reads what ReadHello reads from
// the same bytes, fails as ReadHello fails, and leaves what follows the
// hello on the conn.
func TestTakeHelloMatchesReadHello(t *testing.T) {
	whole := append(helloBytes(typeClientHello, "www.youtube.com", randomFrom("x")), "GET /"...)
	cases := [][]int{{len(whole)}, {3, len(whole)}, {7, len(whole)}, {9, len(whole)}, {7, 25, len(whole)}, {26, len(whole)}, {30, len(whole)}}
	for end := 0; end < len(whole); end++ {
		cases = append(cases, []int{end}, []int{min(end, 7), end})
	}
	clients, servers := netemPairs(t, len(cases))
	for i, cuts := range cases {
		data := whole[:cuts[len(cuts)-1]]
		prev := 0
		for _, cut := range cuts {
			if cut > prev {
				if _, err := netem.WriteOwned(clients[i], bytes.Clone(whole[prev:cut])); err != nil {
					t.Fatal(err)
				}
			}
			prev = cut
		}
		clients[i].Close()
		got, err := takeHello(servers[i])
		want, werr := ReadHello(bytes.NewReader(data))
		switch {
		case err != werr:
			t.Errorf("segments %v: takeHello error %v, ReadHello %v", cuts, err, werr)
		case err == nil && got != *want:
			t.Errorf("segments %v: takeHello %+v, ReadHello %+v", cuts, got, *want)
		case err == nil:
			if rest, _ := io.ReadAll(servers[i]); string(rest) != string(data[len(data)-len(rest):]) || len(data)-len(rest) != 30 {
				t.Errorf("segments %v: %q left after the hello", cuts, rest)
			}
		}
	}
}

// TestHandshakeAllocs pins what a handshake over the emulated network
// allocates, both sides together: each side's hello, its name, the Conn
// and its two keystreams, and the client's local address — 14 in all.
// Each hello is taken off the conn where it lies; reading each into a
// buffer of its own, as ReadHello does, cost 20.
func TestHandshakeAllocs(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts are not exact under the race detector")
			}
		}
	}
	const shakes, budget = 200, 15
	clients, servers := netemPairs(t, shakes+1)
	certs := CertFor("www.youtube.com")
	conns := make(chan net.Conn)
	errs := make(chan error)
	go func() {
		for c := range conns {
			_, err := Server(c, certs)
			errs <- err
		}
	}()
	defer close(conns)
	shake := func(i int) {
		conns <- servers[i]
		_, cerr := Client(clients[i], "www.youtube.com", "www.youtube.com")
		if serr := <-errs; cerr != nil || serr != nil {
			t.Fatalf("handshake %d: client %v, server %v", i, cerr, serr)
		}
	}
	shake(shakes) // the pools and the scheduler's first wake-ups
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range shakes {
		shake(i)
	}
	runtime.ReadMemStats(&after)
	perShake := float64(after.Mallocs-before.Mallocs) / shakes
	t.Logf("%.2f allocations per handshake", perShake)
	if perShake > budget {
		t.Errorf("a handshake allocates %.2f times, budget %d", perShake, budget)
	}
}
