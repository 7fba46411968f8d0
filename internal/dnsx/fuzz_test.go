package dnsx

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"reflect"
	"testing"

	"csaw/internal/netem"
	"csaw/internal/vtime"
)

// FuzzMessageDecode throws arbitrary wire bytes at the decoder — the bytes a
// censor's resolver actually controls. Properties: Unmarshal never panics,
// and the codec reaches a fixed point after one normalization pass: any
// successfully decoded message that re-encodes must decode again and encode
// to identical bytes (decoded names are canonicalized — lowercased,
// compression pointers flattened — so the *first* re-encode may differ from
// the input, but never the second).
func FuzzMessageDecode(f *testing.F) {
	q, _ := NewQuery(0x1234, "www.youtube.com").Marshal()
	f.Add(q)
	resp, _ := NewQuery(7, "news.example.pk").Reply().AnswerA("news.example.pk", "10.9.8.7", 300).Marshal()
	f.Add(resp)
	nx := NewQuery(9, "missing.example").Reply()
	nx.RCode = RCodeNXDomain
	nxb, _ := nx.Marshal()
	f.Add(nxb)
	// A response using a compression pointer back into the question.
	f.Add([]byte{
		0x12, 0x34, 0x81, 0x80, 0x00, 0x01, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00,
		0x01, 'a', 0x02, 'b', 'c', 0x00, 0x00, 0x01, 0x00, 0x01, // question a.bc A IN
		0xC0, 0x0C, 0x00, 0x01, 0x00, 0x01, 0x00, 0x00, 0x00, 0x3C, 0x00, 0x04, 0x7F, 0x00, 0x00, 0x01,
	})
	f.Add([]byte{0x00, 0x01, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return
		}
		b1, err := m.Marshal()
		if err != nil {
			// Decoded labels can be unencodable (a label containing ".",
			// or one that outgrows 63 bytes under ToLower's UTF-8 repair);
			// rejecting those on encode is correct behavior.
			return
		}
		m2, err := Unmarshal(b1)
		if err != nil {
			t.Fatalf("re-encoded message does not decode: %v\n% x", err, b1)
		}
		b2, err := m2.Marshal()
		if err != nil {
			t.Fatalf("decoded canonical message does not re-encode: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("encode∘decode not a fixed point:\nb1: % x\nb2: % x", b1, b2)
		}
	})
}

// TestMessageRoundTripExact is the seeded exact-equality complement of the
// fuzz target: messages built through the package's own constructors (whose
// names are canonical by construction) must survive Marshal→Unmarshal with
// every field intact.
func TestMessageRoundTripExact(t *testing.T) {
	msgs := []*Message{
		NewQuery(1, "www.youtube.com"),
		NewQuery(0xFFFF, "a.very.deep.subdomain.example.pk"),
		NewQuery(2, "hot.example.net").Reply().AnswerA("hot.example.net", "203.0.113.9", 60),
	}
	nx := NewQuery(3, "blocked.example").Reply()
	nx.RCode = RCodeNXDomain
	msgs = append(msgs, nx)
	cname := NewQuery(4, "cdn.example").Reply()
	cname.Answers = append(cname.Answers,
		RR{Name: "cdn.example", Type: TypeCNAME, Class: ClassIN, TTL: 30, Data: "edge.example"},
		RR{Name: "edge.example", Type: TypeA, Class: ClassIN, TTL: 30, Data: "198.51.100.4"})
	cname.Authority = append(cname.Authority,
		RR{Name: "example", Type: TypeNS, Class: ClassIN, TTL: 3600, Data: "ns1.example"})
	cname.Additional = append(cname.Additional,
		RR{Name: "note.example", Type: TypeTXT, Class: ClassIN, TTL: 10, Data: "censorship measurement"})
	msgs = append(msgs, cname)

	for i, m := range msgs {
		b, err := m.Marshal()
		if err != nil {
			t.Fatalf("msg %d: marshal: %v", i, err)
		}
		got, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("msg %d: unmarshal: %v", i, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("msg %d: round trip changed the message:\nin:  %+v\nout: %+v", i, m, got)
		}
	}
}

// FuzzReadMessageTake holds ReadMessage over a stream to the copying read it
// replaced (refReadMessage over the same bytes): message by message, the
// same decoded message or the same error, up to the same end. The bytes
// cross a netem connection in up to three segments cut anywhere, and are
// read through a *Conn and a budgeted slotConn, which take, and a reader
// that cannot; a frame read by reference must come back clipped.
func FuzzReadMessageTake(f *testing.F) {
	for _, s := range codecSeeds() {
		frame := binary.BigEndian.AppendUint16(nil, uint16(len(s)))
		stream := append(append(frame, s...), append(frame, s...)...)
		for _, cut := range []uint16{0, 1, 2, uint16(len(frame) + len(s)), uint16(len(frame) + len(s) + 1)} {
			f.Add(stream, cut, uint16(len(stream)-1))
		}
		f.Add(stream[:len(stream)-1], uint16(3), uint16(len(stream)-3)) // cut short
	}
	f.Add([]byte{0x00, 0x00, 0x00}, uint16(1), uint16(2)) // an empty frame, then half a length
	n := netem.New(vtime.NewEventDriven())
	as := n.AddAS(1, "AS", "XX")
	client := n.MustAddHost("client", "10.0.0.1", "x", as)
	l := n.MustAddHost("resolver", "10.0.0.2", "x", as).MustListen(Port)
	readers := []struct {
		name string
		dial netem.DialFunc
		wrap func(net.Conn) io.Reader
	}{
		{"*Conn", client.Dial, func(c net.Conn) io.Reader { return c }},
		{"slotConn", netem.LimitDial(client.Dial, make(chan struct{}, 1)), func(c net.Conn) io.Reader { return c }},
		{"no take", client.Dial, func(c net.Conn) io.Reader { return struct{ io.Reader }{c} }},
	}
	f.Fuzz(func(t *testing.T, data []byte, cut1, cut2 uint16) {
		type read struct {
			msg *refMessage
			err string
		}
		var want []read
		for src := bytes.NewReader(data); len(want) < 64; {
			m, err := refReadMessage(src)
			want = append(want, read{m, errText(err)})
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				break
			}
		}
		a, b := min(int(cut1), len(data)), min(int(cut2), len(data))
		a, b = min(a, b), max(a, b)
		for _, r := range readers {
			dialed, err := r.dial(context.Background(), fmt.Sprintf("10.0.0.2:%d", Port))
			if err != nil {
				t.Fatal(err)
			}
			src, err := l.Accept()
			if err != nil {
				t.Fatal(err)
			}
			// The writer has its own goroutine; a write that fails once
			// the reads are done is no finding.
			wrote := make(chan struct{})
			go func() {
				defer close(wrote)
				defer src.Close()
				for _, seg := range [][]byte{data[:a], data[a:b], data[b:]} {
					if len(seg) > 0 {
						if _, err := src.Write(seg); err != nil {
							return
						}
					}
				}
			}()
			in := r.wrap(dialed)
			var got []read
			for len(got) < len(want) {
				frame, err := ReadFrame(in)
				var m *Message
				if err == nil {
					if cap(frame) != len(frame) {
						t.Fatalf("%s: frame of %d bytes has capacity %d", r.name, len(frame), cap(frame))
					}
					m, err = Unmarshal(frame[2:])
				}
				got = append(got, read{asRef(m), errText(err)})
				if err == io.EOF || err == io.ErrUnexpectedEOF {
					break
				}
			}
			dialed.Close()
			<-wrote
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s read\n%+v\nreference read\n%+v", r.name, got, want)
			}
		}
	})
}
