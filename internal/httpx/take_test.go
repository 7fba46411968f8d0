package httpx

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"csaw/internal/netem"
	"csaw/internal/tlsx"
	"csaw/internal/vtime"
)

// takeHead announces an 11-byte body.
const takeHead = "HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 11\r\n\r\n"

// filler is more than a pipe holds in flight (256 KiB), so a sender that
// writes it and then one byte more waits until the reader has taken part of
// it: a fault the sender injects after that byte lands mid-body.
const filler = 300 << 10

// takeVia names how the reader's stream reaches the connection.
type takeVia string

const (
	viaConn takeVia = "conn" // the *netem.Conn itself
	viaSlot takeVia = "slot" // LimitDial's budgeted wrapper
	viaTLS  takeVia = "tlsx" // a pseudo-TLS session, which cannot take
)

// takeOutcome is what one read of a response gave, and what it left of the
// sender's bytes.
type takeOutcome struct {
	resp    *Response
	err     error
	aliased bool   // Body is the sender's bytes, not a copy
	sent    []byte // the sender's whole array after the read and an append to Body
	want    []byte // the same array as the sender wrote it
}

// readOffConn sends segs, one segment apiece, on a fresh emulated
// connection and reads one response off it through via: with the stream
// as the body's source when take is set (the RoundTrip path), through the
// reader alone otherwise (ReadResponse, the path before take). fault, if
// not "", replaces the sender's close: once part of the body has been
// taken, "reset" resets the connection and "expire" expires the reader's
// end.
func readOffConn(t *testing.T, via takeVia, segs []string, fault string, take bool) takeOutcome {
	t.Helper()
	n := netem.New(vtime.NewEventDriven())
	as := n.AddAS(1, "AS", "XX")
	client := n.MustAddHost("client", "10.0.0.1", "x", as)
	l := n.MustAddHost("origin", "10.0.0.2", "x", as).MustListen(80)
	dial := client.Dial
	if via == viaSlot {
		dial = netem.LimitDial(dial, make(chan struct{}, 1))
	}
	raw, err := dial(context.Background(), "10.0.0.2:80")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	served, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	var reader, sender net.Conn = raw, served
	if via == viaTLS {
		done := make(chan error, 1)
		go func() {
			tc, err := tlsx.Server(served, tlsx.CertFor("site.example"))
			sender = tc
			done <- err
		}()
		if reader, err = tlsx.Client(raw, "site.example", ""); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	// One array behind every segment, with room to spare past the last
	// one: an append to a body that kept the sender's capacity would
	// write there.
	wire := make([]byte, 0, len(strings.Join(segs, ""))+16)
	for _, s := range segs {
		wire = append(wire, s...)
	}
	wire = wire[:cap(wire)]
	want := bytes.Clone(wire)
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		off := 0
		for _, s := range segs {
			seg := wire[off : off+len(s)]
			off += len(s)
			if _, err := netem.WriteOwned(sender, seg); err != nil {
				return
			}
		}
		if fault == "" {
			sender.Close()
			return
		}
		// One byte past the filler: written once the reader has taken
		// part of it.
		if _, err := sender.Write([]byte("x")); err != nil {
			return
		}
		if fault == "reset" {
			served.(*netem.Conn).Reset()
		} else {
			netem.Expire(raw)
		}
	}()

	br := bufio.NewReader(reader)
	var src io.Reader
	if take {
		src = reader
	}
	resp, err := readResponse(br, src)
	raw.Close() // a sender still waiting on the pipe's cap gives up
	<-wrote
	out := takeOutcome{resp: resp, err: err, sent: wire, want: want}
	if resp != nil && len(resp.Body) > 0 {
		first := uintptr(unsafe.Pointer(&resp.Body[0]))
		base := uintptr(unsafe.Pointer(&wire[0]))
		out.aliased = base <= first && first < base+uintptr(len(wire))
		if cap(resp.Body) != len(resp.Body) {
			t.Errorf("cap(Body) = %d, len %d: an append could reach the sender's array", cap(resp.Body), len(resp.Body))
		}
		_ = append(resp.Body, '!') //lint:allow-sliceshare the append is the probe: a clipped body must reallocate, leaving the sender's array as it was
	}
	return out
}

// TestReadResponseTake holds the by-reference body read to the copying one
// it replaced, case by case and through each kind of stream: the same
// status, header and body bytes, the same error, and — where the sender
// closes cleanly — both equal to ReadResponse over the bytes as one
// reader. Only a body that arrives as one segment of its own on a stream
// that can take is the sender's array; no append to it reaches that array.
func TestReadResponseTake(t *testing.T) {
	big := strings.Replace(takeHead, "11", fmt.Sprint(2+filler+10), 1)
	cases := []struct {
		name  string
		segs  []string
		fault string
		byRef bool // the body is taken by reference where the stream can take
		class error
	}{
		{name: "body in one segment", segs: []string{takeHead, "hello world"}, byRef: true},
		{name: "body split across segments", segs: []string{takeHead, "hello", " world"}},
		{name: "head and body in one segment", segs: []string{takeHead + "hello world"}},
		{name: "body partly buffered with the head", segs: []string{takeHead + "hel", "lo world"}},
		{name: "content-length 0", segs: []string{"HTTP/1.1 204 No Content\r\nContent-Length: 0\r\n\r\n"}},
		{name: "no content-length", segs: []string{"HTTP/1.1 200 OK\r\n\r\n", "ignored"}},
		{name: "EOF before the body", segs: []string{takeHead}, class: io.EOF},
		{name: "EOF mid-body", segs: []string{takeHead, "hello"}, class: io.ErrUnexpectedEOF},
		{name: "reset mid-body", segs: []string{big, "he", strings.Repeat("f", filler)}, fault: "reset", class: netem.ErrReset},
		{name: "expired mid-body", segs: []string{big, "he", strings.Repeat("f", filler)}, fault: "expire", class: netem.ErrTimeout},
	}
	for _, c := range cases {
		for _, via := range []takeVia{viaConn, viaSlot, viaTLS} {
			t.Run(c.name+"/"+string(via), func(t *testing.T) {
				got := readOffConn(t, via, c.segs, c.fault, true)
				old := readOffConn(t, via, c.segs, c.fault, false)
				if c.class != nil && !errors.Is(got.err, c.class) {
					t.Errorf("error %v, want one that is %v", got.err, c.class)
				}
				if fmt.Sprint(got.err) != fmt.Sprint(old.err) || !reflect.DeepEqual(got.resp, old.resp) {
					t.Errorf("read\n%+v, %v\nthe copying read gave\n%+v, %v", got.resp, got.err, old.resp, old.err)
				}
				if c.fault == "" {
					ref, err := ReadResponse(bufio.NewReader(strings.NewReader(strings.Join(c.segs, ""))))
					if fmt.Sprint(got.err) != fmt.Sprint(err) || !reflect.DeepEqual(got.resp, ref) {
						t.Errorf("read\n%+v, %v\nReadResponse over the bytes gave\n%+v, %v", got.resp, got.err, ref, err)
					}
				}
				if wantRef := c.byRef && via != viaTLS; got.aliased != wantRef {
					t.Errorf("body taken by reference: %v, want %v", got.aliased, wantRef)
				}
				if old.aliased {
					t.Error("the copying read returned the sender's bytes")
				}
				for _, o := range []takeOutcome{got, old} {
					if !bytes.Equal(o.sent, o.want) {
						t.Errorf("the sender's array changed under the reader:\n%q\nwant\n%q", o.sent, o.want)
					}
				}
			})
		}
	}
}

// TestReadBodyTakeAllocs pins the point of the take: a body that arrives as
// one segment costs the reader no allocation at all, and a stream that
// cannot take costs what the copying read did — the body, nothing more.
func TestReadBodyTakeAllocs(t *testing.T) {
	skipUnderRace(t)
	n := netem.New(vtime.NewEventDriven())
	as := n.AddAS(1, "AS", "XX")
	client := n.MustAddHost("client", "10.0.0.1", "x", as)
	l := n.MustAddHost("origin", "10.0.0.2", "x", as).MustListen(80)
	raw, err := client.Dial(context.Background(), "10.0.0.2:80")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	served, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.Repeat([]byte("<p>page</p>"), 1000)
	var h Header
	h.Set("Content-Length", fmt.Sprint(len(body)))
	readOnce := func(br *bufio.Reader, src io.Reader) func() {
		return func() {
			if _, err := netem.WriteOwned(served, body); err != nil {
				t.Fatal(err)
			}
			got, err := readBody(br, src, h)
			if err != nil || len(got) != len(body) {
				t.Fatalf("readBody: %d bytes, %v", len(got), err)
			}
		}
	}
	br := bufio.NewReader(raw)
	if a := testing.AllocsPerRun(100, readOnce(br, raw)); a != 0 {
		t.Errorf("a one-segment body: %v allocations, want 0", a)
	}
	// A wrapper without Take: what tlsx, Lantern and Tor streams are.
	plain := struct{ io.Reader }{raw}
	br.Reset(plain)
	copying := testing.AllocsPerRun(100, readOnce(br, nil))
	if a := testing.AllocsPerRun(100, readOnce(br, plain)); a != copying || a != 1 {
		t.Errorf("a stream that cannot take: %v allocations, the copying read %v; want 1, the body", a, copying)
	}
}
