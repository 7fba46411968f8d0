package httpx

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"csaw/internal/netem"
	"csaw/internal/vtime"
)

// The fuzz properties are fixed-point round-trips: whatever the parser
// accepts, the writer must serialize to bytes the parser reads back to the
// same message (write∘read idempotent after one normalization pass). This
// catches both panics on hostile input — the block-page classifier feeds
// ReadResponse whatever a censor injects — and writer/parser asymmetries
// like headers that serialize unparseably.

// The seed corpora (also checked in under testdata/fuzz/), shared with
// FuzzCodecVsReference.
var (
	requestSeeds = []string{
		"GET / HTTP/1.1\r\nHost: www.youtube.com\r\n\r\n",
		"POST /submit HTTP/1.1\r\nHost: api.example\r\nContent-Length: 3\r\n\r\nabc",
		"GET /watch?v=x HTTP/1.1\r\nHost: a\r\nCookie: k=v; k2=v2\r\n\r\n",
	}
	responseSeeds = []string{
		"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 5\r\n\r\nhello",
		"HTTP/1.1 302 Found\r\nLocation: http://block.example/blocked.html\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 204\r\n\r\n",
		"HTTP/1.0 599 Weird Status Text \r\nX-A: 1\r\nX-A: 2\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 58\r\n\r\n<html><iframe src=\"http://block.isp.pk/warn\"></iframe></ht",
	}
)

func FuzzReadResponse(f *testing.F) {
	for _, s := range responseSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r1, err := ReadResponse(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		var b1 bytes.Buffer
		if err := WriteResponse(&b1, r1); err != nil {
			t.Fatalf("parsed response does not serialize: %v", err)
		}
		r2, err := ReadResponse(bufio.NewReader(bytes.NewReader(b1.Bytes())))
		if err != nil {
			t.Fatalf("serialized response does not parse: %v\n%q", err, b1.String())
		}
		var b2 bytes.Buffer
		if err := WriteResponse(&b2, r2); err != nil {
			t.Fatalf("re-parsed response does not serialize: %v", err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatalf("write∘read not a fixed point:\nb1: %q\nb2: %q", b1.String(), b2.String())
		}
		if r2.StatusCode != r1.StatusCode || !bytes.Equal(r2.Body, r1.Body) {
			t.Fatalf("status/body changed across round-trip: %d/%q vs %d/%q",
				r1.StatusCode, r1.Body, r2.StatusCode, r2.Body)
		}
	})
}

// FuzzParseRequestHead holds ParseRequestHead, the in-place head parse an
// on-path censor decides on, to ReadRequest over the same bytes. Where
// ReadRequest fails in the head, so does ParseRequestHead; where it parses
// one, ParseRequestHead finds the same Target, Host and Connection: close,
// and the body ReadRequest reads starts where the head ends and runs for
// BodyLen bytes — or fails on the same Content-Length. Every prefix of a
// head that ends inside it, the one at cut too, is ErrIncomplete.
func FuzzParseRequestHead(f *testing.F) {
	for _, s := range append(append([]string(nil), requestSeeds...), codecEdgeSeeds()...) {
		f.Add([]byte(s), uint16(len(s)/2))
	}
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		h, err := ParseRequestHead(data)
		req, want := ReadRequest(bufio.NewReader(bytes.NewReader(data)))
		switch {
		case req == nil:
			if err == nil {
				t.Fatalf("ReadRequest fails in the head (%v), ParseRequestHead parses %+v", want, h)
			}
			return
		case errors.Is(want, ErrMalformed) || errors.Is(want, ErrTooLarge):
			if err == nil {
				t.Fatalf("ReadRequest rejects the Content-Length (%v), ParseRequestHead reads %d", want, h.BodyLen)
			}
			return
		case err != nil:
			t.Fatalf("ParseRequestHead: %v; ReadRequest parses %q %q", err, req.Target, req.Host)
		}
		if string(h.Target) != req.Target || string(h.Host) != req.Host || h.Close != WantsClose(req.Header) {
			t.Fatalf("head %q %q close=%v, ReadRequest %q %q close=%v",
				h.Target, h.Host, h.Close, req.Target, req.Host, WantsClose(req.Header))
		}
		if want == nil && !bytes.Equal(data[h.Len:h.Len+h.BodyLen], req.Body) {
			t.Fatalf("body at [%d:+%d] is %q, ReadRequest's %q", h.Len, h.BodyLen, data[h.Len:h.Len+h.BodyLen], req.Body)
		}
		if want != nil && h.Len+h.BodyLen <= len(data) {
			t.Fatalf("ReadRequest runs short of the body (%v), but %d+%d bytes are there", want, h.Len, h.BodyLen)
		}
		if c := int(cut); c < h.Len {
			if _, err := ParseRequestHead(data[:c]); !errors.Is(err, ErrIncomplete) {
				t.Fatalf("the head cut at %d of %d: %v, want ErrIncomplete", c, h.Len, err)
			}
		}
	})
}

// FuzzReadResponseTake holds the by-reference body read (readResponse with
// the stream as source, the RoundTrip path) to ReadResponse over the same
// bytes as one reader: the same response, compared field by field, or the
// same error. The input arrives as up to three segments, cut at cut1 and
// cut2, so a body can arrive as a segment of its
// own, partly buffered with the head, split, or short. A body is never
// left with capacity past its end.
func FuzzReadResponseTake(f *testing.F) {
	for _, s := range responseSeeds {
		for _, cut := range []uint16{0, 20, uint16(len(s) - 3), uint16(len(s))} {
			f.Add([]byte(s), cut, uint16(len(s)-1))
		}
		if i := strings.Index(s, "\r\n\r\n"); i >= 0 {
			f.Add([]byte(s), uint16(i+4), uint16(len(s))) // the body a segment of its own
		}
		f.Add([]byte(s[:len(s)-2]), uint16(20), uint16(len(s)-3)) // cut short
	}
	n := netem.New(vtime.NewEventDriven())
	as := n.AddAS(1, "AS", "XX")
	client := n.MustAddHost("client", "10.0.0.1", "x", as)
	l := n.MustAddHost("origin", "10.0.0.2", "x", as).MustListen(80)
	f.Fuzz(func(t *testing.T, data []byte, cut1, cut2 uint16) {
		want, wantErr := ReadResponse(bufio.NewReader(bytes.NewReader(data)))
		a, b := min(int(cut1), len(data)), min(int(cut2), len(data))
		a, b = min(a, b), max(a, b)
		dialed, err := client.Dial(context.Background(), "10.0.0.2:80")
		if err != nil {
			t.Fatal(err)
		}
		src, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		// As in FuzzRelayResponse: the writer has its own goroutine, and a
		// write that fails once the read is done is no finding.
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
		br := GetReader(dialed)
		defer PutReader(br)
		got, err := readResponse(br, dialed)
		dialed.Close()
		<-wrote
		switch {
		case fmt.Sprint(err) != fmt.Sprint(wantErr):
			t.Fatalf("error %v, ReadResponse error %v", err, wantErr)
		case !reflect.DeepEqual(got, want):
			t.Fatalf("read\n%+v\nReadResponse read\n%+v", got, want)
		case got != nil && cap(got.Body) != len(got.Body):
			t.Fatalf("body of %d bytes has capacity %d", len(got.Body), cap(got.Body))
		}
	})
}

func FuzzReadRequest(f *testing.F) {
	for _, s := range requestSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r1, err := ReadRequest(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		if strings.ContainsAny(r1.Method, " \t") || strings.ContainsAny(r1.Target, " \t") {
			// The request line is space-delimited; a method or target that
			// itself contains whitespace cannot survive serialization.
			return
		}
		var b1 bytes.Buffer
		if err := WriteRequest(&b1, r1); err != nil {
			t.Fatalf("parsed request does not serialize: %v", err)
		}
		r2, err := ReadRequest(bufio.NewReader(bytes.NewReader(b1.Bytes())))
		if err != nil {
			t.Fatalf("serialized request does not parse: %v\n%q", err, b1.String())
		}
		var b2 bytes.Buffer
		if err := WriteRequest(&b2, r2); err != nil {
			t.Fatalf("re-parsed request does not serialize: %v", err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatalf("write∘read not a fixed point:\nb1: %q\nb2: %q", b1.String(), b2.String())
		}
		if r2.Method != r1.Method || !bytes.Equal(r2.Body, r1.Body) {
			t.Fatalf("method/body changed across round-trip")
		}
	})
}
