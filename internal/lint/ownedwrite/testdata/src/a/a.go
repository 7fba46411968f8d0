// Package a exercises the ownedwrite positive cases and its suppression.
package a

import "io"

type conn struct{}

func (conn) WriteOwned(b []byte) (int, error) { return len(b), nil }
func (conn) Write(b []byte) (int, error)      { return len(b), nil }

// WriteOwned is the helper form: the slice is the last argument.
func WriteOwned(w io.Writer, b []byte) (int, error) { return w.Write(b) }

type sender struct {
	c   conn
	buf []byte
}

// bad: an element store after the hand-off.
func storeAfter(c conn, b []byte) {
	c.WriteOwned(b)
	b[0] = 1 // want "store into b after it was handed to WriteOwned on line 21"
}

// bad: every spelling of a store.
func storeSpellings(c conn, b []byte) {
	c.WriteOwned(b[:4])
	b[1] += 2         // want "store into b"
	b[2]++            // want "store into b"
	b[3], b[4] = 5, 6 // want "store into b" "store into b"
}

// bad: copy into it, also through a re-slice.
func copyAfter(c conn, b, src []byte) {
	c.WriteOwned(b)
	copy(b, src)     // want "copy into b"
	copy(b[8:], src) // want "copy into b"
}

// bad: append writes into spare capacity; truncating first is the classic
// buffer reuse.
func appendAfter(c conn, b []byte) []byte {
	c.WriteOwned(b)
	b = append(b[:0], 'x') // want "append to b"
	return append(b, 'y')  // want "append to b"
}

// bad: reuse as a read buffer.
func readAfter(c conn, r io.Reader, b []byte) {
	c.WriteOwned(b)
	r.Read(b)             // want "read into b"
	io.ReadFull(r, b[1:]) // want "read into b"
}

// bad: the helper form hands over its last argument.
func helperForm(w io.Writer, b []byte) {
	WriteOwned(w, b)
	b[0] = 0 // want "store into b"
}

// bad: a field is one name too.
func (s *sender) fieldAfter() {
	s.c.WriteOwned(s.buf)
	s.buf[0] = 0 // want "store into s.buf"
}

// bad: the buffer outlives the iteration, so the fill at the top of the
// loop body overwrites what the previous iteration handed over.
func loopReuse(c conn, srcs [][]byte) {
	b := make([]byte, 64)
	for _, src := range srcs {
		n := copy(b, src) // want "copy into b"
		c.WriteOwned(b[:n])
	}
}

// bad in the inner loop only: the outer loop makes a fresh buffer.
func nestedLoops(c conn, srcs [][]byte) {
	for range srcs {
		b := make([]byte, 64)
		for _, src := range srcs {
			b[0] = src[0] // want "store into b"
			c.WriteOwned(b)
		}
	}
}

// A deliberate store carries the directive.
func allowed(c conn, b []byte) {
	c.WriteOwned(b)
	b[0] = 1 //lint:allow-ownedwrite the peer of this test conn has already consumed the bytes
}

// Response is shaped like httpx.Response: read off a connection, its body
// may be the bytes the sender handed over.
type Response struct{ Body []byte }

type client struct{}

func (client) Get(host string) (*Response, error)            { return &Response{}, nil }
func (client) Do(host string, req []byte) (*Response, error) { return &Response{}, nil }

func ReadResponse(r io.Reader) (*Response, error)    { return &Response{}, nil }
func ReadResponseCtx(r io.Reader) (*Response, error) { return &Response{}, nil }
func RoundTrip(rw io.Reader) (*Response, error)      { return &Response{}, nil }

// bad: a store into a response body.
func bodyStore(r io.Reader) {
	resp, _ := ReadResponse(r)
	resp.Body[0] = 1 // want "store into resp.Body, read on line 109: a response body may be the sender's bytes"
	resp.Body[1]++   // want "store into resp.Body"
}

// bad: copy into it, from any of the readers.
func bodyCopy(c client, src []byte) {
	resp, err := c.Get("x")
	if err != nil {
		return
	}
	copy(resp.Body[2:], src) // want "copy into resp.Body"
	got, _ := c.Do("x", src)
	copy(got.Body, src) // want "copy into got.Body"
}

// bad: reuse as a read buffer.
func bodyRead(r io.Reader) {
	resp, _ := RoundTrip(r)
	io.ReadFull(r, resp.Body) // want "read into resp.Body"
	resp, _ = ReadResponseCtx(r)
	r.Read(resp.Body[:1]) // want "read into resp.Body"
}

// Take and ReadFrame are shaped like netem.Take and dnsx.ReadFrame: the
// bytes they return may be a segment the sender handed over.
func Take(r io.Reader, max int) ([]byte, error) { return nil, nil }
func ReadFrame(r io.Reader) ([]byte, error)     { return nil, nil }

// bad: a store, a copy and a read into taken bytes.
func takenStore(r io.Reader, src []byte) {
	chunk, _ := Take(r, 64)
	chunk[0] = 1 // want "store into chunk, taken on line 140: bytes taken off a connection are the sender's"
	frame, err := ReadFrame(r)
	if err != nil {
		return
	}
	copy(frame[2:], src) // want "copy into frame"
	r.Read(frame)        // want "read into frame"
}

// bad: a Take result's capacity may run on into the segment.
func takenAppend(r io.Reader) []byte {
	chunk, _ := Take(r, 64)
	return append(chunk, '!') // want "append to chunk"
}
