// Package clean holds the shapes ownedwrite must accept.
package clean

import "io"

type conn struct{}

func (conn) WriteOwned(b []byte) (int, error) { return len(b), nil }
func (conn) Write(b []byte) (int, error)      { return len(b), nil }

// Everything before the hand-off is the caller's business.
func fillThenHandOver(c conn, src []byte) {
	b := make([]byte, len(src))
	copy(b, src)
	b[0] ^= 0xff
	b = append(b, '\n')
	c.WriteOwned(b)
}

// Reading what was handed over stays fine.
func readAfter(c conn, b []byte) byte {
	c.WriteOwned(b)
	sum := b[0]
	for _, x := range b[1:] {
		sum += x
	}
	return sum
}

// A fresh buffer under the old name ends the watch.
func rebind(c conn, n int) {
	b := make([]byte, n)
	c.WriteOwned(b)
	b = make([]byte, n)
	b[0] = 1
	c.WriteOwned(b)
	b = nil
	b = append(b, 2)
}

// A buffer made inside the loop is new on every iteration.
func loopFresh(c conn, srcs [][]byte) {
	for _, src := range srcs {
		b := make([]byte, len(src))
		copy(b, src)
		c.WriteOwned(b)
	}
}

// So is one rebound at the top of the body.
func loopRebound(c conn, srcs [][]byte) {
	var b []byte
	for _, src := range srcs {
		b = make([]byte, len(src))
		copy(b, src)
		c.WriteOwned(b)
	}
}

// Write copies: the caller keeps its buffer.
func plainWrite(c conn, r io.Reader, b []byte) {
	c.Write(b)
	r.Read(b)
	b[0] = 0
}

// Another variable of the same spelling is another variable.
func shadow(c conn, b []byte) {
	c.WriteOwned(b)
	{
		b := make([]byte, 4)
		b[0] = 1
	}
}

// Response is shaped like httpx.Response.
type Response struct{ Body []byte }

func ReadResponse(r io.Reader) (*Response, error) { return &Response{}, nil }

// An append to a response body reallocates: its capacity is clipped.
func bodyAppend(r io.Reader) []byte {
	resp, _ := ReadResponse(r)
	return append(resp.Body, '\n')
}

// Reading a body is what it is for.
func bodyRead(r io.Reader) byte {
	resp, _ := ReadResponse(r)
	return resp.Body[0]
}

// A response built here, not read, is the caller's.
func bodyRebound(r io.Reader) {
	resp, _ := ReadResponse(r)
	resp = &Response{Body: make([]byte, 1)}
	resp.Body[0] = 1
}

type entry struct{ Data []byte }

type cache struct{}

func (cache) Get(key string) *entry { return &entry{} }

// A Get whose result has no Body is no response reader.
func otherGet(c cache) {
	e := c.Get("k")
	e.Data[0] = 1
}

// ReadFrame is shaped like dnsx.ReadFrame, Take like netem.Take.
func ReadFrame(r io.Reader) ([]byte, error)     { return nil, nil }
func Take(r io.Reader, max int) ([]byte, error) { return nil, nil }

// fine: a taken frame is read, appended to (its capacity is clipped) and
// passed on; a fresh buffer in the same variable is the caller's own.
func frameRelay(c conn, r io.Reader) []byte {
	frame, err := ReadFrame(r)
	if err != nil || frame[0] == 0 {
		return nil
	}
	out := append(frame, '\n')
	c.WriteOwned(frame)
	frame = make([]byte, 2)
	frame[0] = 1
	return out
}

// fine: taken bytes copied out of, into a buffer of the caller's.
func takeCopy(r io.Reader, dst []byte) int {
	chunk, _ := Take(r, len(dst))
	return copy(dst, chunk)
}

// A Take that returns no bytes is no taker.
type gate struct{}

func (gate) Take(n int) (int, error) { return n, nil }

func otherTake(g gate) {
	n, _ := g.Take(1)
	n++
}
