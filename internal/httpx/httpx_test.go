package httpx

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"csaw/internal/netem"
	"csaw/internal/tlsx"
	"csaw/internal/vtime"
)

func TestRequestRoundTrip(t *testing.T) {
	req := NewRequest("GET", "www.youtube.com", "/watch?v=abc")
	req.Header.Set("User-Agent", "csaw/1.0")
	req.Header.Add("Accept", "text/html")
	req.Header.Add("Accept", "image/png")

	var buf bytes.Buffer
	if err := WriteRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRequest(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Method != "GET" || got.Target != "/watch?v=abc" || got.Host != "www.youtube.com" {
		t.Fatalf("parsed %+v", got)
	}
	if i, j := got.Header.find("Accept"); j-i != 2 {
		t.Fatalf("Accept = %v", got.Header[i:j])
	}
}

func TestRequestWithBody(t *testing.T) {
	req := NewRequest("POST", "api.example.com", "/submit")
	req.Body = []byte(`{"vote":1}`)
	var buf bytes.Buffer
	if err := WriteRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRequest(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Body) != `{"vote":1}` {
		t.Fatalf("body = %q", got.Body)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resp := NewResponse(302, []byte("<html>moved</html>"))
	resp.Header.Set("Location", "http://block.isp.pk/blocked.html")
	var buf bytes.Buffer
	if err := WriteResponse(&buf, resp); err != nil {
		t.Fatal(err)
	}
	got, err := ReadResponse(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.StatusCode != 302 || got.Header.Get("Location") != "http://block.isp.pk/blocked.html" {
		t.Fatalf("parsed %+v", got)
	}
	if string(got.Body) != "<html>moved</html>" {
		t.Fatalf("body = %q", got.Body)
	}
}

func TestHeaderCanonicalization(t *testing.T) {
	h := Header{}
	h.Set("content-length", "5")
	if h.Get("Content-Length") != "5" {
		t.Fatal("case-insensitive get failed")
	}
	if CanonicalKey("x-forwarded-for") != "X-Forwarded-For" {
		t.Fatal("canonical key wrong")
	}
}

func TestMalformedRejected(t *testing.T) {
	cases := []string{
		"GARBAGE\r\n\r\n",
		"GET /\r\n\r\n",                         // missing proto
		"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n", // bad header
		"HTTP/1.1 abc OK\r\n\r\n",
	}
	for _, c := range cases {
		if _, err := ReadRequest(bufio.NewReader(strings.NewReader(c))); err == nil {
			if _, err2 := ReadResponse(bufio.NewReader(strings.NewReader(c))); err2 == nil {
				t.Errorf("input %q accepted by both parsers", c)
			}
		}
	}
	if _, err := ReadResponse(bufio.NewReader(strings.NewReader("HTTP/1.1 abc OK\r\n\r\n"))); err == nil {
		t.Error("bad status code accepted")
	}
}

func TestBodyLengthLimits(t *testing.T) {
	raw := "HTTP/1.1 200 OK\r\nContent-Length: 99999999999\r\n\r\n"
	if _, err := ReadResponse(bufio.NewReader(strings.NewReader(raw))); err == nil {
		t.Error("oversized content-length accepted")
	}
	raw = "HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\n"
	if _, err := ReadResponse(bufio.NewReader(strings.NewReader(raw))); err == nil {
		t.Error("negative content-length accepted")
	}
	raw = "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort"
	if _, err := ReadResponse(bufio.NewReader(strings.NewReader(raw))); err == nil {
		t.Error("truncated body accepted")
	}
}

func TestStatusText(t *testing.T) {
	if StatusText(200) != "OK" || StatusText(302) != "Found" || StatusText(418) != "Status 418" {
		t.Fatal("status text wrong")
	}
}

func TestQuickHeaderRoundTrip(t *testing.T) {
	// Property: headers with token keys and printable values survive a
	// request round trip.
	clean := func(s string, allowDash bool) string {
		var b strings.Builder
		for _, c := range s {
			if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || (allowDash && c == '-') {
				b.WriteRune(c)
			}
		}
		if b.Len() == 0 {
			return "X"
		}
		return b.String()
	}
	f := func(key, val string) bool {
		k := clean(key, true)
		v := clean(val, false)
		req := NewRequest("GET", "h.example", "/")
		req.Header.Set(k, v)
		var buf bytes.Buffer
		if err := WriteRequest(&buf, req); err != nil {
			return false
		}
		got, err := ReadRequest(bufio.NewReader(&buf))
		if err != nil {
			return false
		}
		return got.Header.Get(k) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickReadNoPanic(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = ReadRequest(bufio.NewReader(bytes.NewReader(b)))
		_, _ = ReadResponse(bufio.NewReader(bytes.NewReader(b)))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// httpWorld builds a client and a server host with a test handler.
func httpWorld(t *testing.T, h Handler) (*netem.Network, *Client, *Server) {
	t.Helper()
	clock := vtime.New(500)
	n := netem.New(clock, netem.WithSeed(3))
	as := n.AddAS(1, "ISP", "PK")
	us := n.AddAS(2, "US", "US")
	ch := n.MustAddHost("client", "10.0.0.1", "pk", as)
	sh := n.MustAddHost("server", "93.184.216.34", "us", us)
	n.SetRTT("pk", "us", 100*time.Millisecond)
	l, err := sh.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(l, h)
	client := &Client{Dial: ch.Dial, Clock: clock}
	return n, client, srv
}

func TestClientServerExchange(t *testing.T) {
	_, client, srv := httpWorld(t, HandlerFunc(func(req *Request, _ netem.Flow) *Response {
		if req.Target == "/hello" {
			return NewResponse(200, []byte("world "+req.Host))
		}
		return NewResponse(404, nil)
	}))
	defer srv.Close()
	resp, err := client.Get(context.Background(), "93.184.216.34:80", "example.com", "/hello")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || string(resp.Body) != "world example.com" {
		t.Fatalf("resp = %d %q", resp.StatusCode, resp.Body)
	}
}

func TestClientTimeoutOnSilentServer(t *testing.T) {
	n, client, srv := httpWorld(t, HandlerFunc(func(*Request, netem.Flow) *Response { return nil }))
	defer srv.Close()
	client.Timeout = 2 * time.Second
	start := n.Clock().Now()
	_, err := client.Get(context.Background(), "93.184.216.34:80", "example.com", "/")
	if err == nil {
		t.Fatal("request to silent server succeeded")
	}
	if el := n.Clock().Since(start); el < 1500*time.Millisecond || el > 10*time.Second {
		t.Errorf("timeout after %v, want ~2s", el)
	}
}

func TestServerFlowVisible(t *testing.T) {
	var gotAS int
	_, client, srv := httpWorld(t, HandlerFunc(func(_ *Request, flow netem.Flow) *Response {
		if flow.EgressAS != nil {
			gotAS = flow.EgressAS.Number
		}
		return NewResponse(204, nil)
	}))
	defer srv.Close()
	if _, err := client.Get(context.Background(), "93.184.216.34:80", "x", "/"); err != nil {
		t.Fatal(err)
	}
	if gotAS != 1 {
		t.Fatalf("server saw egress AS %d, want 1", gotAS)
	}
}

// exchange sends req on an open stream and parses one response, the way a
// keep-alive client would.
// bound gives conn a virtual budget, so a stalled exchange fails its test
// with a timeout instead of hanging it.
func bound(t *testing.T, clock *vtime.Clock, conn net.Conn, d time.Duration) {
	t.Helper()
	ctx, cancel := clock.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	netem.Bind(ctx, conn)
}

func exchange(t *testing.T, stream io.ReadWriter, br *bufio.Reader, req *Request) (*Response, error) {
	t.Helper()
	if err := WriteRequest(stream, req); err != nil {
		return nil, err
	}
	return ReadResponse(br)
}

// TestServeConnCloseOnEitherSide pins when the request loop ends: either
// side's Connection: close (in any letter case) closes the conn after that
// response, and nothing else does.
func TestServeConnCloseOnEitherSide(t *testing.T) {
	cases := []struct {
		name, reqConn, respConn string
		wantOpen                bool
	}{
		{name: "neither side asks", wantOpen: true},
		{name: "request asks", reqConn: "close"},
		{name: "response asks", respConn: "close"},
		{name: "mixed case counts", reqConn: "Close"},
		{name: "keep-alive does not", reqConn: "keep-alive", wantOpen: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, client, srv := httpWorld(t, HandlerFunc(func(*Request, netem.Flow) *Response {
				resp := NewResponse(200, []byte("ok"))
				if tc.respConn != "" {
					resp.Header.Set("Connection", tc.respConn)
				}
				return resp
			}))
			defer srv.Close()
			conn, err := client.Dial(context.Background(), "93.184.216.34:80")
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			bound(t, n.Clock(), conn, 5*time.Second)
			br := bufio.NewReader(conn)
			req := NewRequest("GET", "x", "/")
			if tc.reqConn != "" {
				req.Header.Set("Connection", tc.reqConn)
			}
			if _, err := exchange(t, conn, br, req); err != nil {
				t.Fatalf("first exchange: %v", err)
			}
			_, err = exchange(t, conn, br, NewRequest("GET", "x", "/again"))
			if open := err == nil; open != tc.wantOpen {
				t.Fatalf("second exchange on the same conn: err = %v, want open = %v", err, tc.wantOpen)
			}
		})
	}
}

// TestServeConnNilResponseStaysSilent: a handler that drops a request says
// nothing for it and the loop keeps serving the stream.
func TestServeConnNilResponseStaysSilent(t *testing.T) {
	n, client, srv := httpWorld(t, HandlerFunc(func(req *Request, _ netem.Flow) *Response {
		if req.Target == "/drop" {
			return nil
		}
		return NewResponse(200, []byte("served "+req.Target))
	}))
	defer srv.Close()
	conn, err := client.Dial(context.Background(), "93.184.216.34:80")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bound(t, n.Clock(), conn, 5*time.Second)
	if err := WriteRequest(conn, NewRequest("GET", "x", "/drop")); err != nil {
		t.Fatal(err)
	}
	resp, err := exchange(t, conn, bufio.NewReader(conn), NewRequest("GET", "x", "/next"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "served /next" {
		t.Fatalf("first bytes on the stream answer %q, want the request after the dropped one", resp.Body)
	}
}

// TestServeConnTLSRequestSeesServerClose runs ServeConn the way a pseudo-TLS
// origin does — handshake, then the request loop on the session — and pins
// the context contract on that path: a request arriving on an established
// session after its server closed carries a cancelled context.
func TestServeConnTLSRequestSeesServerClose(t *testing.T) {
	clock := vtime.New(500)
	n := netem.New(clock, netem.WithSeed(3))
	ch := n.MustAddHost("client", "10.0.0.1", "pk", n.AddAS(1, "ISP", "PK"))
	sh := n.MustAddHost("origin", "93.184.216.34", "us", n.AddAS(2, "US", "US"))
	n.SetRTT("pk", "us", 100*time.Millisecond)

	h := HandlerFunc(func(req *Request, _ netem.Flow) *Response {
		if req.Context().Err() != nil {
			return NewResponse(503, []byte("closing"))
		}
		return NewResponse(200, []byte("live"))
	})
	l, err := sh.Listen(tlsx.Port)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		defer cancel() // the accept loop ending is the server closing
		for {
			raw, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				tc, err := tlsx.Server(raw, tlsx.CertFor("site.example"))
				if err != nil {
					raw.Close()
					return
				}
				ServeConn(ctx, tc, raw.(*netem.Conn).Flow(), h)
			}()
		}
	}()

	raw, err := ch.Dial(context.Background(), "93.184.216.34:443")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	bound(t, clock, raw, 10*time.Second)
	tc, err := tlsx.Client(raw, "site.example", "site.example")
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(tc)
	if resp, err := exchange(t, tc, br, NewRequest("GET", "site.example", "/")); err != nil || resp.StatusCode != 200 {
		t.Fatalf("while serving: %v, %v", resp, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	<-stopped
	if resp, err := exchange(t, tc, br, NewRequest("GET", "site.example", "/")); err != nil || resp.StatusCode != 503 {
		t.Fatalf("after close: %v, %v; want the handler to see a cancelled context", resp, err)
	}
}

// TestRoundTripLeavesRequestAlone: the Connection: close default goes out
// on the wire but never into the caller's request, which callers reuse.
func TestRoundTripLeavesRequestAlone(t *testing.T) {
	var sawClose bool
	_, client, srv := httpWorld(t, HandlerFunc(func(req *Request, _ netem.Flow) *Response {
		sawClose = WantsClose(req.Header)
		return NewResponse(200, nil)
	}))
	defer srv.Close()
	req := NewRequest("GET", "x", "/")
	req.Header.Set("X-Probe", "1")
	if _, err := client.Do(context.Background(), "93.184.216.34:80", req); err != nil {
		t.Fatal(err)
	}
	if !sawClose {
		t.Error("server did not see Connection: close")
	}
	if len(req.Header) != 1 || req.Header.Get("X-Probe") != "1" {
		t.Errorf("request header after Do = %v, want it untouched", req.Header)
	}
}

// TestCopiesKeepTheirOwnFields: a field set on a copy of a parsed response
// stays off the original. A parsed message shares an allocation with its
// fields, so two headers filling the same array would shift each other's
// fields in place.
func TestCopiesKeepTheirOwnFields(t *testing.T) {
	var wire bytes.Buffer
	resp := NewResponse(200, []byte("page"))
	for i := 0; i < 5; i++ {
		resp.Header.Set(fmt.Sprintf("X-%c", 'B'+2*i), "v")
	}
	if err := WriteResponse(&wire, resp); err != nil {
		t.Fatal(err)
	}
	read, err := ReadResponse(bufio.NewReader(&wire))
	if err != nil {
		t.Fatal(err)
	}
	if len(read.Header) != cap(read.Header) {
		t.Errorf("parsed response Header: len %d, cap %d; want it clipped", len(read.Header), cap(read.Header))
	}
	before := slices.Clone(read.Header)
	cp := *read
	cp.Header.Set("X-A", "a")
	if !slices.Equal(read.Header, before) {
		t.Errorf("parsed response: Header %v after a Set on a copy, want %v", read.Header, before)
	}
}

// Add appends a value for key.
func (h *Header) Add(key, value string) {
	key = CanonicalKey(key)
	_, j := h.find(key)
	h.insert(j, Field{key, value})
}
