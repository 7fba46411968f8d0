package httpx

// The map-based codec this package had before a message head became one
// string (see head in httpx.go), kept as the oracle FuzzCodecVsReference
// holds the in-place codec to: same accept/reject, same parsed message, same
// bytes back on the wire. It is the old code with its names prefixed — do
// not "improve" it.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

type refRequest struct {
	Method, Target, Proto, Host string
	Header                      refHeader
	Body                        []byte
}

type refResponse struct {
	Proto      string
	StatusCode int
	Status     string
	Header     refHeader
	Body       []byte
}

// refHeader holds HTTP headers with case-insensitive keys (stored canonically).
type refHeader map[string][]string

// refCanonicalKey normalizes a header name: "content-length" → "Content-Length".
func refCanonicalKey(k string) string {
	b := []byte(k)
	upper := true
	for i, c := range b {
		switch {
		case upper && 'a' <= c && c <= 'z':
			b[i] = c - 'a' + 'A'
		case !upper && 'A' <= c && c <= 'Z':
			b[i] = c - 'A' + 'a'
		}
		upper = c == '-'
	}
	return string(b)
}

// Set replaces the values for key.
func (h refHeader) Set(key, value string) { h[refCanonicalKey(key)] = []string{value} }

// Add appends a value for key.
func (h refHeader) Add(key, value string) {
	k := refCanonicalKey(key)
	h[k] = append(h[k], value)
}

// Get returns the first value for key, or "".
func (h refHeader) Get(key string) string {
	if vs := h[refCanonicalKey(key)]; len(vs) > 0 {
		return vs[0]
	}
	return ""
}

// Del removes key.
func (h refHeader) Del(key string) { delete(h, refCanonicalKey(key)) }

// refWriteRequest serializes a request. The Host header is emitted from
// r.Host; Content-Length is set from the body.
func refWriteRequest(w io.Writer, r *refRequest) error {
	target := r.Target
	if target == "" {
		target = "/"
	}
	proto := r.Proto
	if proto == "" {
		proto = "HTTP/1.1"
	}
	head := fmt.Appendf(make([]byte, 0, refHeadBytes), "%s %s %s\r\nHost: %s\r\n", r.Method, target, proto, r.Host)
	head = refAppendHeaders(head, r.Header, len(r.Body), r.Method != "GET" && r.Method != "HEAD" || len(r.Body) > 0)
	return writeMessage(w, head, r.Body)
}

// refWriteResponse serializes a response, always emitting Content-Length.
func refWriteResponse(w io.Writer, r *refResponse) error {
	proto := r.Proto
	if proto == "" {
		proto = "HTTP/1.1"
	}
	status := r.Status
	if status == "" {
		status = StatusText(r.StatusCode)
	}
	head := fmt.Appendf(make([]byte, 0, refHeadBytes), "%s %d %s\r\n", proto, r.StatusCode, status)
	head = refAppendHeaders(head, r.Header, len(r.Body), true)
	return writeMessage(w, head, r.Body)
}

// refHeadBytes is room for the start line and headers of the messages the
// simulation sends, so a head is built in one allocation.
const refHeadBytes = 128

func refAppendHeaders(b []byte, h refHeader, bodyLen int, forceLen bool) []byte {
	keys := make([]string, 0, len(h))
	for k := range h {
		if k == "Host" || k == "Content-Length" {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, v := range h[k] {
			b = fmt.Appendf(b, "%s: %s\r\n", k, v)
		}
	}
	if forceLen || bodyLen > 0 {
		b = fmt.Appendf(b, "Content-Length: %d\r\n", bodyLen)
	}
	return append(b, "\r\n"...)
}

// refReadRequest parses one request from br.
func refReadRequest(br *bufio.Reader) (*refRequest, error) {
	line, err := refReadLine(br)
	if err != nil {
		return nil, err
	}
	parts := strings.SplitN(line, " ", 3)
	if len(parts) != 3 || !strings.HasPrefix(parts[2], "HTTP/") {
		return nil, fmt.Errorf("%w: request line %q", ErrMalformed, line)
	}
	req := &refRequest{Method: parts[0], Target: parts[1], Proto: parts[2], Header: refHeader{}}
	if err := refReadHeaders(br, req.Header); err != nil {
		return nil, err
	}
	req.Host = req.Header.Get("Host")
	req.Header.Del("Host")
	req.Body, err = refReadBody(br, req.Header)
	return req, err
}

// refReadResponse parses one response from br.
func refReadResponse(br *bufio.Reader) (*refResponse, error) {
	line, err := refReadLine(br)
	if err != nil {
		return nil, err
	}
	parts := strings.SplitN(line, " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/") {
		return nil, fmt.Errorf("%w: status line %q", ErrMalformed, line)
	}
	code, err := strconv.Atoi(parts[1])
	if err != nil || code < 100 || code > 599 {
		return nil, fmt.Errorf("%w: status code %q", ErrMalformed, parts[1])
	}
	resp := &refResponse{Proto: parts[0], StatusCode: code, Header: refHeader{}}
	if len(parts) == 3 {
		resp.Status = parts[2]
	}
	if err := refReadHeaders(br, resp.Header); err != nil {
		return nil, err
	}
	resp.Body, err = refReadBody(br, resp.Header)
	return resp, err
}

func refReadLine(br *bufio.Reader) (string, error) {
	var sb strings.Builder
	for {
		chunk, isPrefix, err := br.ReadLine()
		if err != nil {
			return "", err
		}
		sb.Write(chunk)
		if sb.Len() > maxLineBytes {
			return "", ErrTooLarge
		}
		if !isPrefix {
			return sb.String(), nil
		}
	}
}

func refReadHeaders(br *bufio.Reader, h refHeader) error {
	for count := 0; ; count++ {
		if count > maxHeaderCount {
			return ErrTooLarge
		}
		line, err := refReadLine(br)
		if err != nil {
			return err
		}
		if line == "" {
			return nil
		}
		i := strings.IndexByte(line, ':')
		if i <= 0 {
			return fmt.Errorf("%w: header %q", ErrMalformed, line)
		}
		key := strings.TrimSpace(line[:i])
		if key == "" {
			// A whitespace-only key would serialize as ": v", which no
			// parser (ours included) reads back.
			return fmt.Errorf("%w: header %q", ErrMalformed, line)
		}
		h.Add(key, strings.TrimSpace(line[i+1:]))
	}
}

func refReadBody(br *bufio.Reader, h refHeader) ([]byte, error) {
	cl := h.Get("Content-Length")
	if cl == "" {
		return nil, nil
	}
	n, err := strconv.Atoi(cl)
	if err != nil || n < 0 {
		return nil, fmt.Errorf("%w: content-length %q", ErrMalformed, cl)
	}
	if n > MaxBodyBytes {
		return nil, ErrTooLarge
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(br, body); err != nil {
		return nil, err
	}
	return body, nil
}

// codecEdgeSeeds are the inputs where the in-place parser's bookkeeping could
// part from the map-based one's.
func codecEdgeSeeds() []string {
	lines := func(n int) string {
		var b strings.Builder
		b.WriteString("GET / HTTP/1.1\r\n")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "X-%03d: %d\r\n", i, i)
		}
		return b.String() + "\r\n"
	}
	long := strings.Repeat("v", 5000) // longer than the 4 KiB reader: ReadLine's isPrefix path
	return []string{
		"GET / HTTP/1.1\r\nHost: a\r\nHost: b\r\nAccept: 1\r\nZ: z\r\nAccept: 2\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nxy",
		"GET / HTTP/1.1\r\nhOsT: a\r\nx-fOO-bar: 1\r\nX-Foo-Bar: 2\r\ncontent-length: 2\r\nconnection: \r\n\r\nxy",
		"GET / HTTP/1.1\r\nHost: a\r\nX-Long: " + long + "\r\nX-After: 1\r\n\r\n",
		"GET /" + strings.Repeat("p", 4095-len("GET / HTTP/1.1")) + " HTTP/1.1\r\nHost: a\r\n\r\n", // "\r\n" straddles the reader's buffer
		"HTTP/1.1 200 OK\r\nX-Long: " + long + long + long + long + "\r\n\r\n",                     // over maxLineBytes
		"GET / HTTP/1.1\nHost: a\nX: \t 1 \t\n\nrest",
		"HTTP/1.1 200 OK\nContent-Length: 2\r\n\nok",
		"GET / HTTP/1.1\r\nHost: a\r\nX: 1",
		"GET / HTTP/1.1\r\nHost: a\r\nX: 1\r\n",
		"HTTP/1.1 200",
		"HTTP/1.1 +200 OK\r\n\r\n",
		"HTTP/1.1 200  two spaces\r\n  Key  :  v \r\n\r\n",
		"GET / HTTP/1.1\r\n : v\r\n\r\n",
		"GET  HTTP/1.1\r\n\r\n",
		"GET / x HTTP/1.1\r\n\r\n",
		lines(128),
		lines(129),
		lines(127) + "no colon\r\n\r\n",
	}
}

// flatten lists a reference header the way Header stores one.
func (h refHeader) flatten() Header {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out Header
	for _, k := range keys {
		for _, v := range h[k] {
			out = append(out, Field{k, v})
		}
	}
	return out
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// FuzzCodecVsReference holds the codec to the map-based one it replaced, for
// requests and responses: the same inputs accepted and rejected (with the
// same error), the same bytes left unread, the same message parsed, and the
// same bytes written back — also with RoundTrip's Connection: close default,
// which the old client set on a copy of the header.
func FuzzCodecVsReference(f *testing.F) {
	for _, seeds := range [][]string{requestSeeds, responseSeeds, codecEdgeSeeds()} {
		for _, s := range seeds {
			f.Add([]byte(s))
		}
	}
	rest := func(t *testing.T, br *bufio.Reader) string {
		b, err := io.ReadAll(br)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	sameHeader := func(t *testing.T, got Header, want refHeader) {
		if !slices.Equal(got, want.flatten()) {
			t.Fatalf("header fields differ:\n got %q\nwant %q", got, want.flatten())
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		br, refBr := bufio.NewReader(bytes.NewReader(data)), bufio.NewReader(bytes.NewReader(data))
		req, err := ReadRequest(br)
		refReq, refErr := refReadRequest(refBr)
		if errText(err) != errText(refErr) || (req == nil) != (refReq == nil) {
			t.Fatalf("ReadRequest: %v (message %v), reference: %v (message %v)", err, req != nil, refErr, refReq != nil)
		}
		if got, want := rest(t, br), rest(t, refBr); got != want {
			t.Fatalf("ReadRequest left %q unread, reference %q", got, want)
		}
		if req != nil {
			if req.Method != refReq.Method || req.Target != refReq.Target || req.Proto != refReq.Proto ||
				req.Host != refReq.Host || !bytes.Equal(req.Body, refReq.Body) {
				t.Fatalf("request differs:\n got %+v\nwant %+v", req, refReq)
			}
			sameHeader(t, req.Header, refReq.Header)
			var out, refOut bytes.Buffer
			if err, refErr := WriteRequest(&out, req), refWriteRequest(&refOut, refReq); err != nil || refErr != nil {
				t.Fatal(err, refErr)
			}
			if !bytes.Equal(out.Bytes(), refOut.Bytes()) {
				t.Fatalf("WriteRequest:\n got %q\nwant %q", out.Bytes(), refOut.Bytes())
			}
			if req.Header.Get("Connection") == "" {
				refReq.Header["Connection"] = []string{"close"}
				out.Reset()
				refOut.Reset()
				if err, refErr := writeRequest(&out, req, Field{"Connection", "close"}), refWriteRequest(&refOut, refReq); err != nil || refErr != nil {
					t.Fatal(err, refErr)
				}
				if !bytes.Equal(out.Bytes(), refOut.Bytes()) {
					t.Fatalf("writeRequest with Connection: close:\n got %q\nwant %q", out.Bytes(), refOut.Bytes())
				}
			}
		}

		br, refBr = bufio.NewReader(bytes.NewReader(data)), bufio.NewReader(bytes.NewReader(data))
		resp, err := ReadResponse(br)
		refResp, refErr := refReadResponse(refBr)
		if errText(err) != errText(refErr) || (resp == nil) != (refResp == nil) {
			t.Fatalf("ReadResponse: %v (message %v), reference: %v (message %v)", err, resp != nil, refErr, refResp != nil)
		}
		if got, want := rest(t, br), rest(t, refBr); got != want {
			t.Fatalf("ReadResponse left %q unread, reference %q", got, want)
		}
		if resp != nil {
			if resp.Proto != refResp.Proto || resp.StatusCode != refResp.StatusCode || resp.Status != refResp.Status ||
				!bytes.Equal(resp.Body, refResp.Body) {
				t.Fatalf("response differs:\n got %+v\nwant %+v", resp, refResp)
			}
			sameHeader(t, resp.Header, refResp.Header)
			var out, refOut bytes.Buffer
			if err, refErr := WriteResponse(&out, resp), refWriteResponse(&refOut, refResp); err != nil || refErr != nil {
				t.Fatal(err, refErr)
			}
			if !bytes.Equal(out.Bytes(), refOut.Bytes()) {
				t.Fatalf("WriteResponse:\n got %q\nwant %q", out.Bytes(), refOut.Bytes())
			}
		}
	})
}
