// Package httpx is a small HTTP/1.1 implementation for the emulated
// internet. The standard net/http could not be reused as-is for this
// repository's purposes: the censor middlebox needs to parse and forge
// requests from raw netem streams, the C-Saw proxy needs to connect to one
// address while sending a different Host header (domain fronting, "IP as
// hostname"), and all timeouts must run on the virtual clock. The subset
// implemented — request/response codecs with Content-Length bodies,
// keep-alive, a dial-decoupled client, and a handler-based server — is what
// the paper's workloads exercise.
package httpx

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"csaw/internal/netem"
)

// Header holds HTTP headers with case-insensitive keys (stored canonically).
type Header map[string][]string

// CanonicalKey normalizes a header name: "content-length" → "Content-Length".
func CanonicalKey(k string) string {
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
func (h Header) Set(key, value string) { h[CanonicalKey(key)] = []string{value} }

// Add appends a value for key.
func (h Header) Add(key, value string) {
	k := CanonicalKey(key)
	h[k] = append(h[k], value)
}

// Get returns the first value for key, or "".
func (h Header) Get(key string) string {
	if vs := h[CanonicalKey(key)]; len(vs) > 0 {
		return vs[0]
	}
	return ""
}

// Del removes key.
func (h Header) Del(key string) { delete(h, CanonicalKey(key)) }

// clone deep-copies the header.
func (h Header) clone() Header {
	c := make(Header, len(h))
	for k, vs := range h {
		c[k] = append([]string(nil), vs...)
	}
	return c
}

// Request is an HTTP request. Target is the origin-form request target
// (path plus optional query), and Host the Host header value; a censor
// matches its URL blacklist against "Host + Target" (§2.1).
type Request struct {
	Method string
	Target string
	Proto  string
	Host   string
	Header Header
	Body   []byte

	// ctx is the request's lifetime: the server derives it from its own
	// run context, so handlers that issue upstream calls (the replica
	// forwarder, proxies) stop when the caller is gone instead of holding
	// resources for a client that hung up.
	ctx context.Context
}

// Context returns the request's context, never nil: requests built outside
// a server (tests, clients) default to context.Background().
func (r *Request) Context() context.Context {
	if r.ctx != nil {
		return r.ctx
	}
	return context.Background()
}

// WithContext returns a shallow copy of r carrying ctx.
func (r *Request) WithContext(ctx context.Context) *Request {
	r2 := *r
	r2.ctx = ctx
	return &r2
}

// NewRequest builds a GET-style request with an initialized header.
func NewRequest(method, host, target string) *Request {
	if target == "" {
		target = "/"
	}
	return &Request{Method: method, Target: target, Proto: "HTTP/1.1", Host: host, Header: Header{}}
}

// URL returns the conventional "host/target" form used as a database key.
func (r *Request) URL() string { return r.Host + r.Target }

// Response is an HTTP response.
type Response struct {
	Proto      string
	StatusCode int
	Status     string
	Header     Header
	Body       []byte
}

// NewResponse builds a response with the given status and body, setting
// Content-Length.
func NewResponse(code int, body []byte) *Response {
	r := &Response{Proto: "HTTP/1.1", StatusCode: code, Status: StatusText(code), Header: Header{}}
	r.Header.Set("Content-Length", strconv.Itoa(len(body)))
	r.Body = body
	return r
}

// StatusText returns the reason phrase for the handful of codes in use.
func StatusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 204:
		return "No Content"
	case 301:
		return "Moved Permanently"
	case 302:
		return "Found"
	case 400:
		return "Bad Request"
	case 403:
		return "Forbidden"
	case 404:
		return "Not Found"
	case 421:
		return "Misdirected Request"
	case 429:
		return "Too Many Requests"
	case 500:
		return "Internal Server Error"
	case 502:
		return "Bad Gateway"
	case 503:
		return "Service Unavailable"
	default:
		return "Status " + strconv.Itoa(code)
	}
}

// Codec errors.
var (
	ErrMalformed = errors.New("httpx: malformed message")
	ErrTooLarge  = errors.New("httpx: message too large")
)

// Limits protecting the parsers.
const (
	maxLineBytes   = 16 << 10
	maxHeaderCount = 128
	// MaxBodyBytes bounds bodies accepted by the codecs.
	MaxBodyBytes = 32 << 20
)

// WriteRequest serializes a request. The Host header is emitted from
// r.Host; Content-Length is set from the body. When w offers WriteOwned
// (a *netem.Conn) the body is handed over by reference, not copied: r.Body
// must not be modified from then on.
func WriteRequest(w io.Writer, r *Request) error {
	target := r.Target
	if target == "" {
		target = "/"
	}
	proto := r.Proto
	if proto == "" {
		proto = "HTTP/1.1"
	}
	head := fmt.Appendf(make([]byte, 0, headBytes), "%s %s %s\r\nHost: %s\r\n", r.Method, target, proto, r.Host)
	head = appendHeaders(head, r.Header, len(r.Body), r.Method != "GET" && r.Method != "HEAD" || len(r.Body) > 0)
	return writeMessage(w, head, r.Body)
}

// WriteResponse serializes a response, always emitting Content-Length. The
// body is handed over like WriteRequest's: r.Body must not be modified
// after a write to a *netem.Conn.
func WriteResponse(w io.Writer, r *Response) error {
	proto := r.Proto
	if proto == "" {
		proto = "HTTP/1.1"
	}
	status := r.Status
	if status == "" {
		status = StatusText(r.StatusCode)
	}
	head := fmt.Appendf(make([]byte, 0, headBytes), "%s %d %s\r\n", proto, r.StatusCode, status)
	head = appendHeaders(head, r.Header, len(r.Body), true)
	return writeMessage(w, head, r.Body)
}

// headBytes is room for the start line and headers of the messages the
// simulation sends, so a head is built in one allocation.
const headBytes = 128

func appendHeaders(b []byte, h Header, bodyLen int, forceLen bool) []byte {
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

// writeMessage sends a serialized head and, when there is one, the body as
// two writes — two segments on an emulated connection — giving both up.
func writeMessage(w io.Writer, head, body []byte) error {
	if _, err := netem.WriteOwned(w, head); err != nil || len(body) == 0 {
		return err
	}
	_, err := netem.WriteOwned(w, body)
	return err
}

// ReadRequest parses one request from br.
func ReadRequest(br *bufio.Reader) (*Request, error) {
	line, err := readLine(br)
	if err != nil {
		return nil, err
	}
	parts := strings.SplitN(line, " ", 3)
	if len(parts) != 3 || !strings.HasPrefix(parts[2], "HTTP/") {
		return nil, fmt.Errorf("%w: request line %q", ErrMalformed, line)
	}
	req := &Request{Method: parts[0], Target: parts[1], Proto: parts[2], Header: Header{}}
	if err := readHeaders(br, req.Header); err != nil {
		return nil, err
	}
	req.Host = req.Header.Get("Host")
	req.Header.Del("Host")
	req.Body, err = readBody(br, req.Header)
	return req, err
}

// ReadResponse parses one response from br.
func ReadResponse(br *bufio.Reader) (*Response, error) {
	line, err := readLine(br)
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
	resp := &Response{Proto: parts[0], StatusCode: code, Header: Header{}}
	if len(parts) == 3 {
		resp.Status = parts[2]
	}
	if err := readHeaders(br, resp.Header); err != nil {
		return nil, err
	}
	resp.Body, err = readBody(br, resp.Header)
	return resp, err
}

func readLine(br *bufio.Reader) (string, error) {
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

func readHeaders(br *bufio.Reader, h Header) error {
	for count := 0; ; count++ {
		if count > maxHeaderCount {
			return ErrTooLarge
		}
		line, err := readLine(br)
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

func readBody(br *bufio.Reader, h Header) ([]byte, error) {
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
