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
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode"

	"csaw/internal/netem"
)

// Field is one header line.
type Field struct{ Key, Value string }

// Header holds HTTP header fields under case-insensitive names, stored
// canonically. The fields are kept sorted by key in byte order — the order
// they go out on the wire — and the values of one key in the order they were
// added, which is what Set, Add and Del maintain: build a Header with them,
// not as a literal. The zero value is an empty header.
type Header []Field

// CanonicalKey normalizes a header name: "content-length" → "Content-Length".
// A name that is already canonical — every name this package serializes — is
// returned as it is, and so is the canonical form of a name this repository
// sends: CanonicalKey("ETag") is "Etag" without an allocation.
func CanonicalKey(k string) string {
	upper := true
	for i := 0; i < len(k); i++ {
		c := k[i]
		if upper && 'a' <= c && c <= 'z' || !upper && 'A' <= c && c <= 'Z' {
			return canonicalize(k)
		}
		upper = c == '-'
	}
	return k
}

// commonKeys interns the canonical names of the header fields this
// repository sends, as net/textproto's common-header table does.
var commonKeys = func() map[string]string {
	m := make(map[string]string)
	for _, k := range []string{
		"Accept", "Connection", "Content-Length", "Content-Type", "Etag",
		"Host", "If-None-Match", "Location", "User-Agent", "Via",
	} {
		m[k] = k
	}
	return m
}()

// canonicalize is CanonicalKey for a name that has a byte to change. It is a
// function of its own so that its byte copy of a short name stays on the
// stack and the name costs at most one allocation, the result.
func canonicalize(k string) string {
	b := []byte(k)
	canonicalBytes(b)
	if c, ok := commonKeys[string(b)]; ok {
		return c
	}
	return string(b)
}

// canonicalBytes rewrites the header name b in its canonical form, in place.
func canonicalBytes(b []byte) {
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
}

// find returns the run h[i:j] of fields named key, which is canonical; when
// there is none, i == j is where one belongs.
func (h Header) find(key string) (i, j int) {
	for i < len(h) && h[i].Key < key {
		i++
	}
	for j = i; j < len(h) && h[j].Key == key; j++ {
	}
	return i, j
}

// insert puts f at index i. The first field makes room for the handful a
// message of this simulation carries, so filling a header allocates once.
func (h *Header) insert(i int, f Field) {
	if cap(*h) == 0 {
		*h = make(Header, 0, 4)
	}
	*h = slices.Insert(*h, i, f)
}

// Set replaces the values for key.
func (h *Header) Set(key, value string) {
	key = CanonicalKey(key)
	i, j := h.find(key)
	if i == j {
		h.insert(i, Field{key, value})
		return
	}
	(*h)[i].Value = value
	*h = slices.Delete(*h, i+1, j)
}

// Get returns the first value for key, or "".
func (h Header) Get(key string) string {
	if i, j := h.find(CanonicalKey(key)); i < j {
		return h[i].Value
	}
	return ""
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

// NewRequest builds a request with no header fields and no body.
func NewRequest(method, host, target string) *Request {
	if target == "" {
		target = "/"
	}
	return &Request{Method: method, Target: target, Proto: "HTTP/1.1", Host: host}
}

// Response is an HTTP response. One built by NewResponse has room in its
// Header for a few fields; a copy by value that may change its fields
// needs a Header of its own (slices.Clone).
type Response struct {
	Proto      string
	StatusCode int
	Status     string
	Header     Header
	// Body is read-only once the response has been read, like any segment
	// of an emulated connection: ReadResponseCtx and RoundTrip hand over a
	// body that arrived as one segment by reference, so it may be the very
	// bytes the server rendered and still reads. Copy it to modify it.
	Body []byte
}

// NewResponse builds a response with the given status and body and no
// header fields: Content-Length is the body's, said when it is written. The
// response and room for the three fields a response of this simulation sets
// at most (Content-Type, Etag, X-List-Encoding) are one allocation.
func NewResponse(code int, body []byte) *Response {
	m := new(inline[Response, [3]Field])
	m.msg = Response{Proto: "HTTP/1.1", StatusCode: code, Status: StatusText(code), Header: m.fields[:0], Body: body}
	return &m.msg
}

// inline is a message allocated together with the array its Header uses.
type inline[M, A any] struct {
	msg    M
	fields A
}

// newMessage returns a new M and a Header of n zero fields, clipped, that
// share one allocation, so that a parsed message costs the same whatever
// its header count. Up to four fields, which covers what a fetch or a sync
// sends, the array is exact; above that it is the next power of two up to
// maxHeaderCount, less than twice the bytes of the fields.
func newMessage[M any](n int) (*M, Header) {
	switch {
	case n == 0:
		return new(M), nil
	case n == 1:
		m := new(inline[M, [1]Field])
		return &m.msg, m.fields[:]
	case n == 2:
		m := new(inline[M, [2]Field])
		return &m.msg, m.fields[:]
	case n == 3:
		m := new(inline[M, [3]Field])
		return &m.msg, m.fields[:]
	case n == 4:
		m := new(inline[M, [4]Field])
		return &m.msg, m.fields[:]
	case n <= 8:
		m := new(inline[M, [8]Field])
		return &m.msg, m.fields[:n:n]
	case n <= 16:
		m := new(inline[M, [16]Field])
		return &m.msg, m.fields[:n:n]
	case n <= 32:
		m := new(inline[M, [32]Field])
		return &m.msg, m.fields[:n:n]
	case n <= 64:
		m := new(inline[M, [64]Field])
		return &m.msg, m.fields[:n:n]
	default:
		m := new(inline[M, [maxHeaderCount]Field])
		return &m.msg, m.fields[:n:n]
	}
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
func WriteRequest(w io.Writer, r *Request) error { return writeRequest(w, r, Field{}) }

// writeRequest is WriteRequest with one more header field: extra, when it
// has a key, goes out as if r.Header.Set had stored it, and r is left alone.
func writeRequest(w io.Writer, r *Request, extra Field) error {
	target := r.Target
	if target == "" {
		target = "/"
	}
	proto := r.Proto
	if proto == "" {
		proto = "HTTP/1.1"
	}
	var num [20]byte
	var bodyLen []byte
	if r.Method != "GET" && r.Method != "HEAD" || len(r.Body) > 0 {
		bodyLen = strconv.AppendInt(num[:0], int64(len(r.Body)), 10)
	}
	head := make([]byte, 0, len(r.Method)+1+len(target)+1+len(proto)+2+
		len("Host: ")+len(r.Host)+2+fieldsLen(r.Header, extra, bodyLen))
	head = append(head, r.Method...)
	head = append(head, ' ')
	head = append(head, target...)
	head = append(head, ' ')
	head = append(head, proto...)
	head = append(head, "\r\nHost: "...)
	head = append(head, r.Host...)
	head = append(head, "\r\n"...)
	head = appendFields(head, r.Header, extra, bodyLen)
	return writeMessage(w, head, r.Body)
}

// WriteResponse serializes a response, always emitting Content-Length. The
// body is handed over like WriteRequest's: r.Body must not be modified
// after a write to a *netem.Conn.
func WriteResponse(w io.Writer, r *Response) error {
	return writeMessage(w, responseHead(r, len(r.Body)), r.Body)
}

// responseHead serializes r's status line and header, with Content-Length
// bodyLen in place of whatever r.Header stores, into one exact-sized buffer.
func responseHead(r *Response, bodyLen int) []byte {
	proto := r.Proto
	if proto == "" {
		proto = "HTTP/1.1"
	}
	status := r.Status
	if status == "" {
		status = StatusText(r.StatusCode)
	}
	var codeNum, lenNum [20]byte
	code := strconv.AppendInt(codeNum[:0], int64(r.StatusCode), 10)
	length := strconv.AppendInt(lenNum[:0], int64(bodyLen), 10)
	head := make([]byte, 0, len(proto)+1+len(code)+1+len(status)+2+fieldsLen(r.Header, Field{}, length))
	head = append(head, proto...)
	head = append(head, ' ')
	head = append(head, code...)
	head = append(head, ' ')
	head = append(head, status...)
	head = append(head, "\r\n"...)
	return appendFields(head, r.Header, Field{}, length)
}

// offWire reports whether the serializers pass over a stored field: Host and
// Content-Length go out from the message's own host and body, and a key the
// caller overrides goes out as the override.
func offWire(key, override string) bool {
	return key == "Host" || key == "Content-Length" || key == override && key != ""
}

func fieldLen(f Field) int { return len(f.Key) + len(": ") + len(f.Value) + len("\r\n") }

// fieldsLen is the number of bytes appendFields appends, so that a head is
// one allocation of exactly its size.
func fieldsLen(h Header, extra Field, bodyLen []byte) int {
	n := len("\r\n")
	for _, f := range h {
		if !offWire(f.Key, extra.Key) {
			n += fieldLen(f)
		}
	}
	if extra.Key != "" {
		n += fieldLen(extra)
	}
	if bodyLen != nil {
		n += len("Content-Length: ") + len(bodyLen) + len("\r\n")
	}
	return n
}

// appendFields appends the header lines in key order — extra where Set would
// have put it — then Content-Length when bodyLen holds its digits, then the
// blank line.
func appendFields(b []byte, h Header, extra Field, bodyLen []byte) []byte {
	pending := extra.Key != ""
	for _, f := range h {
		if offWire(f.Key, extra.Key) {
			continue
		}
		if pending && f.Key > extra.Key {
			b = appendField(b, extra)
			pending = false
		}
		b = appendField(b, f)
	}
	if pending {
		b = appendField(b, extra)
	}
	if bodyLen != nil {
		b = append(b, "Content-Length: "...)
		b = append(b, bodyLen...)
		b = append(b, "\r\n"...)
	}
	return append(b, "\r\n"...)
}

func appendField(b []byte, f Field) []byte {
	b = append(b, f.Key...)
	b = append(b, ": "...)
	b = append(b, f.Value...)
	return append(b, "\r\n"...)
}

// writeMessage sends a serialized head and then each non-empty part of the
// body, one write — one segment on an emulated connection — apiece, giving
// all of them up.
func writeMessage(w io.Writer, head []byte, body ...[]byte) error {
	if _, err := netem.WriteOwned(w, head); err != nil {
		return err
	}
	for _, part := range body {
		if len(part) == 0 {
			continue
		}
		if _, err := netem.WriteOwned(w, part); err != nil {
			return err
		}
	}
	return nil
}

// head is the scratch one message head is parsed in: the bytes of its start
// line and header lines, line ends dropped, each key made canonical where
// it lies, and where each header's key and value sit among them, in the
// order a Header keeps its fields. The parsers make one string of buf when
// the blank line has arrived, and every string of the parsed message —
// method, target, status text, header keys and values — is a substring of
// it: a message costs the same few allocations whatever its header count,
// and whoever keeps one of those strings beyond the exchange keeps the
// whole head alive (so keepers strings.Clone what they store).
type head struct {
	buf    []byte
	fields []fieldAt
}

// fieldAt locates one header line's trimmed key and value in head.buf.
type fieldAt struct{ key, keyEnd, val, valEnd int }

var headPool = sync.Pool{New: func() any { return new(head) }}

// release returns h to the pool, unless a hostile head grew it far beyond
// what the next message needs.
func (h *head) release() {
	if cap(h.buf) > maxLineBytes {
		return
	}
	h.buf, h.fields = h.buf[:0], h.fields[:0]
	headPool.Put(h)
}

// readLine appends the next line of br to h.buf, without its line end, and
// returns it. Lines are cut the way bufio.Reader.ReadLine cuts them: at
// "\r\n" or a bare "\n", and at end of input for a last unterminated one.
func (h *head) readLine(br *bufio.Reader) ([]byte, error) {
	start := len(h.buf)
	for {
		chunk, isPrefix, err := br.ReadLine()
		if err != nil {
			return nil, err
		}
		h.buf = append(h.buf, chunk...)
		if len(h.buf)-start > maxLineBytes {
			return nil, ErrTooLarge
		}
		if !isPrefix {
			return h.buf[start:], nil
		}
	}
}

// readFields reads header lines up to the blank one, checking each as it
// arrives, so a malformed head fails at its first bad line. Each key is
// made canonical in place and its field goes after every field whose key
// sorts no later: h.fields ends sorted by key, a repeated key's values in
// the order they arrived.
func (h *head) readFields(br *bufio.Reader) error {
	for count := 0; ; count++ {
		if count > maxHeaderCount {
			return ErrTooLarge
		}
		start := len(h.buf)
		line, err := h.readLine(br)
		if err != nil {
			return err
		}
		if len(line) == 0 {
			return nil
		}
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 {
			return fmt.Errorf("%w: header %q", ErrMalformed, line)
		}
		var f fieldAt
		f.key, f.keyEnd = trimSpace(h.buf, start, start+colon)
		if f.key == f.keyEnd {
			// A whitespace-only key would serialize as ": v", which no
			// parser (ours included) reads back.
			return fmt.Errorf("%w: header %q", ErrMalformed, line)
		}
		f.val, f.valEnd = trimSpace(h.buf, start+colon+1, len(h.buf))
		key := h.buf[f.key:f.keyEnd]
		canonicalBytes(key)
		i := len(h.fields)
		for i > 0 && bytes.Compare(h.key(h.fields[i-1]), key) > 0 {
			i--
		}
		h.fields = slices.Insert(h.fields, i, f)
	}
}

// trimSpace narrows b[i:j] to what bytes.TrimSpace keeps of it.
func trimSpace(b []byte, i, j int) (int, int) {
	i = j - len(bytes.TrimLeftFunc(b[i:j], unicode.IsSpace))
	return i, i + len(bytes.TrimRightFunc(b[i:j], unicode.IsSpace))
}

func (h *head) key(f fieldAt) []byte { return h.buf[f.key:f.keyEnd] }

// run returns the run h.fields[i:j] of fields named key, which is
// canonical; i == j when there is none.
func (h *head) run(key string) (i, j int) {
	for i < len(h.fields) && string(h.key(h.fields[i])) < key {
		i++
	}
	for j = i; j < len(h.fields) && string(h.key(h.fields[j])) == key; j++ {
	}
	return i, j
}

// fill sets hdr, as long as h.fields, to the parsed fields out of s, the
// string made of h.buf.
func (h *head) fill(hdr Header, s string) {
	for i, f := range h.fields {
		hdr[i] = Field{s[f.key:f.keyEnd], s[f.val:f.valEnd]}
	}
}

// ReadRequest parses one request from br. The request and its header
// fields are one allocation, the head's string another.
func ReadRequest(br *bufio.Reader) (*Request, error) {
	h := headPool.Get().(*head)
	defer h.release()
	line, err := h.readLine(br)
	if err != nil {
		return nil, err
	}
	// "METHOD TARGET PROTO", cut at the first two spaces.
	sp1 := bytes.IndexByte(line, ' ')
	sp2 := sp1 + 1 + bytes.IndexByte(line[sp1+1:], ' ')
	if sp1 < 0 || sp2 <= sp1 || !bytes.HasPrefix(line[sp2+1:], []byte("HTTP/")) {
		return nil, fmt.Errorf("%w: request line %q", ErrMalformed, line)
	}
	end := len(line)
	if err := h.readFields(br); err != nil {
		return nil, err
	}
	// The first Host field is the request's Host; none stays in its Header.
	var host fieldAt
	if i, j := h.run("Host"); i < j {
		host = h.fields[i]
		h.fields = slices.Delete(h.fields, i, j)
	}
	s := string(h.buf)
	req, hdr := newMessage[Request](len(h.fields))
	h.fill(hdr, s)
	*req = Request{Method: s[:sp1], Target: s[sp1+1 : sp2], Proto: s[sp2+1 : end], Host: s[host.val:host.valEnd], Header: hdr}
	req.Body, err = readBody(br, nil, req.Header)
	return req, err
}

// ErrIncomplete is ParseRequestHead's answer to bytes that end before the
// head does.
var ErrIncomplete = errors.New("httpx: incomplete head")

// RequestHead is what an on-path middlebox decides a request on, located in
// the bytes ParseRequestHead found it in: Target and Host are views of them.
type RequestHead struct {
	Len          int // bytes of the head, its blank line included
	Target, Host []byte
	BodyLen      int  // what Content-Length announces; 0 when nothing does
	Close        bool // Connection: close
}

// ParseRequestHead parses the request head b starts with where it lies,
// allocating nothing for a well-formed one. It accepts what ReadRequest
// accepts and reports what ReadRequest would report of it: the request's
// Target, Host and body length, and whether it asks to close (WantsClose).
// Bytes that end before the head does are ErrIncomplete.
func ParseRequestHead(b []byte) (RequestHead, error) {
	var h RequestHead
	line, pos, err := nextLine(b, 0)
	if err != nil {
		return h, err
	}
	sp1 := bytes.IndexByte(line, ' ')
	sp2 := sp1 + 1 + bytes.IndexByte(line[sp1+1:], ' ')
	if sp1 < 0 || sp2 <= sp1 || !bytes.HasPrefix(line[sp2+1:], []byte("HTTP/")) {
		return h, fmt.Errorf("%w: request line %q", ErrMalformed, line)
	}
	h.Target = line[sp1+1 : sp2]
	var length, conn []byte
	var host, hasLength, hasConn bool
	for count := 0; ; count++ {
		if count > maxHeaderCount {
			return h, ErrTooLarge
		}
		start := pos
		if line, pos, err = nextLine(b, pos); err != nil {
			return h, err
		}
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 {
			return h, fmt.Errorf("%w: header %q", ErrMalformed, line)
		}
		k, kEnd := trimSpace(b, start, start+colon)
		if k == kEnd {
			return h, fmt.Errorf("%w: header %q", ErrMalformed, line)
		}
		v, vEnd := trimSpace(b, start+colon+1, start+len(line))
		switch key := b[k:kEnd]; {
		case !host && keyIs(key, "Host"):
			h.Host, host = b[v:vEnd], true
		case !hasLength && keyIs(key, "Content-Length"):
			length, hasLength = b[v:vEnd], true
		case !hasConn && keyIs(key, "Connection"):
			conn, hasConn = b[v:vEnd], true
		}
	}
	h.Len = pos
	h.Close = bytes.EqualFold(conn, []byte("close"))
	if h.BodyLen, err = bodyLen(length); err != nil {
		return h, err
	}
	return h, nil
}

// nextLine cuts the line starting at b[pos] where bufio.Reader.ReadLine
// cuts it, at "\r\n" or a bare "\n", and returns it without its end, and
// where the next line starts.
func nextLine(b []byte, pos int) (line []byte, next int, err error) {
	i := bytes.IndexByte(b[pos:], '\n')
	if i < 0 {
		if len(b)-pos > maxLineBytes {
			return nil, 0, ErrTooLarge
		}
		return nil, 0, ErrIncomplete
	}
	line = b[pos : pos+i]
	if len(line) > 0 && line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	if len(line) > maxLineBytes {
		return nil, 0, ErrTooLarge
	}
	return line, pos + i + 1, nil
}

// keyIs reports whether the header name key is canon in any letter case:
// whether CanonicalKey would make them equal.
func keyIs(key []byte, canon string) bool {
	if len(key) != len(canon) {
		return false
	}
	for i := 0; i < len(key); i++ {
		// Bytes that differ are equal only as two cases of one letter.
		if c, k := key[i], canon[i]; c != k && (c|0x20 != k|0x20 || c|0x20 < 'a' || c|0x20 > 'z') {
			return false
		}
	}
	return true
}

// bodyLen is contentLength of a Content-Length value in bytes, with no
// string made of a plain decimal one; none is a body of 0.
func bodyLen(v []byte) (int, error) {
	if len(v) == 0 {
		return 0, nil
	}
	n := 0
	for _, c := range v {
		if c < '0' || c > '9' || n > MaxBodyBytes {
			n, err := contentLength(string(v))
			return max(n, 0), err
		}
		n = n*10 + int(c-'0')
	}
	if n > MaxBodyBytes {
		return 0, ErrTooLarge
	}
	return n, nil
}

// ReadResponse parses one response from br. Its Body is the caller's to
// keep; a response read through ReadResponseCtx or RoundTrip may hold its
// body by reference instead (see Response.Body).
func ReadResponse(br *bufio.Reader) (*Response, error) { return readResponse(br, nil) }

// statusLine is where a response's status line lies in head.buf: the
// protocol is buf[:protoEnd] and the status text, empty when the line
// has none, buf[text:end].
type statusLine struct{ code, protoEnd, text, end int }

// readResponseLines reads a response's status line and header lines into
// h, leaving br at the first byte of the body.
func (h *head) readResponseLines(br *bufio.Reader) (statusLine, error) {
	line, err := h.readLine(br)
	if err != nil {
		return statusLine{}, err
	}
	// "PROTO CODE[ STATUS TEXT]", cut at the first two spaces.
	st := statusLine{end: len(line)}
	sp1 := bytes.IndexByte(line, ' ')
	if sp1 < 0 || !bytes.HasPrefix(line, []byte("HTTP/")) {
		return st, fmt.Errorf("%w: status line %q", ErrMalformed, line)
	}
	sp2 := st.end
	if i := bytes.IndexByte(line[sp1+1:], ' '); i >= 0 {
		sp2 = sp1 + 1 + i
	}
	st.protoEnd, st.text = sp1, min(sp2+1, st.end)
	st.code, err = strconv.Atoi(string(line[sp1+1 : sp2]))
	if err != nil || st.code < 100 || st.code > 599 {
		return st, fmt.Errorf("%w: status code %q", ErrMalformed, line[sp1+1:sp2])
	}
	return st, h.readFields(br)
}

// readResponse is ReadResponse with the body taken off src by reference
// where readBody can. The response and its header fields are one
// allocation, the head's string another.
func readResponse(br *bufio.Reader, src io.Reader) (*Response, error) {
	h := headPool.Get().(*head)
	defer h.release()
	st, err := h.readResponseLines(br)
	if err != nil {
		return nil, err
	}
	s := string(h.buf)
	resp, hdr := newMessage[Response](len(h.fields))
	h.fill(hdr, s)
	*resp = Response{Proto: s[:st.protoEnd], StatusCode: st.code, Status: s[st.text:st.end], Header: hdr}
	resp.Body, err = readBody(br, src, resp.Header)
	return resp, err
}

// contentLength is the body length a Content-Length value announces, -1
// when the value is empty: none announced.
func contentLength(cl string) (int, error) {
	if cl == "" {
		return -1, nil
	}
	n, err := strconv.Atoi(cl)
	if err != nil || n < 0 {
		return -1, fmt.Errorf("%w: content-length %q", ErrMalformed, strings.Clone(cl))
	}
	if n > MaxBodyBytes {
		return -1, ErrTooLarge
	}
	return n, nil
}

// readBody reads the body h announces from br. src, when not nil, is what br
// reads from: a body none of which br has buffered, and whose first segment
// on src is the whole of it, is taken off src by reference (netem.Take)
// instead of copied. Its capacity is clipped, so an append to it cannot
// write into the sender's array. Otherwise whatever was taken is copied into
// the body and the rest read through br; either way the bytes, the error
// and the virtual time spent waiting are what reading through br gives.
func readBody(br *bufio.Reader, src io.Reader, h Header) ([]byte, error) {
	n, err := contentLength(h.Get("Content-Length"))
	if n < 0 {
		return nil, err
	}
	var part []byte
	if n > 0 && br.Buffered() == 0 {
		part, err = netem.Take(src, n)
		switch {
		case err == netem.ErrCannotTake:
		case err != nil:
			return nil, err
		case len(part) == n:
			return part[:n:n], nil
		}
	}
	body := make([]byte, n)
	k := copy(body, part)
	if _, err := io.ReadFull(br, body[k:]); err != nil {
		if err == io.EOF && k > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return body, nil
}
