package censor

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"csaw/internal/httpx"
	"csaw/internal/leakcheck"
	"csaw/internal/netem"
	"csaw/internal/tlsx"
	"csaw/internal/vtime"
)

// streamCase is one FuzzInterceptedStream input drawn from its seed: a
// policy over a small host alphabet and a run of requests, written one at a
// time (no pipelining), each cut into segments.
type streamCase struct {
	policy *Policy
	reqs   []streamRequest
}

type streamRequest struct {
	req  *httpx.Request
	wire []byte   // the request as the client sends it
	segs [][]byte // wire, cut where the client's writes end
}

func drawStreamCase(seed uint64) streamCase {
	rng := rand.New(rand.NewPCG(seed, seed>>32|1))
	pick := func(xs []string) string { return xs[rng.IntN(len(xs))] }
	blocking := []HTTPAction{HTTPDrop, HTTPReset, HTTPBlockPage, HTTPRedirect, HTTPIframe}
	p := &Policy{BlockPageURL: "block.isp.pk/denied"}
	for range rng.IntN(3) {
		p.HTTP = append(p.HTTP, HTTPRule{
			Host:       pick([]string{"a.com", "www.a.com", "B.org", "c.net"}),
			PathPrefix: pick([]string{"", "/", "/x", "/xy"}),
			Action:     blocking[rng.IntN(len(blocking))],
		})
	}
	for range rng.IntN(2) {
		p.Keywords = append(p.Keywords, KeywordRule{Keyword: pick([]string{"bad", "X", "org/"}), Action: blocking[rng.IntN(len(blocking))]})
	}
	var c streamCase
	c.policy = p
	n := 1 + rng.IntN(4)
	for i := range n {
		req := httpx.NewRequest("GET", pick([]string{"a.com", "WWW.A.com", "b.org", "c.net:80", "d.io"}), pick([]string{"/", "/x", "/xyz", "/bad", "/y?q=1"}))
		if rng.IntN(2) == 0 {
			req.Method = "POST"
			req.Body = bytes.Repeat([]byte{'a' + byte(i)}, rng.IntN(300))
		}
		if i == n-1 && rng.IntN(2) == 0 {
			req.Header.Set("Connection", "close")
		} else {
			req.Header.Set("Connection", "keep-alive")
		}
		var wire bytes.Buffer
		if err := httpx.WriteRequest(&wire, req); err != nil {
			panic(err)
		}
		r := streamRequest{req: req, wire: wire.Bytes()}
		for rest := r.wire; len(rest) > 0; {
			k := len(rest)
			if rng.IntN(3) > 0 {
				k = 1 + rng.IntN(len(rest))
			}
			r.segs, rest = append(r.segs, rest[:k]), rest[k:]
		}
		c.reqs = append(c.reqs, r)
	}
	return c
}

// originResponse is what the fuzz origin answers req with.
func originResponse(req *httpx.Request) []byte {
	var b bytes.Buffer
	resp := httpx.NewResponse(200, []byte(fmt.Sprintf("page %s%s, %d bytes sent", req.Host, req.Target, len(req.Body))))
	if err := httpx.WriteResponse(&b, resp); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// answerOf is what the censor answers a request it blocks with act: the
// bytes the client reads before EOF.
func answerOf(p *Policy, act HTTPAction) []byte {
	var resp *httpx.Response
	switch act {
	case HTTPBlockPage:
		resp = p.blockPageResponse()
	case HTTPRedirect:
		resp = httpx.NewResponse(302, []byte("blocked"))
		resp.Header.Set("Location", "http://"+p.BlockPageURL)
		resp.Header.Set("Connection", "close")
	case HTTPIframe:
		resp = p.iframeResponse()
	default:
		return nil
	}
	var b bytes.Buffer
	if err := httpx.WriteResponse(&b, resp); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// FuzzInterceptedStream holds the censor's HTTP stream path to a model of
// an on-path censor, not to the proxy it replaced: of a run of requests on
// one kept-alive connection, the origin receives exactly the bytes of those
// HTTPActionFor passes, up to the first it blocks, as the client wrote
// them; the client receives the origin's answer to each of those, then the
// blocking action's — a block page, redirect or iframe page and EOF, an
// RST, or, blackholed, nothing at all.
func FuzzInterceptedStream(f *testing.F) {
	for seed := range uint64(25) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		c := drawStreamCase(seed)
		n := netem.New(vtime.NewEventDriven(), netem.WithSeed(int64(seed)))
		isp := n.AddAS(100, "ISP-A", "PK")
		client := n.MustAddHost("client", "10.0.0.1", "pk", isp)
		origin := n.MustAddHost("origin", originIP, "us", n.AddAS(200, "US", "US"))
		n.SetRTT("pk", "us", 150*time.Millisecond)
		New(c.policy).Attach(isp)
		l := origin.MustListen(80)
		defer func() {
			if err := l.Close(); err != nil {
				t.Error(err)
			}
		}()

		conn, err := client.Dial(context.Background(), originIP+":80")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		peer, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		// The origin answers each request it reads and records every byte
		// it received, up to EOF, a reset, or a request asking to close.
		received := make(chan []byte, 1)
		go func() {
			defer peer.Close()
			var raw bytes.Buffer
			br := bufio.NewReader(io.TeeReader(peer, &raw))
			for {
				req, err := httpx.ReadRequest(br)
				if err != nil {
					break
				}
				if _, err := peer.Write(originResponse(req)); err != nil || httpx.WantsClose(req.Header) {
					break
				}
			}
			received <- raw.Bytes()
		}()

		done := make(chan struct{})
		var passed []byte
		go func() {
			defer close(done)
			passed = runStreamCase(t, c, conn, received)
		}()
		select {
		case <-done:
		case <-time.After(20 * time.Second): //lint:allow-realtime a stalled stream is real-scheduler time
			t.Fatal("the stream stalled")
		}
		if t.Failed() {
			return
		}
		if got := <-received; !bytes.Equal(got, passed) {
			t.Fatalf("the origin received\n%q\nwant the passed requests\n%q", got, passed)
		}
	})
}

// runStreamCase plays c's requests on conn and checks what the client
// reads; it returns the bytes of the requests the policy passes, once the
// origin has stopped reading (its record is on received, put back).
func runStreamCase(t *testing.T, c streamCase, conn net.Conn, received chan []byte) []byte {
	var passed []byte
	for i, r := range c.reqs {
		act := c.policy.HTTPActionFor(r.req.Host, r.req.Target)
		for _, seg := range r.segs {
			// A blocked request's tail may meet a closed or reset stream.
			if _, err := conn.Write(seg); err != nil && act == HTTPClean {
				t.Errorf("request %d: write: %v", i, err)
				return passed
			}
		}
		switch act {
		case HTTPClean:
			passed = append(passed, r.wire...)
			want := originResponse(r.req)
			got := make([]byte, len(want))
			if _, err := io.ReadFull(conn, got); err != nil || !bytes.Equal(got, want) {
				t.Errorf("request %d (%s%s) passes: read %q, %v; want %q", i, r.req.Host, r.req.Target, got, err, want)
				return passed
			}
			if httpx.WantsClose(r.req.Header) {
				if rest, err := io.ReadAll(conn); err != nil || len(rest) > 0 {
					t.Errorf("request %d asks to close: then read %q, %v; want EOF", i, rest, err)
				}
				return passed
			}
		case HTTPReset:
			if got, err := io.ReadAll(conn); !netem.IsReset(err) || len(got) > 0 {
				t.Errorf("request %d is reset: read %q, %v", i, got, err)
			}
			return passed
		case HTTPDrop:
			// Blackholed: once the origin has seen the end of its stream,
			// the client has nothing to read but its own close.
			received <- <-received
			conn.Close()
			if got, err := io.ReadAll(conn); err != nil || len(got) > 0 {
				t.Errorf("request %d is blackholed: read %q, %v", i, got, err)
			}
			return passed
		default:
			if got, err := io.ReadAll(conn); err != nil || !bytes.Equal(got, answerOf(c.policy, act)) {
				t.Errorf("request %d gets %v: read %q, %v; want %q", i, act, got, err, answerOf(c.policy, act))
			}
			return passed
		}
	}
	conn.Close()
	return passed
}

// TestTLSPassLeavesNoGoroutine: once the censor has passed a ClientHello it
// has opened the gate for good and is gone — a clean TLS stream, open for as
// long as it lasts, runs on no interceptor goroutine (a proxying censor kept
// two per stream).
func TestTLSPassLeavesNoGoroutine(t *testing.T) {
	var open []net.Conn
	t.Cleanup(func() {
		for _, c := range open {
			c.Close()
		}
	})
	leakcheck.Check(t) // runs before the cleanup above: the streams are open
	n := netem.New(vtime.NewEventDriven(), netem.WithSeed(1))
	isp := n.AddAS(100, "ISP-A", "PK")
	client := n.MustAddHost("client", "10.0.0.1", "pk", isp)
	origin := n.MustAddHost("origin", originIP, "us", n.AddAS(200, "US", "US"))
	cen := New(&Policy{SNI: map[string]TLSAction{"youtube.com": TLSReset}})
	cen.Attach(isp)
	l := origin.MustListen(tlsx.Port)
	defer func() {
		if err := l.Close(); err != nil {
			t.Error(err)
		}
	}()
	const streams = 4
	for range streams {
		raw, err := client.Dial(context.Background(), originIP+":443")
		if err != nil {
			t.Fatal(err)
		}
		open = append(open, raw)
		served := make(chan net.Conn, 1)
		go func() {
			peer, err := l.Accept()
			if err != nil {
				served <- nil
				return
			}
			open = append(open, peer)
			tc, err := tlsx.Server(peer, tlsx.CertFor("ok.example.com"))
			if err != nil {
				t.Error(err)
			}
			served <- tc
		}()
		tc, err := tlsx.Client(raw, "ok.example.com", "ok.example.com")
		if err != nil {
			t.Fatal(err)
		}
		peer := <-served
		if peer == nil {
			t.Fatal("no stream served")
		}
		// The stream carries data both ways through the open gate.
		if _, err := tc.Write([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 4)
		if _, err := io.ReadFull(peer, buf); err != nil || string(buf) != "ping" {
			t.Fatalf("the origin read %q, %v", buf, err)
		}
	}
	if got := cen.Counters.Get("sni-reset"); got != 0 {
		t.Fatalf("%d clean streams reset", got)
	}
}

// helloCase is one FuzzInterceptedHello input drawn from its seed: an SNI
// policy over a small name alphabet and what the client writes, cut into
// segments.
type helloCase struct {
	policy *Policy
	stream []byte
	segs   [][]byte
}

func drawHelloCase(seed uint64) helloCase {
	rng := rand.New(rand.NewPCG(seed, seed>>32|1))
	pick := func(xs []string) string { return xs[rng.IntN(len(xs))] }
	c := helloCase{policy: &Policy{SNI: map[string]TLSAction{}}}
	for range 1 + rng.IntN(3) {
		c.policy.SNI[pick([]string{"a.com", "www.a.com", "B.org", "c.net.", "ü.de"})] = []TLSAction{TLSDrop, TLSReset}[rng.IntN(2)]
	}
	if rng.IntN(4) == 0 {
		// Not pseudo-TLS: a request, or bytes at random.
		c.stream = []byte("GET / HTTP/1.1\r\nHost: a.com\r\n\r\n")
		if rng.IntN(2) == 0 {
			c.stream = make([]byte, rng.IntN(40))
			for i := range c.stream {
				c.stream[i] = byte(rng.IntN(256))
			}
		}
	} else {
		name := pick([]string{"a.com", "WWW.A.com", "b.org.", "c.net:443", "d.io", "x.Ü.de", ""})
		if rng.IntN(5) == 0 {
			name = strings.Repeat("a", 250+rng.IntN(10)) // over 255: not a hello
		}
		typ := []byte{1, 2, byte(rng.IntN(256))}[rng.IntN(3)]
		c.stream = append([]byte("TLSX"), typ, byte(len(name)>>8), byte(len(name)))
		c.stream = append(c.stream, name...)
		c.stream = append(c.stream, "\x01\x02\x03\x04\x05\x06\x07\x08"...)
		if rng.IntN(4) == 0 {
			c.stream = c.stream[:rng.IntN(len(c.stream))] // the client leaves mid-hello
		} else {
			c.stream = append(c.stream, bytes.Repeat([]byte{'p'}, rng.IntN(100))...)
		}
	}
	for rest := c.stream; len(rest) > 0; {
		k := len(rest)
		if rng.IntN(3) > 0 {
			k = 1 + rng.IntN(len(rest))
		}
		c.segs, rest = append(c.segs, rest[:k]), rest[k:]
	}
	return c
}

// FuzzInterceptedHello holds the censor's TLS path to a model of an on-path
// censor: the verdict is SNIActionFor of the name ReadHello reads from what
// the client sent, clean when it reads none. On a clean verdict the origin
// receives exactly the client's bytes; a reset one reaches the client as an
// RST, a blackholed one as nothing; either way the origin receives nothing.
func FuzzInterceptedHello(f *testing.F) {
	for seed := range uint64(64) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		c := drawHelloCase(seed)
		want := TLSClean
		if h, err := tlsx.ReadHello(bytes.NewReader(c.stream)); err == nil {
			want = c.policy.SNIActionFor(h.Name)
		}
		n := netem.New(vtime.NewEventDriven(), netem.WithSeed(int64(seed)))
		isp := n.AddAS(100, "ISP-A", "PK")
		client := n.MustAddHost("client", "10.0.0.1", "pk", isp)
		origin := n.MustAddHost("origin", originIP, "us", n.AddAS(200, "US", "US"))
		cen := New(c.policy)
		cen.Attach(isp)
		l := origin.MustListen(tlsx.Port)
		defer func() {
			if err := l.Close(); err != nil {
				t.Error(err)
			}
		}()
		conn, err := client.Dial(context.Background(), originIP+":443")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		peer, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		received := make(chan []byte, 1)
		go func() {
			defer peer.Close()
			got, _ := io.ReadAll(peer) // up to EOF or a reset
			received <- got
		}()

		done := make(chan struct{})
		go func() {
			defer close(done)
			for i, seg := range c.segs {
				// A blocked stream's tail may meet a reset one.
				if _, err := conn.Write(seg); err != nil && want == TLSClean {
					t.Errorf("segment %d: write: %v", i, err)
					return
				}
			}
			switch want {
			case TLSReset:
				if got, err := io.ReadAll(conn); !netem.IsReset(err) || len(got) > 0 {
					t.Errorf("a reset stream reads %q, %v", got, err)
				}
			case TLSDrop:
				// Blackholed: once the origin has seen the end of its
				// stream, the client has nothing to read but its own close.
				received <- <-received
				conn.Close()
				if got, err := io.ReadAll(conn); err != nil || len(got) > 0 {
					t.Errorf("a blackholed stream reads %q, %v", got, err)
				}
			default:
				conn.Close()
			}
		}()
		select {
		case <-done:
		case <-time.After(20 * time.Second): //lint:allow-realtime a stalled stream is real-scheduler time
			t.Fatal("the stream stalled")
		}
		if t.Failed() {
			return
		}
		wantBytes := c.stream
		if want != TLSClean {
			wantBytes = nil
		}
		if got := <-received; !bytes.Equal(got, wantBytes) {
			t.Fatalf("verdict %v: the origin received\n%q\nwant\n%q", want, got, wantBytes)
		}
		blocked := cen.Counters.Get("sni-drop") + cen.Counters.Get("sni-reset")
		if (blocked == 1) != (want != TLSClean) || blocked > 1 {
			t.Fatalf("verdict %v: %d streams blocked", want, blocked)
		}
	})
}

// TestSNIDecisionAllocs: deciding a hello held in one segment, as handleTLS
// decides it, allocates nothing for an ASCII name in any letter case.
func TestSNIDecisionAllocs(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts are not exact under the race detector")
			}
		}
	}
	c := New(&Policy{SNI: map[string]TLSAction{"YouTube.com": TLSReset, "twitter.com.": TLSDrop, "example.pk": TLSReset}})
	for _, name := range []string{"www.youtube.com", "WWW.YouTube.COM", "news.Example.org:443"} {
		seg := append(append([]byte("TLSX\x01\x00"), byte(len(name))), name...)
		seg = append(seg, "\x00\x01\x02\x03\x04\x05\x06\x07payload"...)
		var act TLSAction
		got := testing.AllocsPerRun(100, func() {
			h, _, err := clientHello(seg)
			if err != nil {
				t.Fatal(err)
			}
			p := c.Policy()
			act = decide(c, p, "10.0.0.1", longestMatch(p.SNI, ruleName(h.Name), TLSClean))
		})
		if want := c.policy.SNIActionFor(name); act != want {
			t.Errorf("%s: decided %v, want %v", name, act, want)
		}
		if got != 0 {
			t.Errorf("%s: %v allocations, want 0", name, got)
		}
	}
}
