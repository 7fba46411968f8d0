package censor

import (
	"bufio"
	"bytes"
	"context"
	"runtime"
	"testing"
	"time"

	"csaw/internal/httpx"
	"csaw/internal/netem"
	"csaw/internal/vtime"
)

// bigPageSize is the clean page of the relay tests: large enough that a
// copy of it dwarfs everything else an exchange allocates.
const bigPageSize = 64 << 10

// relayWorld is an origin serving one bigPageSize page, a client behind an
// inspecting censor and a client behind no censor at all, on the event
// clock.
type relayWorld struct {
	clock          *vtime.Clock
	page           []byte
	behind, direct *netem.Host
}

func newRelayWorld(t *testing.T) *relayWorld {
	t.Helper()
	clock := vtime.NewEventDriven()
	n := netem.New(clock)
	isp := n.AddAS(100, "ISP-A", "PK")
	free := n.AddAS(200, "US", "US")
	New(&Policy{HTTP: []HTTPRule{{Host: "youtube.com", Action: HTTPBlockPage}}}).Attach(isp)
	w := &relayWorld{
		clock:  clock,
		page:   make([]byte, bigPageSize),
		behind: n.MustAddHost("client", "10.0.0.1", "pk", isp),
		direct: n.MustAddHost("free-client", "10.1.0.1", "pk", free),
	}
	for i := range w.page {
		w.page[i] = byte('a' + i%26)
	}
	origin := n.MustAddHost("origin", originIP, "us", free)
	srv := httpx.Serve(origin.MustListen(80), httpx.HandlerFunc(func(*httpx.Request, netem.Flow) *httpx.Response {
		return httpx.NewResponse(200, w.page)
	}))
	t.Cleanup(func() { srv.Close() })
	return w
}

// get fetches the page from host and returns its body.
func (w *relayWorld) get(t *testing.T, host *netem.Host) []byte {
	t.Helper()
	c := &httpx.Client{Dial: host.Dial, Clock: w.clock, Timeout: 8 * time.Second}
	resp, err := c.Get(context.Background(), originIP+":80", "ok.example.com", "/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	return resp.Body
}

// TestCleanPageCrossesCensorIntact: a clean response the interceptor relays
// reaches the client byte for byte.
func TestCleanPageCrossesCensorIntact(t *testing.T) {
	w := newRelayWorld(t)
	if body := w.get(t, w.behind); !bytes.Equal(body, w.page) {
		t.Fatalf("relayed page differs: %d bytes, want %d", len(body), len(w.page))
	}
}

// TestCleanPageRelayedWithoutCopy: the interceptor passes a clean body on by
// reference, so a fetch through it allocates little more than one through
// an AS with no censor — a relay that copies the page costs a whole page.
func TestCleanPageRelayedWithoutCopy(t *testing.T) {
	w := newRelayWorld(t)
	perFetch := func(host *netem.Host) int64 {
		for i := 0; i < 3; i++ {
			w.get(t, host) // the pools
		}
		const fetches = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < fetches; i++ {
			w.get(t, host)
		}
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc-before.TotalAlloc) / fetches
	}
	direct, behind := perFetch(w.direct), perFetch(w.behind)
	t.Logf("per fetch: %d bytes direct, %d through the censor", direct, behind)
	if extra := behind - direct; extra >= bigPageSize/4 {
		t.Errorf("the censor adds %d bytes a fetch of a %d-byte page, want under %d", extra, bigPageSize, bigPageSize/4)
	}
}

// TestCensorKeepAliveBlocksSecondRequest: the interceptor reads every
// request of a kept-alive connection, so a blocked request after a relayed
// clean exchange still gets the block page.
func TestCensorKeepAliveBlocksSecondRequest(t *testing.T) {
	w := newRelayWorld(t)
	ctx, cancel := w.clock.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	conn, err := w.behind.Dial(ctx, originIP+":80")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	netem.Bind(ctx, conn)
	br := bufio.NewReader(conn)
	if err := httpx.WriteRequest(conn, httpx.NewRequest("GET", "ok.example.com", "/")); err != nil {
		t.Fatal(err)
	}
	resp, err := httpx.ReadResponse(br)
	if err != nil || !bytes.Equal(resp.Body, w.page) {
		t.Fatalf("clean exchange: %v, %v", resp, err)
	}
	if err := httpx.WriteRequest(conn, httpx.NewRequest("GET", "www.youtube.com", "/")); err != nil {
		t.Fatal(err)
	}
	resp, err = httpx.ReadResponse(br)
	if err != nil || string(resp.Body) != DefaultBlockPageHTML {
		t.Fatalf("blocked request on the kept-alive connection: %v, %v", resp, err)
	}
}
