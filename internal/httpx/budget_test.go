package httpx

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"runtime/debug"
	"slices"
	"testing"

	"csaw/internal/netem"
	"csaw/internal/vtime"
)

// TestCodecAllocBudget pins what a message costs: serializing is the head's
// one allocation, parsing is the message with its header fields (one
// allocation), its head string and its body — and neither grows with the
// number of header fields. Naming a field the way this repository does
// costs nothing, even where the name is not canonical ("ETag"). Plain
// builds only: the race detector's sync.Pool drops the parse scratch at
// random.
func TestCodecAllocBudget(t *testing.T) {
	skipUnderRace(t)
	const writeBudget, readBudget = 1, 3
	if a := testing.AllocsPerRun(100, func() { keySink = CanonicalKey("ETag") }); a != 0 || keySink != "Etag" {
		t.Errorf(`CanonicalKey("ETag") = %q: %v allocations, want "Etag" and 0`, keySink, a)
	}
	var atOneField []float64
	for _, fields := range []int{1, 16} {
		var counts []float64
		within := func(what string, budget, got float64) {
			t.Helper()
			counts = append(counts, got)
			if got > budget {
				t.Errorf("%s with %d fields: %v allocations, budget %v", what, fields, got, budget)
			}
		}
		req := NewRequest("POST", "www.youtube.com", "/watch?v=abc")
		resp := NewResponse(200, []byte("<html>hello</html>"))
		for i := 0; i < fields; i++ {
			req.Header.Add(fmt.Sprintf("X-Field-%02d", i), "request value")
			resp.Header.Add(fmt.Sprintf("X-Field-%02d", i), "response value")
		}
		req.Body = []byte(`{"vote":1}`)

		var wire bytes.Buffer
		within("WriteRequest", writeBudget, testing.AllocsPerRun(100, func() {
			wire.Reset()
			if err := WriteRequest(&wire, req); err != nil {
				t.Fatal(err)
			}
		}))
		rawReq := bytes.Clone(wire.Bytes())
		within("WriteResponse", writeBudget, testing.AllocsPerRun(100, func() {
			wire.Reset()
			if err := WriteResponse(&wire, resp); err != nil {
				t.Fatal(err)
			}
		}))
		rawResp := bytes.Clone(wire.Bytes())

		// The reader is the caller's (pooled on every production path).
		var src bytes.Reader
		br := bufio.NewReader(&src)
		within("ReadRequest (beyond the reader)", readBudget, testing.AllocsPerRun(100, func() {
			src.Reset(rawReq)
			br.Reset(&src)
			if r, err := ReadRequest(br); err != nil || len(r.Header) != fields+1 {
				t.Fatalf("ReadRequest: %v, %v", r, err)
			}
		}))
		within("ReadResponse (beyond the reader)", readBudget, testing.AllocsPerRun(100, func() {
			src.Reset(rawResp)
			br.Reset(&src)
			if r, err := ReadResponse(br); err != nil || len(r.Header) != fields+1 {
				t.Fatalf("ReadResponse: %v, %v", r, err)
			}
		}))
		if atOneField == nil {
			atOneField = counts
		} else if !slices.Equal(counts, atOneField) {
			t.Errorf("allocations grew with the header: %v with %d fields, %v with one", counts, fields, atOneField)
		}
	}
}

var keySink string

// TestRelayAllocBudget pins what the censor's relay of a clean response
// costs: the head it writes, plus a copy of the body bytes its reader had
// buffered with the head when there are any — no Response, Header or
// string of the head, and nothing more with more header fields.
func TestRelayAllocBudget(t *testing.T) {
	skipUnderRace(t)
	n := netem.New(vtime.NewEventDriven())
	as := n.AddAS(1, "AS", "XX")
	client := n.MustAddHost("client", "10.0.0.1", "x", as)
	l := n.MustAddHost("origin", "10.0.0.2", "x", as).MustListen(80)
	served, err := client.Dial(context.Background(), "10.0.0.2:80")
	if err != nil {
		t.Fatal(err)
	}
	defer served.Close()
	src, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	br := bufio.NewReader(src)
	var out bytes.Buffer
	body := bytes.Repeat([]byte("<p>page</p>"), 100)
	for _, fields := range []int{1, 16} {
		resp := NewResponse(200, body)
		for i := 0; i < fields; i++ {
			resp.Header.Add(fmt.Sprintf("X-Field-%02d", i), "response value")
		}
		var wire bytes.Buffer
		if err := WriteResponse(&wire, resp); err != nil {
			t.Fatal(err)
		}
		whole := wire.Bytes()
		head := whole[:len(whole)-len(body)]
		for _, c := range []struct {
			what     string
			segments [][]byte
			budget   float64
		}{
			{"head and body in one segment", [][]byte{whole}, 2},
			{"body in a segment of its own", [][]byte{head, body}, 1},
		} {
			got := testing.AllocsPerRun(100, func() {
				for _, seg := range c.segments {
					if _, err := netem.WriteOwned(served, seg); err != nil {
						t.Fatal(err)
					}
				}
				out.Reset()
				if _, err := RelayResponse(&out, src.(*netem.Conn), br); err != nil || !bytes.Equal(out.Bytes(), whole) {
					t.Fatalf("relay: %v\n%q", err, out.Bytes())
				}
			})
			if got != c.budget {
				t.Errorf("%s, %d fields: %v allocations, want %v", c.what, fields, got, c.budget)
			}
		}
	}
}

// skipUnderRace skips an allocation count, which is not exact under the
// race detector.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts are not exact under the race detector")
			}
		}
	}
}
