package httpx

import (
	"bufio"
	"bytes"
	"fmt"
	"runtime/debug"
	"slices"
	"testing"
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

// TestParseRequestHeadAllocs pins what the censor's look at a request head
// costs: nothing, whatever the number of header fields.
func TestParseRequestHeadAllocs(t *testing.T) {
	skipUnderRace(t)
	for _, fields := range []int{1, 16} {
		req := NewRequest("POST", "www.example.com", "/report?id=7")
		req.Body = []byte("payload")
		for i := 0; i < fields; i++ {
			req.Header.Add(fmt.Sprintf("X-Field-%02d", i), "request value")
		}
		req.Header.Set("Connection", "close")
		var wire bytes.Buffer
		if err := WriteRequest(&wire, req); err != nil {
			t.Fatal(err)
		}
		b := wire.Bytes()
		var h RequestHead
		got := testing.AllocsPerRun(100, func() {
			var err error
			if h, err = ParseRequestHead(b); err != nil {
				t.Fatal(err)
			}
		})
		if string(h.Target) != req.Target || string(h.Host) != req.Host || h.BodyLen != len(req.Body) || !h.Close || h.Len != len(b)-len(req.Body) {
			t.Fatalf("%d fields: parsed %+v", fields, h)
		}
		if got != 0 {
			t.Errorf("%d fields: %v allocations, want 0", fields, got)
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
