package dnsx

import (
	"bytes"
	"context"
	"runtime/debug"
	"testing"

	"csaw/internal/netem"
	"csaw/internal/vtime"
)

// TestCodecAllocBudget pins what one DNS exchange allocates, for a response
// of one A record, as every resolver in the simulation gives. Building a
// message costs its frame and nothing else; decoding one costs the Message
// (whose room holds the question and the answer) and a string per name or
// address, the answer's name sharing the question's; a frame that arrives
// as one segment is decoded where it lies. A lookup with no lane adds the
// dial, its context and the resolver's side of the exchange, and builds no
// trace detail.
func TestCodecAllocBudget(t *testing.T) {
	skipUnderRace(t)
	exact := func(what string, want float64, f func()) {
		t.Helper()
		if got := testing.AllocsPerRun(500, f); got != want {
			t.Errorf("%s: %v allocations, want %v", what, got, want)
		}
	}
	q := NewQuery(42, "www.youtube.com")
	resp := q.Reply().AnswerA("www.youtube.com", "203.0.113.1", 300)
	raw, err := resp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	exact("NewQuery", 1, func() { _ = NewQuery(42, "www.youtube.com") })
	exact("Reply with an A record", 1, func() {
		_ = q.Reply().AnswerA("www.youtube.com", "203.0.113.1", 300)
	})
	exact("Marshal", 1, func() {
		if _, err := q.Marshal(); err != nil {
			t.Fatal(err)
		}
	})
	exact("Unmarshal of a response", 3, func() {
		if m, err := Unmarshal(raw); err != nil || len(m.Answers) != 1 {
			t.Fatalf("Unmarshal: %v, %v", m, err)
		}
	})
	var wire bytes.Buffer
	wire.Grow(512)
	exact("WriteMessage", 1, func() {
		wire.Reset()
		if err := WriteMessage(&wire, resp); err != nil {
			t.Fatal(err)
		}
	})
	frame := bytes.Clone(wire.Bytes())

	n := netem.New(vtime.NewEventDriven())
	as := n.AddAS(1, "AS", "XX")
	client := n.MustAddHost("client", "10.0.0.1", "x", as)
	resolver := n.MustAddHost("resolver", "10.0.0.2", "x", as)
	l := resolver.MustListen(Port)
	dialed, err := client.Dial(context.Background(), "10.0.0.2:53")
	if err != nil {
		t.Fatal(err)
	}
	src, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	exact("ReadMessage of a frame in one segment (beyond the write)", 3, func() {
		if _, err := netem.WriteOwned(src, frame); err != nil {
			t.Fatal(err)
		}
		if m, err := ReadMessage(dialed); err != nil || len(m.Answers) != 1 {
			t.Fatalf("ReadMessage: %v, %v", m, err)
		}
	})
	dialed.Close()
	src.Close()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry()
	reg.Set("www.youtube.com", "203.0.113.1")
	if _, err := NewServer(resolver, AuthHandler(reg, 300)); err != nil {
		t.Fatal(err)
	}
	// Ten of a lookup's allocations are the codec's: the query, its frame,
	// the three strings and the Message the answer decodes to, and
	// AnswerIPs' slice on the client; the decoded query, its name, the
	// Reply and its frame at the resolver. Six are the dial's and the
	// attempt's context. The runtime adds a goroutine or a waiter's sudog
	// now and then, as its free lists allow, so this one is a ceiling.
	stub := NewClient(client, "10.0.0.2:53")
	const lookupOwn, runtimeSlack = 16, 2
	if got := testing.AllocsPerRun(500, func() {
		if res := stub.Lookup(context.Background(), "www.youtube.com"); !res.OK() {
			t.Fatalf("Lookup: %+v", res)
		}
	}); got > lookupOwn+runtimeSlack {
		t.Errorf("Lookup with no lane: %v allocations, budget %v", got, lookupOwn+runtimeSlack)
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
