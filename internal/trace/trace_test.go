package trace

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"csaw/internal/vtime"
)

// frozenClock returns a clock whose real-time drift is negligible (1ns of
// virtual time per real second): tests drive it exclusively with Advance, so
// measured durations are exact.
func frozenClock() *vtime.Clock { return vtime.New(1e-9) }

// --- Nil safety: the disabled recorder costs nothing --------------------

func TestNilTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.Start("c", 1, "example.com/")
		sp.Event("db", "lookup", "miss")
		sp.EventNum("select", "observe", "tor", 1.5)
		l := sp.Lane("direct")
		l.Event("dns", "query", "example.com")
		l.Add(PhaseDNS, time.Millisecond)
		m := l.Begin(PhaseConnect)
		m.End()
		l.Close()
		sp.Hold()
		sp.Release()
		sp.Finish("direct", "clean", nil)
		c2 := WithSpan(ctx, sp)
		c3 := WithLane(c2, l)
		if SpanFromContext(c3) != nil || FromContext(c3) != nil {
			t.Fatal("nil span/lane came back non-nil")
		}
	})
	if allocs != 0 {
		t.Errorf("disabled tracer path allocates %.1f per fetch, want 0", allocs)
	}
	if s, n := tr.Stats(); s != 0 || n != 0 {
		t.Errorf("nil tracer stats = %d/%d", s, n)
	}
}

func TestSampledOutSpanIsNil(t *testing.T) {
	var buf bytes.Buffer
	tr := New(frozenClock(), NewStreamSink(&buf), WithSampling(1<<20))
	// Find a URL the sampler rejects.
	url := ""
	for i := 0; i < 100; i++ {
		u := fmt.Sprintf("site%d.example/", i)
		if !Sampled(u, 1<<20) {
			url = u
			break
		}
	}
	if url == "" {
		t.Fatal("no sampled-out URL in 100 tries at 1-in-2^20")
	}
	if sp := tr.Start("c", 1, url); sp != nil {
		t.Fatal("sampled-out Start returned a live span")
	}
	started, sampled := tr.Stats()
	if started != 1 || sampled != 0 {
		t.Errorf("stats = %d/%d, want 1 started 0 sampled", started, sampled)
	}
}

// --- Sampling: deterministic hash of the URL ----------------------------

func TestSampledDeterministic(t *testing.T) {
	if !Sampled("anything", 1) || !Sampled("", 0) {
		t.Error("n <= 1 must sample everything")
	}
	hits := 0
	const total, n = 20000, 64
	for i := 0; i < total; i++ {
		u := fmt.Sprintf("host%d.example/page%d", i%500, i)
		a, b := Sampled(u, n), Sampled(u, n)
		if a != b {
			t.Fatalf("Sampled(%q) not deterministic", u)
		}
		if a {
			hits++
		}
	}
	// FNV spreads well; 1-in-64 over 20k URLs should land near 312.
	if hits < total/n/2 || hits > total/n*2 {
		t.Errorf("1-in-%d sampling hit %d of %d (expected ≈%d)", n, hits, total, total/n)
	}
}

// --- Encoding: fixed field order, two profiles --------------------------

// record plays one simple fetch through a tracer and returns the JSONL.
func record(t *testing.T, opts ...Option) string {
	t.Helper()
	var buf bytes.Buffer
	clock := frozenClock()
	tr := New(clock, NewStreamSink(&buf), opts...)
	sp := tr.Start("c1", 7, "example.com/")
	sp.Event("db", "lookup", "miss")
	clock.Advance(150 * time.Millisecond)
	l := sp.Lane("direct")
	l.Event("dns", "query", `example.com @"ldns"`)
	l.Add(PhaseDNS, 120*time.Millisecond)
	clock.Advance(120 * time.Millisecond)
	sp.EventNum("select", "observe", "direct", 0.27)
	l.Close()
	sp.Finish("direct", "clean", nil)
	return buf.String()
}

func TestEncodeDeterministicProfile(t *testing.T) {
	got := record(t)
	want := `{"client":"c1","seq":7,"url":"example.com/","source":"direct","status":"clean",` +
		`"events":[{"layer":"db","name":"lookup","detail":"miss"},` +
		`{"layer":"select","name":"observe","detail":"direct"}],` +
		`"lanes":[{"lane":"direct","events":[{"layer":"dns","name":"query","detail":"example.com @\"ldns\""}]}]}` + "\n"
	if got != want {
		t.Errorf("deterministic profile line:\n got %s want %s", got, want)
	}
	// The deterministic artifact must never carry measured numbers.
	for _, banned := range []string{`"plt"`, `"phases"`, `"t"`, `"num"`, `"start"`} {
		if strings.Contains(got, banned) {
			t.Errorf("deterministic profile leaked %s", banned)
		}
	}
}

func TestEncodeTimingProfile(t *testing.T) {
	got := record(t, WithTiming(100*time.Millisecond))
	// PLT = 270ms floored to 200ms; lane start = 150ms → 100ms; dns = 120ms
	// → 100ms; other = 270−150−120 = 0.
	want := `{"client":"c1","seq":7,"url":"example.com/","source":"direct","status":"clean",` +
		`"plt":"200ms",` +
		`"phases":{"dns":"100ms","connect":"0s","tls":"0s","ttfb":"0s","body":"0s","switch":"100ms","other":"0s"},` +
		`"events":[{"t":"0s","layer":"db","name":"lookup","detail":"miss"},` +
		`{"t":"200ms","layer":"select","name":"observe","detail":"direct","num":0.27}],` +
		`"lanes":[{"lane":"direct","start":"100ms",` +
		`"events":[{"t":"100ms","layer":"dns","name":"query","detail":"example.com @\"ldns\""}]}]}` + "\n"
	if got != want {
		t.Errorf("timing profile line:\n got %s want %s", got, want)
	}
}

func TestJSONStringEscaping(t *testing.T) {
	got := string(appendJSONString(nil, "a\"b\\c\x01d"))
	want := "\"a\\\"b\\\\c\\u0001d\""
	if got != want {
		t.Errorf("escaping: got %s want %s", got, want)
	}
}

// --- The phase partition property ---------------------------------------

// TestPhasePartitionSumsToPLT drives varied serial fetches through the
// recorder and checks the acceptance property: for every record with a
// serving lane, the seven phases partition the PLT exactly (the emitted
// artifact floors each term to the tick, so the raw record is where the
// invariant is exact).
func TestPhasePartitionSumsToPLT(t *testing.T) {
	clock := frozenClock()
	sink := &CollectSink{}
	tr := New(clock, sink)
	for i := 0; i < 40; i++ {
		sp := tr.Start("c", uint64(i), fmt.Sprintf("s%d.example/", i))
		// Detection burns i×7ms before the serving lane opens.
		clock.Advance(time.Duration(i*7) * time.Millisecond)
		serving := "direct"
		if i%3 == 0 {
			// A failed attempt first: its lane never matches the source.
			fail := sp.Lane("tor")
			clock.Advance(time.Duration(i) * time.Millisecond)
			fail.Add(PhaseConnect, time.Duration(i)*time.Millisecond)
			fail.Close()
			serving = "https"
		}
		l := sp.Lane(serving)
		for p := PhaseDNS; p <= PhaseBody; p++ {
			d := time.Duration((i+int(p))%9) * time.Millisecond
			m := l.Begin(p)
			clock.Advance(d)
			m.End()
		}
		// Unattributed tail: select/db bookkeeping → PhaseOther.
		clock.Advance(time.Duration(i%5) * time.Millisecond)
		l.Close()
		sp.Finish(serving, "clean", nil)
	}
	recs := sink.Records()
	if len(recs) != 40 {
		t.Fatalf("recorded %d spans, want 40", len(recs))
	}
	for _, r := range recs {
		if !r.HasPhases {
			t.Errorf("span %d: no phase partition (lanes %d, source %s)", r.Seq, len(r.Lanes), r.Source)
			continue
		}
		var sum time.Duration
		for p := Phase(0); p < NumPhases; p++ {
			if r.Phases[p] < 0 {
				t.Errorf("span %d: negative %s phase %v", r.Seq, p, r.Phases[p])
			}
			sum += r.Phases[p]
		}
		if sum != r.PLT {
			t.Errorf("span %d: phases sum to %v, PLT %v", r.Seq, sum, r.PLT)
		}
	}
}

// TestPhasePartitionWithFailoverLadder replays the span shape the mid-fetch
// failover ladder produces — stale-verdict re-detection, failed candidate
// lanes with partial phase measurements, quarantine and budget span events,
// and a late-starting serving lane — and checks the partition invariant
// survives: the serving lane's phases plus switch plus other still sum
// exactly to the PLT, with the failed lanes' time attributed to the switch
// penalty rather than double-counted.
func TestPhasePartitionWithFailoverLadder(t *testing.T) {
	clock := frozenClock()
	sink := &CollectSink{}
	tr := New(clock, sink)

	sp := tr.Start("c", 1, "blocked.example/")
	sp.Event("db", "stale-verdict", "not-blocked")

	// Re-detection: a direct measurement that ends in a Blocked verdict.
	det := sp.Lane("direct")
	m := det.Begin(PhaseDNS)
	clock.Advance(40 * time.Millisecond)
	m.End()
	m = det.Begin(PhaseConnect)
	clock.Advance(30 * time.Millisecond)
	m.End()
	det.Event("detect", "verdict", "blocked")
	det.Close()

	// The ladder walks two candidates that fail mid-fetch; each failure
	// benches its approach at the span level.
	for _, name := range []string{"gdns", "front"} {
		l := sp.Lane(name)
		l.Event("circum", "attempt", name)
		m := l.Begin(PhaseConnect)
		clock.Advance(55 * time.Millisecond)
		m.End()
		m = l.Begin(PhaseTLS)
		clock.Advance(20 * time.Millisecond)
		m.End()
		l.Event("circum", "fail", name+": connection reset")
		l.Close()
		sp.Event("quarantine", "bench", name)
	}
	sp.Event("circum", "budget-exhausted", "front")

	// The serving lane opens 220ms in: 70ms of re-detection plus two 75ms
	// failed rungs. All of that must land in PhaseSwitch.
	serve := sp.Lane("tor")
	phaseMS := map[Phase]int{PhaseDNS: 10, PhaseConnect: 15, PhaseTLS: 25, PhaseTTFB: 5, PhaseBody: 60}
	for p := PhaseDNS; p <= PhaseBody; p++ {
		m := serve.Begin(p)
		clock.Advance(time.Duration(phaseMS[p]) * time.Millisecond)
		m.End()
	}
	clock.Advance(12 * time.Millisecond) // unattributed bookkeeping tail
	serve.Close()
	sp.Finish("tor", "circumvented", nil)

	recs := sink.Records()
	if len(recs) != 1 {
		t.Fatalf("recorded %d spans, want 1", len(recs))
	}
	r := recs[0]
	if !r.HasPhases {
		t.Fatal("no phase partition despite a serving lane")
	}
	if len(r.Lanes) != 4 {
		t.Fatalf("recorded %d lanes, want 4 (detect + 2 failed + serving)", len(r.Lanes))
	}
	var sum time.Duration
	for p := Phase(0); p < NumPhases; p++ {
		if r.Phases[p] < 0 {
			t.Errorf("negative %s phase %v", p, r.Phases[p])
		}
		sum += r.Phases[p]
	}
	if sum != r.PLT {
		t.Errorf("phases sum to %v, PLT %v", sum, r.PLT)
	}
	if want := 220 * time.Millisecond; r.Phases[PhaseSwitch] != want {
		t.Errorf("switch = %v, want %v (re-detect + failed rungs)", r.Phases[PhaseSwitch], want)
	}
	if want := 12 * time.Millisecond; r.Phases[PhaseOther] != want {
		t.Errorf("other = %v, want %v", r.Phases[PhaseOther], want)
	}
	// The span-level failover events must all survive into the record.
	events := map[string]int{}
	for _, e := range r.Events {
		events[e.Layer+"/"+e.Name]++
	}
	for name, want := range map[string]int{
		"db/stale-verdict": 1, "quarantine/bench": 2, "circum/budget-exhausted": 1,
	} {
		if events[name] != want {
			t.Errorf("event %s recorded %d times, want %d", name, events[name], want)
		}
	}
}

// --- Lifetime: lanes and holds defer emission ---------------------------

func TestEmissionWaitsForLanesAndHolds(t *testing.T) {
	var buf bytes.Buffer
	sink := NewStreamSink(&buf)
	tr := New(frozenClock(), sink)

	sp := tr.Start("c", 1, "a.example/")
	bg := sp.Lane("direct") // background measurement outliving the fetch
	sp.Hold()               // the redundant-copy goroutine
	sp.Finish("global", "blocked", nil)
	if sink.Count() != 0 {
		t.Fatal("span emitted while a lane and a hold were still open")
	}
	bg.Close()
	if sink.Count() != 0 {
		t.Fatal("span emitted while a hold was still open")
	}
	late := sp.Lane("tor") // the copy goroutine opens its lane after Finish
	sp.Release()
	if sink.Count() != 0 {
		t.Fatal("span emitted while the late lane was open")
	}
	late.Close()
	if sink.Count() != 1 {
		t.Fatalf("span not emitted after last lane closed (count %d)", sink.Count())
	}
	if got := buf.String(); !strings.Contains(got, `"lane":"tor"`) {
		t.Errorf("late lane missing from record: %s", got)
	}
	// Double Close / double Finish stay idempotent.
	late.Close()
	sp2 := tr.Start("c", 2, "a.example/")
	sp2.Finish("direct", "clean", nil)
	sp2.Finish("direct", "clean", nil)
	if sink.Count() != 2 {
		t.Errorf("idempotence broken: %d spans emitted, want 2", sink.Count())
	}
}

// TestPoolReuseKeepsRecordsClean runs many sequential spans (each emission
// recycles the span and its lanes) and checks no state bleeds between them.
func TestPoolReuseKeepsRecordsClean(t *testing.T) {
	sink := &CollectSink{}
	tr := New(frozenClock(), sink)
	for i := 0; i < 200; i++ {
		sp := tr.Start("c", uint64(i), fmt.Sprintf("u%d.example/", i))
		sp.Event("db", "lookup", fmt.Sprintf("miss-%d", i))
		l := sp.Lane("direct")
		l.Event("dns", "query", fmt.Sprintf("u%d.example", i))
		l.Close()
		sp.Finish("direct", "clean", nil)
	}
	recs := sink.Records()
	if len(recs) != 200 {
		t.Fatalf("recorded %d spans", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i) || r.URL != fmt.Sprintf("u%d.example/", i) {
			t.Fatalf("span %d carries seq %d url %s", i, r.Seq, r.URL)
		}
		if len(r.Events) != 1 || len(r.Lanes) != 1 || len(r.Lanes[0].Events) != 1 {
			t.Fatalf("span %d: stale pooled state: %d events, %d lanes", i, len(r.Events), len(r.Lanes))
		}
		if want := fmt.Sprintf("miss-%d", i); r.Events[0].Detail != want {
			t.Fatalf("span %d: event detail %q, want %q", i, r.Events[0].Detail, want)
		}
	}
}

// TestConcurrentSpans exercises the pools and the sink under parallel
// recording; `make race` turns this into the recorder's data-race gate.
func TestConcurrentSpans(t *testing.T) {
	sink := &CollectSink{}
	tr := New(frozenClock(), sink)
	var wg sync.WaitGroup
	const workers, perWorker = 8, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sp := tr.Start(fmt.Sprintf("c%d", w), uint64(i), "shared.example/")
				l := sp.Lane("direct")
				l.Event("dns", "query", "shared.example")
				l.Add(PhaseDNS, time.Millisecond)
				done := make(chan struct{})
				sp.Hold()
				go func() {
					// Deferred calls run last-in first-out: done closes after
					// Release, which is what emits a span Finish left held.
					defer close(done)
					defer sp.Release()
					bg := sp.Lane("tor")
					bg.Event("circum", "attempt", "tor")
					bg.Close()
				}()
				l.Close()
				sp.Finish("direct", "clean", nil)
				<-done
			}
		}(w)
	}
	wg.Wait()
	if got := len(sink.Records()); got != workers*perWorker {
		t.Errorf("recorded %d spans, want %d", got, workers*perWorker)
	}
	if started, sampled := tr.Stats(); started != workers*perWorker || sampled != started {
		t.Errorf("stats %d/%d", started, sampled)
	}
}

// --- Sinks --------------------------------------------------------------

func TestSortedSinkCanonicalOrder(t *testing.T) {
	var buf bytes.Buffer
	sink := NewSortedSink(&buf)
	emit := func(client string, seq uint64) {
		rec := &Record{Client: client, Seq: seq}
		sink.Span([]byte(fmt.Sprintf("%s/%d\n", client, seq)), rec)
	}
	emit("b", 2)
	emit("a", 2)
	emit("b", 1)
	emit("a", 1)
	if sink.Count() != 4 {
		t.Fatalf("buffered %d", sink.Count())
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	want := "a/1\na/2\nb/1\nb/2\n"
	if buf.String() != want {
		t.Errorf("sorted output %q, want %q", buf.String(), want)
	}
	if sink.Count() != 0 {
		t.Error("Flush did not drain the buffer")
	}
}

// TestBreakdownAggregates checks the per-source table the experiments print.
func TestBreakdownAggregates(t *testing.T) {
	clock := frozenClock()
	tr := New(clock, NewStreamSink(bytes.NewBuffer(nil)))
	for i := 0; i < 3; i++ {
		sp := tr.Start("c", uint64(i), "x.example/")
		l := sp.Lane("direct")
		m := l.Begin(PhaseDNS)
		clock.Advance(100 * time.Millisecond)
		m.End()
		l.Close()
		sp.Finish("direct", "clean", nil)
	}
	b := tr.Breakdown()
	if !strings.Contains(b, "direct") || !strings.Contains(b, "0.10s") {
		t.Errorf("breakdown missing the aggregated source/phase:\n%s", b)
	}
	if tr2 := New(frozenClock(), nil); tr2.Breakdown() != "" {
		t.Error("empty tracer should render an empty breakdown")
	}
}
