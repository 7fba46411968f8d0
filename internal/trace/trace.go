// Package trace is C-Saw's flight recorder: a per-fetch record of where
// page-load time went, across every layer of the emulated internet the
// censor can touch. The paper's incentive argument is a PLT argument
// (§2.4, §5) — the client keeps users by serving the fastest working path —
// so the recorder's unit of account is one FetchURL call (a Span) broken
// into the concurrent paths that raced to serve it (Lanes: the direct
// measurement and each circumvention attempt), and each lane into the
// protocol phases a censor interferes with: DNS, TCP connect, TLS, TTFB,
// body, plus the circumvention-switch penalty (how long the serving lane
// waited to even start) and an "other" remainder so the phases always sum
// exactly to the reported PLT.
//
// Design constraints, in order:
//
//   - Zero allocation when disabled. A nil *Tracer starts a nil *Span; every
//     method is nil-receiver safe and a no-op, and context helpers do not
//     allocate for nil values. The fleet's hot path pays one pointer test.
//   - Pooled when enabled. Spans and lanes come from sync.Pools and return
//     there after emission; event slices keep their backing arrays.
//   - Virtual time only. All timestamps come from the *vtime.Clock; the
//     package obeys csaw-lint's vtimecheck and uses no randomness (randdet).
//   - Deterministic artifacts. Virtual elapsed time is scaled real time, so
//     *measured durations are not byte-stable* across runs (DESIGN.md,
//     "Determinism"). The recorder therefore has two emission profiles: the
//     default deterministic profile emits the schedule-invariant structure
//     (lanes, events, verdicts, selection reasons) and omits measured
//     numbers; WithTiming adds durations floor-quantized to a tick for
//     human consumption. Golden traces and fleet traces use the former.
//   - Sampled at scale. Sampling is a deterministic hash of the URL
//     (Sampled), so same-seed runs sample the same spans.
package trace

import (
	"sync"
	"sync/atomic"
	"time"

	"csaw/internal/vtime"
)

// Phase indexes the PLT breakdown of one lane.
type Phase int

// Phases, in emission order. PhaseSwitch and PhaseOther are computed at
// Finish: the serving lane's start offset, and the PLT remainder.
const (
	PhaseDNS Phase = iota
	PhaseConnect
	PhaseTLS
	PhaseTTFB
	PhaseBody
	PhaseSwitch
	PhaseOther
	NumPhases
)

// String returns the phase's JSON key.
func (p Phase) String() string {
	switch p {
	case PhaseDNS:
		return "dns"
	case PhaseConnect:
		return "connect"
	case PhaseTLS:
		return "tls"
	case PhaseTTFB:
		return "ttfb"
	case PhaseBody:
		return "body"
	case PhaseSwitch:
		return "switch"
	case PhaseOther:
		return "other"
	default:
		return "phase(?)"
	}
}

// Event is one recorded observation: a DNS attempt, a dial verdict, a TLS
// hello, a selection decision. T is the virtual offset from the span start;
// Num is an optional numeric payload (an EWMA value, a PLT sample) emitted
// only in the timing profile, since measured numbers are not byte-stable.
type Event struct {
	T      time.Duration
	Layer  string
	Name   string
	Detail string
	Num    float64
	HasNum bool
}

// DefaultTick is the duration quantum of the timing profile.
const DefaultTick = 100 * time.Millisecond

// DefaultSampleN is the fleet default: trace one URL in 64.
const DefaultSampleN = 64

// Tracer owns the clock, the sampling policy, the emission profile, the
// span/lane pools, and the per-source phase aggregation.
type Tracer struct {
	clock   *vtime.Clock
	sink    Sink
	sampleN uint64
	timing  bool
	tick    time.Duration

	spanPool sync.Pool
	lanePool sync.Pool
	bufPool  sync.Pool

	started atomic.Uint64 // spans requested
	sampled atomic.Uint64 // spans actually recorded

	mu  sync.Mutex
	agg map[string]*sourceAgg
}

// Option configures a Tracer.
type Option func(*Tracer)

// WithSampling traces one URL in n (deterministic hash-of-URL). n <= 1
// traces everything.
func WithSampling(n int) Option {
	return func(t *Tracer) {
		if n > 1 {
			t.sampleN = uint64(n)
		}
	}
}

// WithTiming switches to the timing profile: emitted records carry PLT,
// phase durations, and event offsets, floor-quantized to tick (DefaultTick
// when tick <= 0). Timing records are for humans and aggregation; they are
// not byte-stable across runs.
func WithTiming(tick time.Duration) Option {
	return func(t *Tracer) {
		t.timing = true
		if tick <= 0 {
			tick = DefaultTick
		}
		t.tick = tick
	}
}

// New builds a tracer. clock and sink are required.
func New(clock *vtime.Clock, sink Sink, opts ...Option) *Tracer {
	t := &Tracer{clock: clock, sink: sink, sampleN: 1, tick: DefaultTick}
	t.spanPool.New = func() any { return new(Span) }
	t.lanePool.New = func() any { return new(Lane) }
	t.bufPool.New = func() any { b := make([]byte, 0, 1024); return &b }
	t.agg = make(map[string]*sourceAgg)
	for _, o := range opts {
		o(t)
	}
	return t
}

// Sampled reports whether the deterministic hash-of-URL sampler traces url
// at rate 1-in-n.
func Sampled(url string, n uint64) bool {
	if n <= 1 {
		return true
	}
	return fnv64a(url)%n == 0
}

// fnv64a is the 64-bit FNV-1a hash.
func fnv64a(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Stats returns how many spans were requested and how many were sampled in.
func (t *Tracer) Stats() (started, sampled uint64) {
	if t == nil {
		return 0, 0
	}
	return t.started.Load(), t.sampled.Load()
}

// Start opens a span for one fetch. Returns nil (all ops no-op) on a nil
// tracer or when the URL is sampled out.
func (t *Tracer) Start(client string, seq uint64, url string) *Span {
	if t == nil {
		return nil
	}
	t.started.Add(1)
	if !Sampled(url, t.sampleN) {
		return nil
	}
	t.sampled.Add(1)
	s := t.spanPool.Get().(*Span)
	s.tr = t
	s.client = client
	s.seq = seq
	s.url = url
	s.start = t.clock.Now()
	s.open = 1 // the fetch itself; released by Finish
	s.finished = false
	s.source, s.status, s.errStr = "", "", ""
	s.plt = 0
	return s
}

// Span is one FetchURL call. All mutation is guarded by mu; methods are
// nil-receiver safe.
type Span struct {
	tr     *Tracer
	client string
	seq    uint64
	url    string
	start  time.Time

	mu       sync.Mutex
	events   []Event // span-level (DB decisions, selection)
	lanes    []*Lane
	open     int // Finish hold + open lanes + explicit holds
	finished bool

	source, status, errStr string
	plt                    time.Duration
}

// Event records a span-level event (not tied to one network path).
func (s *Span) Event(layer, name, detail string) {
	if s == nil || s.tr == nil {
		return
	}
	t := s.tr.clock.Since(s.start)
	s.mu.Lock()
	s.events = append(s.events, Event{T: t, Layer: layer, Name: name, Detail: detail})
	s.mu.Unlock()
}

// EventNum is Event with a numeric payload (emitted only under WithTiming).
func (s *Span) EventNum(layer, name, detail string, num float64) {
	if s == nil || s.tr == nil {
		return
	}
	t := s.tr.clock.Since(s.start)
	s.mu.Lock()
	s.events = append(s.events, Event{T: t, Layer: layer, Name: name, Detail: detail, Num: num, HasNum: true})
	s.mu.Unlock()
}

// Lane opens a recording lane for one concurrent path ("direct" or an
// approach name). The lane must be Closed by whoever drives the path; the
// span is emitted only after Finish AND every lane has closed, so lanes may
// outlive the fetch (background direct measurements do).
func (s *Span) Lane(name string) *Lane {
	if s == nil || s.tr == nil {
		return nil
	}
	l := s.tr.lanePool.Get().(*Lane)
	l.span = s
	l.name = name
	l.start = s.tr.clock.Since(s.start)
	l.closed = false
	for i := range l.phases {
		l.phases[i] = 0
	}
	s.mu.Lock()
	s.lanes = append(s.lanes, l)
	s.open++
	s.mu.Unlock()
	return l
}

// Hold keeps the span alive across a goroutine that may open lanes later
// (the staggered redundant copy). Pair with Release.
func (s *Span) Hold() {
	if s == nil || s.tr == nil {
		return
	}
	s.mu.Lock()
	s.open++
	s.mu.Unlock()
}

// Release undoes Hold and emits the span if it was the last reference.
func (s *Span) Release() {
	if s == nil || s.tr == nil {
		return
	}
	s.mu.Lock()
	s.open--
	emit := s.open == 0 && s.finished
	s.mu.Unlock()
	if emit {
		s.emit()
	}
}

// Finish seals the span with the fetch result. Emission happens now, or
// when the last background lane closes. Like Lane.Close, a stray call after
// the span emitted and was recycled (tr nilled) is a best-effort no-op.
func (s *Span) Finish(source, status string, err error) {
	if s == nil || s.tr == nil {
		return
	}
	plt := s.tr.clock.Since(s.start)
	s.mu.Lock()
	if s.finished {
		s.mu.Unlock()
		return
	}
	s.finished = true
	s.source, s.status = source, status
	if err != nil {
		s.errStr = err.Error()
	}
	s.plt = plt
	s.open--
	emit := s.open == 0
	s.mu.Unlock()
	if emit {
		s.emit()
	}
}

// Lane is one concurrent path within a span. Methods are nil-receiver safe;
// concurrent copies of one attempt may share a lane (guarded by the span's
// mutex).
type Lane struct {
	span   *Span
	closed bool
	name   string
	start  time.Duration
	phases [NumPhases]time.Duration
	events []Event
}

// Name returns the lane's name ("direct" or the approach name).
func (l *Lane) Name() string {
	if l == nil {
		return ""
	}
	return l.name
}

// Event records a lane event.
func (l *Lane) Event(layer, name, detail string) {
	if l == nil || l.span == nil {
		return
	}
	s := l.span
	t := s.tr.clock.Since(s.start)
	s.mu.Lock()
	l.events = append(l.events, Event{T: t, Layer: layer, Name: name, Detail: detail})
	s.mu.Unlock()
}

// Add accumulates a phase duration measured by the caller.
func (l *Lane) Add(p Phase, d time.Duration) {
	if l == nil || l.span == nil || d <= 0 {
		return
	}
	s := l.span
	s.mu.Lock()
	l.phases[p] += d
	s.mu.Unlock()
}

// Mark is an in-flight phase measurement (a value; no allocation).
type Mark struct {
	lane *Lane
	p    Phase
	t0   time.Time
}

// Begin starts measuring a phase; End stops and accumulates it.
func (l *Lane) Begin(p Phase) Mark {
	if l == nil || l.span == nil {
		return Mark{}
	}
	return Mark{lane: l, p: p, t0: l.span.tr.clock.Now()}
}

// End finishes the measurement started by Begin.
func (m Mark) End() {
	if m.lane == nil || m.lane.span == nil {
		return
	}
	m.lane.Add(m.p, m.lane.span.tr.clock.Since(m.t0))
}

// Close seals the lane. Every opened lane must be closed exactly once; the
// span emits when the last reference (lanes, holds, Finish) drops. A stray
// Close after the span emitted (l.span nilled at recycle) is a no-op rather
// than a panic — best-effort only, since a recycled lane may already serve
// another span.
func (l *Lane) Close() {
	if l == nil {
		return
	}
	s := l.span
	if s == nil {
		return
	}
	s.mu.Lock()
	if l.closed {
		s.mu.Unlock()
		return
	}
	l.closed = true
	s.open--
	emit := s.open == 0 && s.finished
	s.mu.Unlock()
	if emit {
		s.emit()
	}
}

// emit builds the transient Record, aggregates the phase breakdown, hands
// the encoded line to the sink, and recycles the span and its lanes. Called
// exactly once, after the last reference drops, so no locking is needed for
// the span's own state.
func (s *Span) emit() {
	t := s.tr
	rec := Record{
		Client: s.client,
		Seq:    s.seq,
		URL:    s.url,
		Source: s.source,
		Status: s.status,
		Err:    s.errStr,
		PLT:    s.plt,
		Events: s.events,
	}
	// The serving lane: the first lane whose name matches the result source.
	// Its sequential phases, plus the switch penalty (its start offset) and
	// the remainder, partition the PLT exactly.
	for _, l := range s.lanes {
		rec.Lanes = append(rec.Lanes, LaneRecord{Name: l.name, Start: l.start, Events: l.events})
		if !rec.HasPhases && l.name == s.source {
			rec.HasPhases = true
			rec.Phases = l.phases
			rec.Phases[PhaseSwitch] = l.start
			rest := s.plt - l.start
			for p := PhaseDNS; p <= PhaseBody; p++ {
				rest -= l.phases[p]
			}
			if rest < 0 {
				rest = 0
			}
			rec.Phases[PhaseOther] = rest
		}
	}
	t.aggregate(&rec)
	if t.sink != nil {
		bp := t.bufPool.Get().(*[]byte)
		line := encodeRecord((*bp)[:0], &rec, t.timing, t.tick)
		t.sink.Span(line, &rec)
		*bp = line[:0]
		t.bufPool.Put(bp)
	}
	// Recycle.
	for _, l := range s.lanes {
		l.span = nil
		l.events = l.events[:0]
		t.lanePool.Put(l)
	}
	s.lanes = s.lanes[:0]
	s.events = s.events[:0]
	s.tr = nil
	t.spanPool.Put(s)
}
