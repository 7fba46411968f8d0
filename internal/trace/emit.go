package trace

import (
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Record is the transient, structured form of one emitted span. It is valid
// only for the duration of the Sink.Span call (its slices alias pooled
// memory); sinks that retain it must Clone it.
type Record struct {
	Client string
	Seq    uint64
	URL    string
	Source string
	Status string
	Err    string
	PLT    time.Duration
	// HasPhases is set when a lane matching Source existed: Phases then
	// partitions PLT exactly (DNS..body from the serving lane, Switch = its
	// start offset, Other = the remainder).
	HasPhases bool
	Phases    [NumPhases]time.Duration
	Events    []Event // span-level events
	Lanes     []LaneRecord
}

// LaneRecord is one lane of a Record.
type LaneRecord struct {
	Name   string
	Start  time.Duration
	Events []Event
}

// Clone deep-copies the record for retention beyond the Sink.Span call.
func (r *Record) Clone() *Record {
	c := *r
	c.Events = append([]Event(nil), r.Events...)
	c.Lanes = append([]LaneRecord(nil), r.Lanes...)
	for i := range c.Lanes {
		c.Lanes[i].Events = append([]Event(nil), r.Lanes[i].Events...)
	}
	return &c
}

// Sink receives emitted spans. line is the encoded JSONL line (newline
// included) and rec the transient structured form; both are valid only for
// the duration of the call and must be copied if retained. Implementations
// must be safe for concurrent use.
type Sink interface {
	Span(line []byte, rec *Record)
}

// encodeRecord appends the JSONL line for rec to dst. Field order is fixed
// by hand so the artifact is byte-stable; the timing profile adds "plt",
// "phases", per-event "t"/"num", and per-lane "start", all floor-quantized
// to tick.
func encodeRecord(dst []byte, rec *Record, timing bool, tick time.Duration) []byte {
	dst = append(dst, `{"client":`...)
	dst = appendJSONString(dst, rec.Client)
	dst = append(dst, `,"seq":`...)
	dst = strconv.AppendUint(dst, rec.Seq, 10)
	dst = append(dst, `,"url":`...)
	dst = appendJSONString(dst, rec.URL)
	dst = append(dst, `,"source":`...)
	dst = appendJSONString(dst, rec.Source)
	dst = append(dst, `,"status":`...)
	dst = appendJSONString(dst, rec.Status)
	if rec.Err != "" {
		dst = append(dst, `,"err":`...)
		dst = appendJSONString(dst, rec.Err)
	}
	if timing {
		dst = append(dst, `,"plt":`...)
		dst = appendQuantized(dst, rec.PLT, tick)
		if rec.HasPhases {
			dst = append(dst, `,"phases":{`...)
			for p := Phase(0); p < NumPhases; p++ {
				if p > 0 {
					dst = append(dst, ',')
				}
				dst = appendJSONString(dst, p.String())
				dst = append(dst, ':')
				dst = appendQuantized(dst, rec.Phases[p], tick)
			}
			dst = append(dst, '}')
		}
	}
	if len(rec.Events) > 0 {
		dst = append(dst, `,"events":[`...)
		for i := range rec.Events {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendEvent(dst, &rec.Events[i], timing, tick)
		}
		dst = append(dst, ']')
	}
	if len(rec.Lanes) > 0 {
		dst = append(dst, `,"lanes":[`...)
		for i := range rec.Lanes {
			l := &rec.Lanes[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"lane":`...)
			dst = appendJSONString(dst, l.Name)
			if timing {
				dst = append(dst, `,"start":`...)
				dst = appendQuantized(dst, l.Start, tick)
			}
			if len(l.Events) > 0 {
				dst = append(dst, `,"events":[`...)
				for j := range l.Events {
					if j > 0 {
						dst = append(dst, ',')
					}
					dst = appendEvent(dst, &l.Events[j], timing, tick)
				}
				dst = append(dst, ']')
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, '}', '\n')
	return dst
}

func appendEvent(dst []byte, e *Event, timing bool, tick time.Duration) []byte {
	dst = append(dst, '{')
	if timing {
		dst = append(dst, `"t":`...)
		dst = appendQuantized(dst, e.T, tick)
		dst = append(dst, ',')
	}
	dst = append(dst, `"layer":`...)
	dst = appendJSONString(dst, e.Layer)
	dst = append(dst, `,"name":`...)
	dst = appendJSONString(dst, e.Name)
	if e.Detail != "" {
		dst = append(dst, `,"detail":`...)
		dst = appendJSONString(dst, e.Detail)
	}
	if timing && e.HasNum {
		dst = append(dst, `,"num":`...)
		dst = strconv.AppendFloat(dst, e.Num, 'g', 6, 64)
	}
	dst = append(dst, '}')
	return dst
}

// appendQuantized renders d floored to tick, as a JSON string like "1.5s".
func appendQuantized(dst []byte, d time.Duration, tick time.Duration) []byte {
	if d < 0 {
		d = 0
	}
	if tick > 0 {
		d -= d % tick
	}
	dst = append(dst, '"')
	dst = append(dst, d.String()...)
	dst = append(dst, '"')
	return dst
}

// appendJSONString appends s as a JSON string literal with minimal escaping.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c < 0x20:
			dst = append(dst, '\\', 'u', '0', '0', hexDigit(c>>4), hexDigit(c&0xf))
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}

func hexDigit(b byte) byte {
	if b < 10 {
		return '0' + b
	}
	return 'a' + b - 10
}

// StreamSink writes each span's line to w as it is emitted — the right sink
// for a single serial client (csaw-client, the golden scenario), where
// emission order is the program order.
type StreamSink struct {
	mu sync.Mutex
	w  io.Writer
}

// NewStreamSink builds a streaming sink.
func NewStreamSink(w io.Writer) *StreamSink { return &StreamSink{w: w} }

// Span implements Sink.
func (s *StreamSink) Span(line []byte, _ *Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, _ = s.w.Write(line)
}

// SortedSink buffers encoded lines and writes them sorted by (client, seq)
// on Flush — the fleet sink, where spans from many clients finish in
// scheduler order but the artifact must have a canonical one.
type SortedSink struct {
	mu    sync.Mutex
	w     io.Writer
	lines []sortedLine
}

type sortedLine struct {
	client string
	seq    uint64
	line   []byte
}

// NewSortedSink builds a sorting sink over w.
func NewSortedSink(w io.Writer) *SortedSink { return &SortedSink{w: w} }

// Span implements Sink.
func (s *SortedSink) Span(line []byte, rec *Record) {
	cp := append([]byte(nil), line...)
	s.mu.Lock()
	s.lines = append(s.lines, sortedLine{client: rec.Client, seq: rec.Seq, line: cp})
	s.mu.Unlock()
}

// Flush sorts and writes every buffered line.
func (s *SortedSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sort.Slice(s.lines, func(i, j int) bool {
		a, b := s.lines[i], s.lines[j]
		if a.client != b.client {
			return a.client < b.client
		}
		return a.seq < b.seq
	})
	for _, l := range s.lines {
		if _, err := s.w.Write(l.line); err != nil {
			return err
		}
	}
	s.lines = nil
	return nil
}

// CollectSink retains cloned records for test assertions.
type CollectSink struct {
	mu   sync.Mutex
	recs []*Record
}

// Span implements Sink.
func (s *CollectSink) Span(_ []byte, rec *Record) {
	c := rec.Clone()
	s.mu.Lock()
	s.recs = append(s.recs, c)
	s.mu.Unlock()
}
