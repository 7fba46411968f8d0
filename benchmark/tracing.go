package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The harness-side tracer: spans recorded around every call the benchmark
// makes into a layer, kept in memory and flushed when the run ends. A nil
// *tracer (tracing off) makes every method a no-op, so the timed runs pay
// one pointer test per call.

// span is one recorded call. Times are host nanoseconds since the tracer
// started; Parent is the id of the enclosing span (0 = none); Run is the
// measurement round the call belonged to.
type span struct {
	ID      int64  `json:"id"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int64  `json:"parent"`
	Run     int    `json:"run"`
}

type tracer struct {
	t0     time.Time
	nextID atomic.Int64

	mu   sync.Mutex
	bufs []*spanBuf
}

func newTracer() *tracer { return &tracer{t0: now()} }

// spanBuf is one goroutine's span log; goroutines never share one, so
// recording takes no lock.
type spanBuf struct {
	tr    *tracer
	spans []span
}

// buf hands out a goroutine-private span log (nil when tracing is off).
func (tr *tracer) buf() *spanBuf {
	if tr == nil {
		return nil
	}
	b := &spanBuf{tr: tr}
	tr.mu.Lock()
	tr.bufs = append(tr.bufs, b)
	tr.mu.Unlock()
	return b
}

// fork hands a goroutine started under b its own log.
func (b *spanBuf) fork() *spanBuf {
	if b == nil {
		return nil
	}
	return b.tr.buf()
}

// mark is an open span.
type mark struct {
	id, parent, start int64
	run               int
}

// start opens a span under parent (0 = top level).
func (b *spanBuf) start(parent int64, run int) mark {
	if b == nil {
		return mark{}
	}
	return mark{id: b.tr.nextID.Add(1), parent: parent, run: run, start: int64(since(b.tr.t0))}
}

// end closes m under name; the name is given at the end because for a DB
// request it is the outcome (304 / delta / full) that names the span.
func (b *spanBuf) end(m mark, name string) {
	if b == nil {
		return
	}
	b.spans = append(b.spans, span{
		ID: m.id, Name: name, StartNS: m.start, EndNS: int64(since(b.tr.t0)),
		Parent: m.parent, Run: m.run,
	})
}

// do wraps one call in a span.
func (b *spanBuf) do(name string, parent int64, run int, fn func() error) error {
	m := b.start(parent, run)
	err := fn()
	b.end(m, name)
	return err
}

// all merges every goroutine's log, ordered by start time.
func (tr *tracer) all() []span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []span
	for _, b := range tr.bufs {
		out = append(out, b.spans...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartNS != out[j].StartNS {
			return out[i].StartNS < out[j].StartNS
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// flush writes the spans as JSON lines.
func (tr *tracer) flush(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.all() {
		if err := enc.Encode(s); err != nil {
			closeErr := f.Close()
			return fmt.Errorf("write %s: %v (close: %v)", path, err, closeErr)
		}
	}
	if err := w.Flush(); err != nil {
		closeErr := f.Close()
		return fmt.Errorf("flush %s: %v (close: %v)", path, err, closeErr)
	}
	return f.Close()
}

// selfRow is one span name's aggregate.
type selfRow struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes folds spans by name: self time is a span's duration minus the
// part its direct children cover.
func selfTimes(spans []span) []selfRow {
	child := make(map[int64]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	rows := make(map[string]*selfRow)
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &selfRow{name: s.Name}
			rows[s.Name] = r
		}
		d := s.EndNS - s.StartNS
		r.count++
		r.total += time.Duration(d)
		r.self += time.Duration(d - child[s.ID])
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].self != out[j].self {
			return out[i].self > out[j].self
		}
		return out[i].name < out[j].name
	})
	return out
}

// --- CPU profile folding ---------------------------------------------------
//
// runtime/pprof writes a gzipped protobuf (profile.proto). Only the stdlib
// is available, so this is the minimal decoder for the five message types
// the fold needs: Profile{sample, location, function, string_table},
// Sample{location_id, value}, Location{id, line}, Line{function_id},
// Function{id, name}.

// pbuf walks one protobuf message.
type pbuf struct {
	b   []byte
	err error
}

func (p *pbuf) varint() uint64 {
	v, n := binary.Uvarint(p.b)
	if n <= 0 {
		p.err = fmt.Errorf("pprof: bad varint")
		p.b = nil
		return 0
	}
	p.b = p.b[n:]
	return v
}

// next returns the next field: its number, and either its varint value or
// its length-delimited bytes.
func (p *pbuf) next() (field int, v uint64, data []byte, ok bool) {
	if len(p.b) == 0 || p.err != nil {
		return 0, 0, nil, false
	}
	key := p.varint()
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		v = p.varint()
	case 1:
		if len(p.b) < 8 {
			p.err = fmt.Errorf("pprof: short fixed64")
			return 0, 0, nil, false
		}
		v = binary.LittleEndian.Uint64(p.b)
		p.b = p.b[8:]
	case 2:
		n := p.varint()
		if uint64(len(p.b)) < n {
			p.err = fmt.Errorf("pprof: short bytes field")
			return 0, 0, nil, false
		}
		data = p.b[:n]
		p.b = p.b[n:]
	case 5:
		if len(p.b) < 4 {
			p.err = fmt.Errorf("pprof: short fixed32")
			return 0, 0, nil, false
		}
		v = uint64(binary.LittleEndian.Uint32(p.b))
		p.b = p.b[4:]
	default:
		p.err = fmt.Errorf("pprof: unsupported wire type %d", key&7)
		return 0, 0, nil, false
	}
	return field, v, data, p.err == nil
}

// repeated appends a repeated integer field given either encoding (packed
// bytes or one varint per occurrence).
func repeated(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	p := pbuf{b: data}
	for len(p.b) > 0 && p.err == nil {
		dst = append(dst, p.varint())
	}
	return dst, p.err
}

type pSample struct {
	locs []uint64
	vals []uint64
}

// profStacks decodes a CPU profile into (stack of function names, leaf
// first; weight) pairs. The weight is the sample's last value (CPU
// nanoseconds for a CPU profile).
func profStacks(gz []byte) (stacks [][]string, weights []int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("pprof: %w", err)
	}
	var samples []pSample
	locLines := make(map[uint64][]uint64) // location id → function ids, leaf first
	fnName := make(map[uint64]uint64)     // function id → string index
	var strs []string
	p := pbuf{b: raw}
	for {
		field, _, data, ok := p.next()
		if !ok {
			break
		}
		switch field {
		case 2: // sample
			var s pSample
			sp := pbuf{b: data}
			for {
				f, v, d, ok := sp.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					if s.locs, err = repeated(s.locs, v, d); err != nil {
						return nil, nil, err
					}
				case 2:
					if s.vals, err = repeated(s.vals, v, d); err != nil {
						return nil, nil, err
					}
				}
			}
			if sp.err != nil {
				return nil, nil, sp.err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			lp := pbuf{b: data}
			for {
				f, v, d, ok := lp.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 4:
					ln := pbuf{b: d}
					for {
						lf, lv, _, ok := ln.next()
						if !ok {
							break
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
					if ln.err != nil {
						return nil, nil, ln.err
					}
				}
			}
			if lp.err != nil {
				return nil, nil, lp.err
			}
			locLines[id] = fns
		case 5: // function
			var id, name uint64
			fp := pbuf{b: data}
			for {
				f, v, _, ok := fp.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			if fp.err != nil {
				return nil, nil, fp.err
			}
			fnName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	if p.err != nil {
		return nil, nil, p.err
	}
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				if idx := fnName[fn]; idx < uint64(len(strs)) {
					stack = append(stack, strs[idx])
				}
			}
		}
		stacks = append(stacks, stack)
		weights = append(weights, int64(s.vals[len(s.vals)-1]))
	}
	return stacks, weights, nil
}

// cpuShareKeys are the attribution buckets, in the order they are reported.
var cpuShareKeys = []string{
	"vtime", "netem", "dnsx", "censor", "blockpage", "tlsx", "httpx", "web",
	"detect", "core", "localdb", "proxynet", "globaldb", "fleet", "trace",
	"json", "runtime_gc", "runtime_other", "other",
}

// layerAlias folds the packages that have no bucket of their own into the
// layer they serve: the relay transports into proxynet, the DB's storage
// and replica packages into globaldb.
var layerAlias = map[string]string{
	"tor": "proxynet", "lantern": "proxynet",
	"globaldb/storage": "globaldb", "globaldb/replica": "globaldb",
}

// funcPackage is the import path of a pprof function name
// ("csaw/internal/netem.(*pipe).Write" → "csaw/internal/netem").
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// bucketOf maps a package to an attribution bucket, or "" when it has none
// (generic stdlib: its time belongs to whichever layer called it).
func bucketOf(pkg string) string {
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "encoding/json":
		return "json"
	}
	rest, ok := strings.CutPrefix(pkg, "csaw/internal/")
	if !ok {
		return ""
	}
	if a, ok := layerAlias[rest]; ok {
		return a
	}
	for _, k := range cpuShareKeys {
		if rest == k {
			return k
		}
	}
	return ""
}

// gcRoots are the runtime entry points of collector work.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcMarkTermination", "runtime.gcStart",
}

// foldCPU folds stacks into per-bucket shares of total CPU. A sample is
// charged to its leaf's bucket when the leaf is runtime (split into GC and
// the rest) and otherwise to the nearest frame that has a bucket, so that
// strings/bytes/bufio/sync time lands on the layer that called it. Samples
// with no such frame are "other".
func foldCPU(stacks [][]string, weights []int64) map[string]float64 {
	sum := make(map[string]int64)
	var total int64
	for i, st := range stacks {
		w := weights[i]
		total += w
		b := "other"
		if len(st) > 0 && bucketOf(funcPackage(st[0])) == "runtime" {
			b = "runtime_other"
			for _, fn := range st {
				for _, root := range gcRoots {
					if strings.HasPrefix(fn, root) {
						b = "runtime_gc"
					}
				}
			}
		} else {
			for _, fn := range st {
				if k := bucketOf(funcPackage(fn)); k != "" && k != "runtime" {
					b = k
					break
				}
			}
		}
		sum[b] += w
	}
	out := make(map[string]float64, len(cpuShareKeys))
	for _, k := range cpuShareKeys {
		if total > 0 {
			out[k] = float64(sum[k]) / float64(total)
		} else {
			out[k] = 0
		}
	}
	return out
}
