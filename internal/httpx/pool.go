package httpx

import (
	"bufio"
	"io"
	"sync"
)

// readerPool recycles parse buffers. The simulation opens one connection per
// HTTP exchange (Connection: close semantics keep censor stream state per
// request), so the 4 KiB bufio.Reader behind every parse is among the
// largest allocations on the serve path; recycling it is a measurable GC
// win at fleet scale. The parsers copy whatever they return out of the
// reader's buffer — a body they hand over by reference was taken off the
// connection itself, never out of the buffer (see readBody) — so a released
// reader never aliases parsed data.
var readerPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, 4096) },
}

// GetReader returns a pooled bufio.Reader reading from r.
func GetReader(r io.Reader) *bufio.Reader {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

// PutReader returns br to the pool. Release only a reader nothing else can
// still read from, and do not touch it afterwards: one handed to
// netem.Splice or proxynet.Exit is free again once that call has returned
// (the splice reads it on its caller's goroutine and is done with it by
// then), never earlier.
func PutReader(br *bufio.Reader) {
	br.Reset(nil)
	readerPool.Put(br)
}
