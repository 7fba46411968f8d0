package httpx

import (
	"bufio"
	"context"
	"io"
	"strconv"

	"csaw/internal/trace"
)

// ReadResponseCtx is ReadResponse plus flight-recorder instrumentation, for
// a br that reads from src: the body may be taken off src by reference
// (see readBody), so it is read-only. When the context carries a trace
// lane, the wait for the first response byte is timed as PhaseTTFB and the
// rest of the parse as PhaseBody, with the status code recorded on success.
func ReadResponseCtx(ctx context.Context, br *bufio.Reader, src io.Reader) (*Response, error) {
	l := trace.FromContext(ctx)
	if l == nil {
		return readResponse(br, src)
	}
	m := l.Begin(trace.PhaseTTFB)
	_, peekErr := br.Peek(1)
	m.End()
	if peekErr == nil {
		l.Event("http", "first-byte", "")
	}
	m = l.Begin(trace.PhaseBody)
	resp, err := readResponse(br, src)
	m.End()
	if err != nil {
		l.Event("http", "response-error", err.Error())
		return nil, err
	}
	l.Event("http", "response", strconv.Itoa(resp.StatusCode))
	return resp, nil
}
