package globaldb

import (
	"strings"
	"sync"

	"csaw/internal/httpx"
)

// FaultPolicy injects failures into a Server for resilience experiments:
// full outages (503s), silent drops (the server says nothing, so the client
// times out), and a one-shot fail-the-next-N budget.
// A path filter narrows any of these to matching requests — e.g.
// SetPathFilter("asn=30") fails only AS-30 blocked-list fetches, which is
// how tests exercise per-AS partial failure. The zero value injects nothing.
type FaultPolicy struct {
	mu       sync.Mutex
	outage   bool
	drop     bool
	failNext int
	filter   string
	injected int
}

// SetOutage turns the whole-DB outage on or off (matching requests get 503).
func (f *FaultPolicy) SetOutage(on bool) {
	f.mu.Lock()
	f.outage = on
	f.mu.Unlock()
}

// SetDrop makes injected faults silent: instead of a 503 the server returns
// nothing and the client runs into its timeout.
func (f *FaultPolicy) SetDrop(on bool) {
	f.mu.Lock()
	f.drop = on
	f.mu.Unlock()
}

// FailNext makes the next n matching requests fail, then recovers.
func (f *FaultPolicy) FailNext(n int) {
	f.mu.Lock()
	f.failNext = n
	f.mu.Unlock()
}

// SetPathFilter narrows fault injection to requests whose target contains
// substr (""= all requests). "asn=30" hits only AS-30 fetches; PathReport
// hits only report posts.
func (f *FaultPolicy) SetPathFilter(substr string) {
	f.mu.Lock()
	f.filter = substr
	f.mu.Unlock()
}

// Injected reports how many requests have been failed so far.
func (f *FaultPolicy) Injected() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// intercept decides whether to fail req. It returns (resp, true) when a
// fault fires; a nil resp with true means "say nothing" (client timeout).
func (f *FaultPolicy) intercept(req *httpx.Request) (*httpx.Response, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.filter != "" && !strings.Contains(req.Target, f.filter) {
		return nil, false
	}
	fire := f.outage
	if !fire && f.failNext > 0 {
		f.failNext--
		fire = true
	}
	if !fire {
		return nil, false
	}
	f.injected++
	if f.drop {
		return nil, true
	}
	return httpx.NewResponse(503, []byte("injected fault: service unavailable")), true
}
