package globaldb

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"csaw/internal/httpx"
	"csaw/internal/localdb"
	"csaw/internal/metrics"
	"csaw/internal/netem"
	"csaw/internal/trace"
	"csaw/internal/vtime"
)

// Client talks to the global DB. Its dialer decides the path: C-Saw sends
// censorship reports over Tor so a snooping censor cannot identify
// contributors (§5 "User privacy and resilience to detection"), while
// list fetches may use any reachable path.
//
// The DB may be deployed as a replica set (§5: blocking access to the
// global_DB is countered by moving it — here, by having more than one).
// Endpoints lists the servers in preference order; every API call tries the
// first healthy one and fails over on transport errors (timeouts, resets,
// refused connections — the signature of a censor blackholing the primary's
// IP). An HTTP error status is a server answer, not unreachability, and
// never triggers failover. Failed endpoints are retried after
// ReplicaCooldown.
type Client struct {
	// Endpoints are the server addresses ("ip:port", or "host:port" for
	// hostname-capable dialers) in preference order: one entry for a single
	// server, the primary first for a replica set.
	Endpoints []string
	Host      string // Host header value
	Clock     *vtime.Clock
	// ReportDial carries report traffic (Tor in the paper's deployment);
	// FetchDial carries registration and list downloads.
	ReportDial netem.DialFunc
	FetchDial  netem.DialFunc
	// Timeout bounds each API call (virtual); default 30s.
	Timeout time.Duration
	// ReplicaCooldown is how long a failed endpoint sits out before being
	// retried (virtual); default 5m.
	ReplicaCooldown time.Duration
	// Trace, when set, records a span per failed-over API call on the
	// "repl" lane.
	Trace *trace.Tracer
	// Lists, when set, is the table of decoded lists this client shares
	// with the other clients of its world (see ListTable).
	Lists *ListTable

	mu         sync.Mutex
	uuid       string
	blocked    []asCache            // per AS: the client's copy of the crowd's list
	down       map[string]time.Time // endpoint → retry-at (virtual)
	lastServed string
	seq        uint64
	counters   metrics.Counters
}

// blockedCache is one AS's last successfully fetched list, the server's
// validator tag for it, and the endpoint whose state at that tag it is (""
// if none: see FetchBlocked). It is the base of the client's next
// conditional fetch and what Lookup searches. A blockedCache is never
// written after it is stored (a refresh or forgetTag swaps in a new one),
// so one may be shared: with FetchBlocked's return value, and through a
// ListTable with every client of the world that holds the same list.
type blockedCache struct {
	tag      string
	endpoint string
	entries  []Entry // URL-sorted
}

// ListTable is the decoded lists that the clients of one world share. For
// each (endpoint that answered, ASN) it holds the newest blockedCache any of
// them decoded there and, if that came from a full answer, the answer's
// body. A client whose 200 answer names that same state adopts the cache
// instead of decoding a copy of its own (see FetchBlocked), so each AS
// state is held once per world rather than once per client. The zero value
// is ready to use.
type ListTable struct {
	mu sync.Mutex
	m  map[listKey]sharedList
}

// listKey names where a list came from. It is never a tag alone: two
// endpoints may issue the same tag for different lists.
type listKey struct {
	endpoint string
	asn      int
}

type sharedList struct {
	cache *blockedCache
	body  []byte // the full answer cache was decoded from; nil for a delta
}

func (t *ListTable) get(endpoint string, asn int) sharedList {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[listKey{endpoint, asn}]
}

func (t *ListTable) put(asn int, sl sharedList) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m == nil {
		t.m = make(map[listKey]sharedList)
	}
	t.m[listKey{sl.cache.endpoint, asn}] = sl
}

func (c *Client) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return 30 * time.Second
}

func (c *Client) cooldown() time.Duration {
	if c.ReplicaCooldown > 0 {
		return c.ReplicaCooldown
	}
	return 5 * time.Minute
}

// UUID returns the registered identity, or "".
func (c *Client) UUID() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.uuid
}

// SetUUID restores a previously assigned identity.
func (c *Client) SetUUID(u string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.uuid = u
}

// Counters counts the client's sync-path outcomes:
//
//	fetch-full     200 full-body list fetches
//	fetch-delta    200 delta-encoded list fetches
//	fetch-304      304 not-modified answers
//	list-bytes     list bytes received (full + delta bodies)
//	failovers      API calls served by a non-first-preference endpoint
//	replica-down   healthy→down endpoint transitions observed
//	leader-chases  fenced (421) answers whose leader hint was followed
func (c *Client) Counters() *metrics.Counters { return &c.counters }

// LastServed returns the endpoint that answered the most recent successful
// call, or "".
func (c *Client) LastServed() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastServed
}

// attemptOrder returns the endpoints to try: healthy ones first in
// preference order, then cooling-down ones (soonest retry first) as a last
// resort — a client never refuses to try just because everything recently
// failed.
func (c *Client) attemptOrder(eps []string) []string {
	now := c.Clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	healthy := make([]string, 0, len(eps))
	var cooling []string
	for _, ep := range eps {
		if until, bad := c.down[ep]; bad && now.Before(until) {
			cooling = append(cooling, ep)
		} else {
			healthy = append(healthy, ep)
		}
	}
	return append(healthy, cooling...)
}

func (c *Client) markDown(ep string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down == nil {
		c.down = make(map[string]time.Time)
	}
	if until, bad := c.down[ep]; !bad || c.Clock.Now().After(until) {
		c.counters.Add("replica-down", 1)
	}
	c.down[ep] = c.Clock.Now().Add(c.cooldown())
}

func (c *Client) noteServed(ep string, failedOver bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.down, ep)
	c.lastServed = ep
	if failedOver {
		c.counters.Add("failovers", 1)
	}
}

func (c *Client) nextSeq() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	return c.seq
}

// maxLeaderChase bounds how many fencing hints one call follows: two hops
// cover a hint that itself lands on a freshly demoted node.
const maxLeaderChase = 2

var errNoEndpoints = errors.New("globaldb: no endpoints")

// do sends req to the first endpoint that answers. With several endpoints it
// orders them by health, benches the ones that fail at the transport layer
// and records a span; a lone endpoint has nobody to fail over to, so it
// keeps no cooldown and pays for neither.
func (c *Client) do(ctx context.Context, dial netem.DialFunc, req *httpx.Request) (resp *httpx.Response, servedBy string, err error) {
	hc := &httpx.Client{Dial: dial, Clock: c.Clock, Timeout: c.timeout()}
	eps := c.Endpoints
	failover := len(eps) > 1
	var sp *trace.Span
	if failover {
		eps = c.attemptOrder(eps)
		if c.Trace != nil {
			sp = c.Trace.Start("globaldb", c.nextSeq(), req.Target)
		}
	}
	lastErr := errNoEndpoints
	for _, ep := range eps {
		if err := ctx.Err(); err != nil {
			lastErr = err
			break
		}
		if sp != nil {
			sp.Event("repl", "attempt", ep)
		}
		resp, err = hc.Do(ctx, ep, req)
		if err != nil {
			lastErr = err
			if failover {
				c.markDown(ep)
			}
			if sp != nil {
				sp.Event("repl", "down", ep)
			}
			continue
		}
		servedBy = ep
		if resp.StatusCode == StatusFenced {
			resp, servedBy = ChaseLeader(resp, ep, "", maxLeaderChase, func(_ int64, hint string) (*httpx.Response, error) {
				if sp != nil {
					sp.Event("repl", "chase", hint)
				}
				next, err := hc.Do(ctx, hint, req)
				if err == nil {
					c.counters.Add("leader-chases", 1)
				}
				return next, err
			})
		}
		c.noteServed(servedBy, servedBy != c.Endpoints[0])
		if sp != nil {
			sp.Event("repl", "served", servedBy)
			sp.Finish("globaldb", "ok", nil)
		}
		return resp, servedBy, nil
	}
	if sp != nil {
		sp.Finish("globaldb", "error", lastErr)
	}
	return nil, "", lastErr
}

// Register solves the CAPTCHA (the token models the user's solution) and
// obtains a UUID.
func (c *Client) Register(ctx context.Context, captchaToken string) error {
	req := httpx.NewRequest("POST", c.Host, PathRegister)
	req.Header.Set(CaptchaHeader, captchaToken)
	resp, _, err := c.do(ctx, c.FetchDial, req)
	if err != nil {
		return fmt.Errorf("globaldb: register: %w", err)
	}
	if resp.StatusCode != 200 {
		return fmt.Errorf("globaldb: register: %d %s", resp.StatusCode, resp.Body)
	}
	var rr RegisterResponse
	if err := json.Unmarshal(resp.Body, &rr); err != nil {
		return fmt.Errorf("globaldb: register: %w", err)
	}
	c.SetUUID(rr.UUID)
	return nil
}

// Report posts blocked-URL records (over the report path) and returns how
// many the server accepted.
func (c *Client) Report(ctx context.Context, recs []localdb.Record) (int, error) {
	uuid := c.UUID()
	if uuid == "" {
		return 0, fmt.Errorf("globaldb: not registered")
	}
	body := ReportRequest{UUID: uuid}
	for _, r := range recs {
		if r.Status != localdb.Blocked {
			continue // only blocked URLs are ever reported (§3)
		}
		body.Reports = append(body.Reports, Report{
			URL: r.URL, ASN: r.ASN, Stages: ToWire(r.Stages), Tm: r.Measured,
		})
	}
	if len(body.Reports) == 0 {
		return 0, nil
	}
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req := httpx.NewRequest("POST", c.Host, PathReport)
	req.Header.Set("Content-Type", "application/json")
	req.Body = b
	resp, _, err := c.do(ctx, c.ReportDial, req)
	if err != nil {
		return 0, fmt.Errorf("globaldb: report: %w", err)
	}
	if resp.StatusCode != 200 {
		return 0, fmt.Errorf("globaldb: report: %d %s", resp.StatusCode, resp.Body)
	}
	var rr ReportResponse
	if err := json.Unmarshal(resp.Body, &rr); err != nil {
		return 0, err
	}
	return rr.Accepted, nil
}

// FetchBlocked downloads the blocked-URL list for an AS. Fetches are
// conditional: the client remembers the server's validator tag per AS and
// sends it as If-None-Match. A 304 answer reuses the cached entries; a
// delta-encoded 200 (DeltaHeader set) carries only the entries changed
// since the cached tag and is spliced into a copy of the cached list; a
// plain 200 replaces the cache — including downgrading the cached tag to ""
// when the serving store offers none (a failover to a tagless backend must
// not leave a stale tag that a later tagged backend could spuriously
// match). A delta the client cannot apply — undecodable, or taken against
// another tag — keeps the cached entries but drops their tag, so the next
// fetch asks for the full list rather than for the same delta again.
// Either body is decoded against the cached list (decodeList), whose URL
// strings and stage lists the new list shares.
//
// With a ListTable, a 200 that names the state the table holds for the
// answering endpoint adopts the table's list instead of decoding: a delta
// whose ETag is the table's tag, taken against a cached list from the same
// endpoint, or a full answer whose tag and bytes are the table's. The list
// is the one decodeList would have made — an endpoint's tag names one
// state, and decodeList is a pure function of the body and its base — and
// the counters move as they would have. A list the client does decode goes
// into the table, unless its ETag is empty or it is a delta spliced onto a
// list another endpoint served. The returned slice is the cache's own
// (what Lookup searches): callers must not mutate it or the Stages slices
// inside.
func (c *Client) FetchBlocked(ctx context.Context, asn int) ([]Entry, error) {
	c.mu.Lock()
	cached := c.cacheLocked(asn)
	c.mu.Unlock()
	var base []Entry
	var tag string
	if cached != nil {
		base, tag = cached.entries, cached.tag
	}
	req := httpx.NewRequest("GET", c.Host, PathFetch+"?asn="+strconv.Itoa(asn))
	if tag != "" {
		req.Header.Set("If-None-Match", tag)
	}
	resp, servedBy, err := c.do(ctx, c.FetchDial, req)
	if err != nil {
		return nil, fmt.Errorf("globaldb: fetch: %w", err)
	}
	if resp.StatusCode == 304 && cached != nil {
		c.counters.Add("fetch-304", 1)
		return base, nil
	}
	if resp.StatusCode != 200 {
		return nil, fmt.Errorf("globaldb: fetch: %d %s", resp.StatusCode, resp.Body)
	}
	delta := resp.Header.Get(DeltaHeader) == DeltaEncoding
	if delta && cached == nil {
		return nil, errors.New("globaldb: delta response without a cached base")
	}
	etag := resp.Header.Get("ETag")
	// The new list is servedBy's own state at etag if the answer is full, or
	// a delta onto a list that was servedBy's own state. A delta spliced
	// onto another endpoint's list is nobody's state: its cache names no
	// endpoint, and it is neither adopted nor shared.
	from := ""
	if !delta || cached.endpoint == servedBy {
		from = servedBy
	}
	share := c.Lists != nil && etag != "" && from != ""
	var shared sharedList
	if share {
		shared = c.Lists.get(from, asn)
	}
	if bc := shared.cache; bc != nil && bc.tag == etag {
		adopt := !delta && bytes.Equal(resp.Body, shared.body)
		if delta {
			since, ok := deltaSince(resp.Body)
			if ok && string(since) != tag {
				c.forgetTag(asn, cached)
				return nil, fmt.Errorf("globaldb: delta base %q, cached %q", since, tag)
			}
			adopt = ok
		}
		if adopt {
			c.storeList(asn, bc, len(resp.Body), delta)
			return bc.entries, nil
		}
	}
	l, err := decodeList(resp.Body, base, delta)
	if err == nil && delta && l.since != tag {
		err = fmt.Errorf("globaldb: delta base %q, cached %q", l.since, tag)
	}
	if err != nil {
		if delta {
			c.forgetTag(asn, cached)
		}
		return nil, err
	}
	// The tag and endpoint are substrings of answers (httpx makes one string
	// of a head); the cache outlives the exchange and keeps its own copies.
	bc := &blockedCache{tag: strings.Clone(etag), endpoint: strings.Clone(from), entries: l.entries}
	c.storeList(asn, bc, len(resp.Body), delta)
	if share {
		sl := sharedList{cache: bc}
		if !delta {
			sl.body = resp.Body
		}
		c.Lists.put(asn, sl)
	}
	return l.entries, nil
}

// forgetTag keeps the AS's cached entries without their tag, unless a
// concurrent fetch has replaced the cache since it was read.
func (c *Client) forgetTag(asn int, cached *blockedCache) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cacheLocked(asn) == cached {
		c.storeLocked(asn, &blockedCache{endpoint: cached.endpoint, entries: cached.entries})
	}
}

// Lookup returns the entry the AS's last fetched list holds for url. A failed
// refresh or a 304 leaves the list as it was, so a stale list keeps answering
// until a 200 replaces it.
func (c *Client) Lookup(asn int, url string) (Entry, bool) {
	entries := c.Blocked(asn)
	if i, ok := search(entries, url); ok {
		return entries[i], true
	}
	return Entry{}, false
}

// Blocked returns the AS's last fetched list (URL-sorted, read-only) without
// touching the network.
func (c *Client) Blocked(asn int) []Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if bc := c.cacheLocked(asn); bc != nil {
		return bc.entries
	}
	return nil
}

// asCache is one AS's cache. A client's ASes are its host's providers —
// one, or a few when multihomed — so they sit in a slice, not a map.
type asCache struct {
	asn int
	bc  *blockedCache
}

// cacheLocked is the AS's cache, nil if none. Caller holds c.mu.
func (c *Client) cacheLocked(asn int) *blockedCache {
	for _, e := range c.blocked {
		if e.asn == asn {
			return e.bc
		}
	}
	return nil
}

// storeLocked sets the AS's cache. Caller holds c.mu.
func (c *Client) storeLocked(asn int, bc *blockedCache) {
	for i := range c.blocked {
		if c.blocked[i].asn == asn {
			c.blocked[i].bc = bc
			return
		}
	}
	c.blocked = append(c.blocked, asCache{asn, bc})
}

// storeList replaces an AS's cache after a 200 answer. The cache always
// tracks the last answer — tag "" included — so a tag from one backend can
// never be replayed against another that has moved past it. bc's entries
// are URL-sorted, which Lookup and the next delta rest on: decodeList sorts
// a list that arrives out of order rather than mis-search it.
func (c *Client) storeList(asn int, bc *blockedCache, bodyLen int, delta bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.storeLocked(asn, bc)
	c.counters.Add("list-bytes", bodyLen)
	if delta {
		c.counters.Add("fetch-delta", 1)
	} else {
		c.counters.Add("fetch-full", 1)
	}
}

// FetchStats downloads the server's aggregate statistics.
func (c *Client) FetchStats(ctx context.Context) (Stats, error) {
	req := httpx.NewRequest("GET", c.Host, PathStats)
	resp, _, err := c.do(ctx, c.FetchDial, req)
	if err != nil {
		return Stats{}, err
	}
	var st Stats
	if err := json.Unmarshal(resp.Body, &st); err != nil {
		return Stats{}, err
	}
	return st, nil
}
