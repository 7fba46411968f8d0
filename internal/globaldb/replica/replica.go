// Package replica implements asynchronous replication for the global DB
// (§5: blocking access to the global_DB is countered by moving it — here,
// by running several of it). A replica set (NewSet) is N copies of one kind
// of node: each runs its own durable, feed-enabled globaldb.Server on its own
// emulated host, and exactly one of them — the founding primary until a
// promotion says otherwise — leads. Every other node pulls the leader's
// framed WAL records over plain HTTP (GET /v1/repl) and applies them in
// order. Because the log records mutation requests and both sides apply
// them through the same store path, a caught-up follower converges to the
// leader's exact state — including the validator tags behind conditional
// fetches, so a client failing over mid-sync keeps its delta chain.
//
// Replication is pull-based and carries the follower's acknowledgement for
// free: pulling from sequence N acks everything below N, and the leader's
// feed stats report per-follower lag without extra round trips.
//
// Every node fronts the full client API (Handler): reads are served from
// its local store; a follower forwards writes (registration, reports) to
// the leader, which remains the single writer. Forwarding means the
// leader's registration rate limiter sees the follower's IP as the source
// for forwarded registrations — fine for the emulated scenarios, where
// clients register before any failover, but a real deployment would
// propagate the original source.
//
// Whether a set heals itself is a matter of how it is pumped, not how it is
// built: Set.SyncAll only drains followers to the leader's head, so nothing
// ever elects; Set.Tick runs each node's promotion controller (promote.go).
package replica

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"csaw/internal/globaldb"
	"csaw/internal/globaldb/storage"
	"csaw/internal/httpx"
	"csaw/internal/netem"
	"csaw/internal/trace"
	"csaw/internal/vtime"
)

// maxBatchBytes bounds one pull's (or push's) payload.
const maxBatchBytes = 1 << 20

// Peer names one other member of the replica set for election probes and
// leader reconciliation. Addr is the member's client-facing "ip:port".
type Peer struct {
	Name string
	Addr string
}

// Node is one member of a replica set, built by NewSet. It replicates its
// upstream's WAL stream into a local server, counts missed pulls, runs
// elections, can be promoted to leader, fences stale writers, and resyncs
// after demotion (see promote.go).
type Node struct {
	// Name identifies the node in its upstream's lag stats.
	Name string
	// Server is the local store the stream is applied into (and, via
	// Handler, the read side served to clients).
	Server *globaldb.Server
	// PrimaryAddr is the member the node pulls from and forwards to until a
	// leader change repoints it; PrimaryHost is the Host header of every
	// intra-set call; Dial is the node host's dialer.
	PrimaryAddr string
	PrimaryHost string
	Dial        netem.DialFunc
	Clock       *vtime.Clock
	// Timeout bounds each pull, probe and forward (virtual); default 30s.
	Timeout time.Duration
	// Trace, when set, records one span per pull on the "repl" lane.
	Trace *trace.Tracer

	// Self is this node's own client-facing "ip:port" (what a minted term's
	// leader hint points at).
	Self string
	// Peers lists the other replica-set members for election probes and
	// reconciliation.
	Peers []Peer
	// MissedThreshold is how many consecutive failed pulls declare the
	// leader dead and trigger an election; default 3.
	MissedThreshold int

	mu      sync.Mutex
	offset  uint64
	lastErr error
	seq     uint64

	// Promotion state, all guarded by mu.
	role     string // globaldb.RoleLeader or "" / RoleFollower
	primary  string // current upstream override; "" means PrimaryAddr
	missed   int    // consecutive failed pulls
	resync   bool   // a push-then-reset toward resyncTo is pending
	resyncTo string
	pushFrom uint64 // feed records below this are already held by the leader
}

// http is the client for every intra-set call the node makes.
func (n *Node) http() *httpx.Client {
	timeout := n.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	return &httpx.Client{Dial: n.Dial, Clock: n.Clock, Timeout: timeout}
}

// Offset returns the next sequence this follower will pull from (= records
// applied since attach).
func (n *Node) Offset() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.offset
}

// RoleName returns the node's current role.
func (n *Node) RoleName() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role == "" {
		return globaldb.RoleFollower
	}
	return n.role
}

// primaryAddr is the address the node currently pulls from and forwards to:
// the configured PrimaryAddr until a leader change repoints it.
func (n *Node) primaryAddr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.primary != "" {
		return n.primary
	}
	return n.PrimaryAddr
}

// Err returns the most recent pull error, cleared by a successful pull.
func (n *Node) Err() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.lastErr
}

func (n *Node) nextSeq() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.seq++
	return n.seq
}

// SyncOnce pulls one batch from the primary and applies it. caughtUp is
// true when the follower reached the head the primary reported in this
// pull's response.
func (n *Node) SyncOnce(ctx context.Context) (applied int, caughtUp bool, err error) {
	if n.Trace != nil {
		sp := n.Trace.Start(n.Name, n.nextSeq(), globaldb.PathRepl)
		defer func() {
			sp.EventNum("repl", "applied", "", float64(applied))
			status := "ok"
			if err != nil {
				status = "error"
			}
			sp.Finish("replica", status, err)
		}()
	}
	n.mu.Lock()
	from := n.offset
	n.mu.Unlock()
	target := fmt.Sprintf("%s?from=%d&follower=%s&max=%d", globaldb.PathRepl, from, n.Name, maxBatchBytes)
	req := httpx.NewRequest("GET", n.PrimaryHost, target)
	upstream := n.primaryAddr()
	resp, err := n.http().Do(ctx, upstream, req)
	if err != nil {
		return 0, false, n.fail(fmt.Errorf("replica: pull: %w", err))
	}
	if resp.StatusCode == globaldb.StatusFenced {
		// The node we pull from is no longer the leader. Adopt its hint so
		// the next pull lands on the current lineage.
		term, leader := int64(0), ""
		globaldb.ChaseLeader(resp, upstream, n.Self, 1, func(t int64, hint string) (*httpx.Response, error) {
			term, leader = t, hint
			n.adopt(t, hint)
			return nil, nil
		})
		return 0, false, n.fail(fmt.Errorf("replica: pull: primary fenced (term %d, leader %s)", term, leader))
	}
	if resp.StatusCode != 200 {
		return 0, false, n.fail(fmt.Errorf("replica: pull: %d %s", resp.StatusCode, resp.Body))
	}
	next, err := strconv.ParseUint(resp.Header.Get(globaldb.ReplNextHeader), 10, 64)
	if err != nil {
		return 0, false, n.fail(fmt.Errorf("replica: bad next header: %w", err))
	}
	head, err := strconv.ParseUint(resp.Header.Get(globaldb.ReplHeadHeader), 10, 64)
	if err != nil {
		return 0, false, n.fail(fmt.Errorf("replica: bad head header: %w", err))
	}
	if diverged := n.checkDivergence(resp, from, head); diverged != nil {
		return 0, false, n.fail(diverged)
	}
	if _, err := storage.Replay(bytes.NewReader(resp.Body), func(rec *storage.Record) error {
		if err := n.Server.Absorb(rec); err != nil {
			return err
		}
		applied++
		return nil
	}); err != nil {
		// A truncated or corrupt batch would desync the offset from what was
		// actually applied; refuse it rather than guessing.
		return applied, false, n.fail(fmt.Errorf("replica: batch at %d: %w", from+uint64(applied), err))
	}
	if uint64(applied) != next-from {
		return applied, false, n.fail(fmt.Errorf("replica: applied %d records, primary advanced %d", applied, next-from))
	}
	n.mu.Lock()
	n.offset = next
	n.lastErr = nil
	n.mu.Unlock()
	return applied, next >= head, nil
}

func (n *Node) fail(err error) error {
	n.mu.Lock()
	n.lastErr = err
	n.mu.Unlock()
	return err
}

// Handler fronts the full client API on the node. Replica-set control
// endpoints (status, demote) are answered here for every role. A leader
// serves everything from its local server. A follower serves GETs (list
// fetches, stats) from the local replica and forwards writes to the
// leader over the node's dialer, chasing one fencing hint so a write that
// lands mid-promotion still reaches the new leader.
func (n *Node) Handler() httpx.Handler {
	local := n.Server.Handler()
	return httpx.HandlerFunc(func(req *httpx.Request, flow netem.Flow) *httpx.Response {
		path := req.Target
		if i := strings.IndexByte(path, '?'); i >= 0 {
			path = path[:i]
		}
		switch {
		case req.Method == "GET" && path == globaldb.PathReplStatus:
			return jsonResponse(200, n.Status())
		case req.Method == "POST" && path == globaldb.PathReplDemote:
			return n.handleDemote(req)
		}
		if req.Method == "GET" || n.RoleName() == globaldb.RoleLeader {
			return local.ServeHTTP(req, flow)
		}
		return n.forward(req)
	})
}

// forward relays one write to the current primary. The incoming request's
// context bounds the upstream call: a client that hung up (or a closing
// server) cancels the forward instead of leaving it to run out its own
// timeout against an unreachable primary.
//
// Each hop appends its address to the write's Via header, and a node that
// finds itself there refuses the write: two followers that each believe
// the other leads (a restarted ex-primary and the node it was told to
// resync to) would otherwise relay one push back and forth until the first
// hop's timeout, with every hop still relaying after its caller gave up.
func (n *Node) forward(req *httpx.Request) *httpx.Response {
	via := req.Header.Get("Via")
	if slices.Contains(strings.Split(via, ", "), n.Self) {
		return httpx.NewResponse(502, []byte("primary unreachable: forwarding loop via "+via))
	}
	fwd := httpx.NewRequest(req.Method, n.PrimaryHost, req.Target)
	fwd.Header = slices.Clone(req.Header)
	if via != "" {
		via += ", "
	}
	fwd.Header.Set("Via", via+n.Self)
	fwd.Body = req.Body
	hc := n.http()
	upstream := n.primaryAddr()
	resp, err := hc.Do(req.Context(), upstream, fwd)
	if err != nil {
		return httpx.NewResponse(502, []byte("primary unreachable: "+err.Error()))
	}
	resp, _ = globaldb.ChaseLeader(resp, upstream, n.Self, 1, func(term int64, hint string) (*httpx.Response, error) {
		n.adopt(term, hint)
		return hc.Do(req.Context(), hint, fwd)
	})
	return resp
}
