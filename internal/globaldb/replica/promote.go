package replica

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"

	"csaw/internal/globaldb"
	"csaw/internal/httpx"
)

// Promotion controller. Each replica-set node runs Step on the shared
// virtual-time cadence (Set.Tick). A follower pulls from its primary and
// counts consecutive failures; at MissedThreshold it runs an election by
// probing every peer's /v1/repl/status:
//
//   - If a reachable peer already claims leadership of a term at least as
//     new as the node's own view, the node adopts it (higher term first,
//     then smaller address — the deterministic resolution of a symmetric
//     double-election).
//   - Otherwise, if any reachable follower is more caught up (higher
//     applied offset; name as the deterministic tie-break), the node
//     defers and retries next tick.
//   - Otherwise the node promotes itself: it mints term max(seen)+1,
//     persists it as a KindTerm record through its own durable path, and
//     starts serving writes.
//
// A leader's Step reconciles instead: it probes peers, demotes any stale
// leader it finds, and demotes itself if it meets a newer term (or an
// equal term led from a smaller address). Demotion never discards state in
// place — the demoted node first pushes its entire feed to the winning
// leader (PathReplPush; duplicates are absorbed idempotently via the
// ingest dedup key, stale term records are filtered by the receiver), and
// only after the push is acknowledged does it wipe and re-pull the winner's
// stream from sequence zero. That ordering is what makes "no acked report
// lost" hold across arbitrary kill/partition schedules.
//
// The election is quorum-less by design: a fully partitioned node can
// promote itself, and two sides of a partition can both serve writes. The
// system trades linearizability for availability and repairs on heal —
// term comparison picks one lineage, every losing lineage pushes its
// records before resyncing, so convergence loses nothing that was acked.
// See DESIGN.md "Durability & the replica set" for the full argument.

const defaultMissedThreshold = 3

func (n *Node) missedThreshold() int {
	if n.MissedThreshold > 0 {
		return n.MissedThreshold
	}
	return defaultMissedThreshold
}

// Status reports this node for election probes and reconciliation.
func (n *Node) Status() globaldb.ReplStatus {
	term, _, base := n.Server.TermState()
	st := globaldb.ReplStatus{
		Name:   n.Name,
		Addr:   n.Self,
		Role:   n.RoleName(),
		Term:   term,
		Offset: n.Offset(),
		Base:   base,
	}
	if feed := n.Server.ReplicationFeed(); feed != nil {
		st.Head = feed.Head()
	}
	return st
}

// Step is one controller tick: reconcile when leading, otherwise resync if
// one is pending, otherwise pull and watch for a dead primary. It returns
// a description of the action taken, for traces and tests.
func (n *Node) Step(ctx context.Context) string {
	if n.RoleName() == globaldb.RoleLeader {
		return n.reconcile(ctx)
	}
	n.mu.Lock()
	pending := n.resync
	n.mu.Unlock()
	if pending {
		if err := n.doResync(ctx); err != nil {
			return "resync-error"
		}
		return "resynced"
	}
	// A ticked follower keeps its own server fenced toward the believed
	// leader so direct writes get a hint instead of forking state.
	if !n.Server.Fenced() {
		term, _, _ := n.Server.TermState()
		n.Server.Fence(term, n.primaryAddr())
	}
	_, _, err := n.SyncOnce(ctx)
	if err == nil {
		n.mu.Lock()
		n.missed = 0
		n.mu.Unlock()
		return "pulled"
	}
	n.mu.Lock()
	n.missed++
	missed := n.missed
	n.mu.Unlock()
	if missed < n.missedThreshold() {
		return "missed"
	}
	return n.elect(ctx)
}

// elect probes the peers and either adopts an existing leader, defers to a
// more caught-up follower, or promotes itself.
func (n *Node) elect(ctx context.Context) string {
	myTerm, _, _ := n.Server.TermState()
	myOff := n.Offset()
	maxTerm := myTerm
	var best *globaldb.ReplStatus // best reachable leader claim
	defer_ := false
	for _, p := range n.Peers {
		st, err := n.peerStatus(ctx, p)
		if err != nil {
			continue
		}
		if st.Term > maxTerm {
			maxTerm = st.Term
		}
		if st.Role == globaldb.RoleLeader && st.Term >= myTerm {
			if best == nil || st.Term > best.Term || (st.Term == best.Term && st.Addr < best.Addr) {
				s := st
				best = &s
			}
			continue
		}
		// A reachable same-lineage peer that is strictly more caught up (or
		// equally caught up with the smaller name) is the better candidate;
		// let it promote and adopt it next round. Offsets from a different
		// lineage number a different stream and are incomparable — deferring
		// to one can deadlock (the "ahead" peer may be happily following and
		// never promote), so cross-lineage candidates don't count.
		if st.Term == myTerm && (st.Offset > myOff || (st.Offset == myOff && st.Name < n.Name)) {
			defer_ = true
		}
	}
	if best != nil {
		n.Server.Fence(best.Term, best.Addr)
		n.mu.Lock()
		n.primary = best.Addr
		n.missed = 0
		n.mu.Unlock()
		return "adopted"
	}
	if defer_ {
		return "deferred"
	}
	newTerm := maxTerm + 1
	if err := n.Server.StartTerm(newTerm, n.Self); err != nil {
		return "promote-error"
	}
	n.mu.Lock()
	n.role = globaldb.RoleLeader
	n.primary = ""
	n.missed = 0
	n.mu.Unlock()
	return "promoted"
}

// reconcile is the leader's tick: find stale leaders and demote them, or
// discover that this node itself lost and self-demote.
func (n *Node) reconcile(ctx context.Context) string {
	myTerm, _, _ := n.Server.TermState()
	for _, p := range n.Peers {
		st, err := n.peerStatus(ctx, p)
		if err != nil || st.Role != globaldb.RoleLeader {
			continue
		}
		if st.Term > myTerm || (st.Term == myTerm && st.Addr < n.Self) {
			// The peer's lineage wins. Fence immediately so no further
			// writes land in the stale term, then push-and-resync.
			n.Server.Fence(st.Term, st.Addr)
			n.mu.Lock()
			n.role = globaldb.RoleFollower
			n.primary = st.Addr
			n.resync = true
			n.resyncTo = st.Addr
			n.pushFrom = 0
			n.missed = 0
			n.mu.Unlock()
			return "self-demoted"
		}
		if st.Term < myTerm || (st.Term == myTerm && st.Addr > n.Self) {
			n.demotePeer(ctx, st)
		}
	}
	return "reconciled"
}

// demotePeer tells a stale leader about this node's term. have is sent as
// zero — the conservative "push me everything" — because after repeated
// partitions the true shared prefix between two lineages is not locally
// computable, and under-pushing could lose acked records while over-pushing
// only costs bytes (duplicates are absorbed idempotently).
func (n *Node) demotePeer(ctx context.Context, st globaldb.ReplStatus) {
	myTerm, _, _ := n.Server.TermState()
	target := fmt.Sprintf("%s?term=%d&leader=%s&have=0", globaldb.PathReplDemote, myTerm, n.Self)
	req := httpx.NewRequest("POST", n.PrimaryHost, target)
	_, _ = n.http().Do(ctx, st.Addr, req) // best-effort: the peer's own probe converges it too
}

// handleDemote accepts a demotion: fence toward the new leader, remember
// the resync, and answer with this node's status. The response carries no
// records — the demoted node pushes its suffix itself (doResync), so a
// lost response cannot lose data.
func (n *Node) handleDemote(req *httpx.Request) *httpx.Response {
	term, err := strconv.ParseInt(globaldb.QueryParam(req.Target, "term"), 10, 64)
	if err != nil {
		return httpx.NewResponse(400, []byte("bad term"))
	}
	leader := globaldb.QueryParam(req.Target, "leader")
	if leader == "" {
		return httpx.NewResponse(400, []byte("missing leader"))
	}
	have, _ := strconv.ParseUint(globaldb.QueryParam(req.Target, "have"), 10, 64)
	myTerm, _, _ := n.Server.TermState()
	isLeader := n.RoleName() == globaldb.RoleLeader
	wins := term > myTerm || (term == myTerm && isLeader && leader < n.Self)
	if !wins {
		return jsonResponse(409, n.Status())
	}
	n.Server.Fence(term, leader)
	n.mu.Lock()
	n.role = globaldb.RoleFollower
	n.primary = leader
	n.resync = true
	n.resyncTo = leader
	n.pushFrom = have
	n.missed = 0
	n.mu.Unlock()
	return jsonResponse(200, n.Status())
}

// doResync is the losing lineage's repair: push the feed suffix the new
// leader may lack, then wipe local state and re-pull the winner's stream
// from sequence zero. Each failed step leaves the resync pending for the
// next tick; the push is re-entrant because absorbed duplicates are no-ops.
func (n *Node) doResync(ctx context.Context) error {
	n.mu.Lock()
	to := n.resyncTo
	from := n.pushFrom
	n.mu.Unlock()
	if feed := n.Server.ReplicationFeed(); feed != nil {
		hc := n.http()
		for from < feed.Head() {
			data, next := feed.ReadFrom(from, maxBatchBytes)
			if len(data) == 0 {
				break
			}
			req := httpx.NewRequest("POST", n.PrimaryHost, globaldb.PathReplPush)
			req.Header.Set("Content-Type", "application/octet-stream")
			req.Body = data
			resp, err := hc.Do(ctx, to, req)
			if err != nil {
				return n.fail(fmt.Errorf("replica: push: %w", err))
			}
			if resp.StatusCode == globaldb.StatusFenced {
				// The leader moved again; push to the hinted one next tick.
				globaldb.ChaseLeader(resp, to, n.Self, 1, func(_ int64, hint string) (*httpx.Response, error) {
					n.mu.Lock()
					n.resyncTo = hint
					n.primary = hint
					n.mu.Unlock()
					return nil, nil
				})
				return n.fail(fmt.Errorf("replica: push target fenced"))
			}
			if resp.StatusCode != 200 {
				return n.fail(fmt.Errorf("replica: push: %d %s", resp.StatusCode, resp.Body))
			}
			n.mu.Lock()
			n.pushFrom = next
			n.mu.Unlock()
			from = next
		}
	}
	if err := n.Server.ResetForResync(); err != nil {
		return n.fail(fmt.Errorf("replica: reset: %w", err))
	}
	n.mu.Lock()
	n.offset = 0
	n.resync = false
	n.pushFrom = 0
	n.primary = to
	n.lastErr = nil
	n.mu.Unlock()
	return nil
}

// adopt repoints the node at the leader a fencing rejection named.
func (n *Node) adopt(term int64, leader string) {
	n.Server.Fence(term, leader)
	n.mu.Lock()
	n.primary = leader
	n.mu.Unlock()
}

// checkDivergence decides, from a 200 pull response's lineage headers,
// whether this node's stream is a verbatim prefix of the upstream's.
//
// The upstream reports its current lineage term and — the decisive datum —
// the lineage in effect at our offset in ITS stream (ReplTermAtHeader /
// ReplLeaderAtHeader). A (term, leader) pair names exactly one
// single-writer history, so if our own lineage equals the upstream's
// lineage-at-our-offset and our offset is within its head, the two prefixes
// are byte-identical and pulling onward is safe; any new term records ahead
// are absorbed from the stream like every other record. Three things break
// that proof, each with its own response:
//
//   - The upstream's current term is OLDER than ours: it is a stale lineage
//     (a restarted ex-leader's stream outranks it). Applying its records
//     would fork us, so fail the pull and let the missed-pull counter drive
//     an election instead — the stale leader gets demoted, not adopted.
//   - Our offset lies past the upstream's head: our tail is longer than the
//     stream we are supposedly a prefix of (a dual-minted equal term after
//     a crash). Fork.
//   - The lineage at our offset differs from ours: the streams disagree
//     about who wrote the records we already hold. Fork.
//
// A fork schedules push-then-resync with pushFrom zero: after repeated
// partitions the true shared prefix of two lineages is not locally
// computable, and under-pushing could lose acked records, while over-
// pushing only costs bytes (the receiver absorbs duplicates idempotently
// and every replica applies the same duplicated stream).
func (n *Node) checkDivergence(resp *httpx.Response, from, head uint64) error {
	termHdr := resp.Header.Get(globaldb.TermHeader)
	if termHdr == "" {
		return nil
	}
	respTerm, err := strconv.ParseInt(termHdr, 10, 64)
	if err != nil {
		return nil
	}
	myTerm, myLeader, _ := n.Server.TermState()
	if respTerm < myTerm {
		return fmt.Errorf("replica: upstream on stale term %d (local lineage %d)", respTerm, myTerm)
	}
	atTerm, _ := strconv.ParseInt(resp.Header.Get(globaldb.ReplTermAtHeader), 10, 64)
	atLeader := resp.Header.Get(globaldb.ReplLeaderAtHeader)
	if from <= head && atTerm == myTerm && atLeader == myLeader {
		return nil
	}
	n.Server.Fence(respTerm, n.primaryAddr())
	n.mu.Lock()
	n.resync = true
	n.resyncTo = n.primary
	if n.resyncTo == "" {
		n.resyncTo = n.PrimaryAddr
	}
	n.pushFrom = 0
	n.mu.Unlock()
	return fmt.Errorf("replica: diverged from leader (lineage %d/%s at offset %d, local %d/%s)",
		atTerm, atLeader, from, myTerm, myLeader)
}

// peerStatus probes one peer's /v1/repl/status.
func (n *Node) peerStatus(ctx context.Context, p Peer) (globaldb.ReplStatus, error) {
	req := httpx.NewRequest("GET", n.PrimaryHost, globaldb.PathReplStatus)
	resp, err := n.http().Do(ctx, p.Addr, req)
	if err != nil {
		return globaldb.ReplStatus{}, err
	}
	if resp.StatusCode != 200 {
		return globaldb.ReplStatus{}, fmt.Errorf("replica: status: %d", resp.StatusCode)
	}
	var st globaldb.ReplStatus
	if err := json.Unmarshal(resp.Body, &st); err != nil {
		return globaldb.ReplStatus{}, err
	}
	return st, nil
}

func jsonResponse(code int, v any) *httpx.Response {
	b, err := json.Marshal(v)
	if err != nil {
		return httpx.NewResponse(500, []byte(err.Error()))
	}
	resp := httpx.NewResponse(code, b)
	resp.Header.Set("Content-Type", "application/json")
	return resp
}
