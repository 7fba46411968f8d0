package globaldb

import (
	"bytes"
	"errors"
	"strconv"
	"strings"
	"sync"

	"csaw/internal/globaldb/storage"
	"csaw/internal/httpx"
)

// Term and fencing state. A term names one leadership lineage: it is minted
// by a promoted follower, persisted as a KindTerm record in the WAL/feed
// stream, and carried on replication pulls and fencing rejections.
//
// The two halves are deliberately independent:
//
//   - Lineage (term, leader, base) identifies the stream this node's state
//     was built from. It is part of the store's fold (store.marks): it comes
//     only from the record stream itself — a KindTerm record absorbed,
//     minted by StartTerm, or replayed at recovery — and a (term, leader)
//     pair names exactly one single-writer stream, so two nodes with equal
//     pairs hold prefixes of the same history. Divergence detection compares
//     lineages, never fence hints.
//   - Fencing (refusing writes and pointing at the believed leader) is pure
//     runtime state, kept here: a restarted node comes up unfenced and
//     relies on the replica controller's reconciliation to fence it again
//     if the world moved on. A fence hint must not touch the lineage, or a
//     follower pointed at a new leader would claim a history it never
//     pulled.
type fenceState struct {
	mu     sync.Mutex
	fenced bool
	term   int64  // highest term a fencer named
	leader string // client-facing address of that term's leader
}

// TermMark is one leadership change in a stream: from position Base onward
// (exclusive of the KindTerm record itself at index Base) the stream was
// written under Term by Leader.
type TermMark struct {
	Term   int64
	Leader string
	Base   uint64
}

// TermState returns the lineage the server's state was built under: the
// stream's highest term, the leader address that minted it, and the feed
// position of its term record. Term zero with an empty leader is the
// implicit founding lineage of a stream that predates any promotion.
func (s *Server) TermState() (term int64, leader string, base uint64) {
	return s.store.termState()
}

// TermAt returns the lineage in effect for the stream prefix [0, pos): the
// term and leader of the last KindTerm record strictly below pos. A
// follower whose own lineage equals the leader's lineage-at-its-offset
// holds a verbatim prefix of the leader's stream and can pull onward; any
// mismatch is a fork. Only meaningful on stores that keep their full
// history (replica sets never compact).
func (s *Server) TermAt(pos uint64) (term int64, leader string) {
	return s.store.termAt(pos)
}

// Fenced reports whether the server is currently rejecting writes.
func (s *Server) Fenced() bool {
	s.fence.mu.Lock()
	defer s.fence.mu.Unlock()
	return s.fence.fenced
}

// Fence puts the server in write-rejecting mode, directing writers at
// leader. Only the hint state changes — the lineage stays whatever the
// stream says. The hinted term ratchets up so a late, stale fence cannot
// downgrade the redirect target.
func (s *Server) Fence(term int64, leader string) {
	s.fence.mu.Lock()
	defer s.fence.mu.Unlock()
	s.fence.fenced = true
	if term > s.fence.term {
		s.fence.term, s.fence.leader = term, leader
	} else if term == s.fence.term && leader != "" {
		s.fence.leader = leader
	}
}

// StartTerm makes this server the writer for term, led from leader (its own
// client-facing address): the term enters the stream as a KindTerm record
// through apply like any mutation — the fold records where it begins — and
// the fence lifts. Only a promotion (or the initial wiring of a world) calls
// this.
func (s *Server) StartTerm(term int64, leader string) error {
	if _, err := s.store.apply(&storage.Record{Kind: storage.KindTerm, UUID: leader, Now: term}); err != nil {
		return err
	}
	s.fence.mu.Lock()
	s.fence.fenced = false
	s.fence.mu.Unlock()
	return nil
}

// Absorb logs, streams, and applies one replicated record exactly as
// received, so a follower's WAL and feed mirror its leader's stream frame
// for frame. An error means the record is not durable and must not be
// acknowledged.
func (s *Server) Absorb(rec *storage.Record) error {
	_, err := s.store.apply(rec)
	return err
}

// ResetForResync wipes the server's entire measurement state — WAL,
// snapshot, feed, in-memory aggregates, latched durability errors — so the
// node can replay a new leader's stream from sequence zero. The caller is
// responsible for having pushed any unreplicated suffix to the leader
// first; this method destroys it.
//
// The stream is empty again afterwards, so the lineage reverts to the
// founding state (the next pull re-derives it from the new leader's term
// records). Fencing is untouched — a resyncing node stays fenced toward its
// new leader.
func (s *Server) ResetForResync() error { return s.store.reset() }

// DurabilityErr returns the latched WAL error, nil for in-memory servers.
func (s *Server) DurabilityErr() error { return s.store.err() }

// InjectTornWrite arms the WAL torn-write fault hook: the next logged
// mutation writes only keep bytes of its frame and fails. Chaos schedules
// use it; reports whether a WAL was present to arm.
func (s *Server) InjectTornWrite(keep int) bool { return s.store.tearNext(keep) }

// fencedResponse is the StatusFenced rejection: no body the caller should
// parse, just the term and the leader hint to chase. The hint state (what
// the fencer told us) is preferred over the lineage — the whole point of a
// fence is that the stream this node holds is no longer the one to follow.
func (s *Server) fencedResponse() *httpx.Response {
	s.fence.mu.Lock()
	term, leader := s.fence.term, s.fence.leader
	s.fence.mu.Unlock()
	if leader == "" {
		term, leader, _ = s.TermState()
	}
	resp := httpx.NewResponse(StatusFenced, []byte("fenced: stale term"))
	resp.Header.Set(TermHeader, strconv.FormatInt(term, 10))
	if leader != "" {
		resp.Header.Set(LeaderHeader, leader)
	}
	return resp
}

// ChaseLeader is the one reader of a fencing answer. While resp is a
// StatusFenced rejection it reads the leader hint, stops at an empty hint or
// one naming at (the endpoint that just answered) or self (the chaser's own
// address; "" for a client), and hands the hinted term and leader to hop.
// hop repoints the caller and may re-issue the request there: a response
// continues the chase from the hinted endpoint, at most hops times; a nil
// response (nothing re-issued) or a transport error ends it and keeps the
// fenced answer, so the caller still sees an HTTP status, not a phantom
// outage. Returns the final answer and the endpoint that produced it.
func ChaseLeader(resp *httpx.Response, at, self string, hops int,
	hop func(term int64, leader string) (*httpx.Response, error)) (*httpx.Response, string) {
	for ; hops > 0 && resp.StatusCode == StatusFenced; hops-- {
		// Every hop keeps the hint (repointed node, last-served endpoint), so
		// it is copied out of the answer's head here.
		hint := strings.Clone(resp.Header.Get(LeaderHeader))
		if hint == "" || hint == at || hint == self {
			break
		}
		term, _ := strconv.ParseInt(resp.Header.Get(TermHeader), 10, 64)
		next, err := hop(term, hint)
		if err != nil || next == nil {
			break
		}
		resp, at = next, hint
	}
	return resp, at
}

// handleReplPush absorbs a pushed suffix of framed records from a demoted
// or diverged node. Term records are skipped — a stale lineage's leadership
// markers must not enter the current stream — and ingest dedup makes
// re-absorbing an already-pushed record a harmless no-op, so the pusher can
// retry after a lost acknowledgement.
func (s *Server) handleReplPush(req *httpx.Request) *httpx.Response {
	if s.Fenced() {
		return s.fencedResponse()
	}
	n := 0
	_, err := storage.Replay(bytes.NewReader(req.Body), func(rec *storage.Record) error {
		if rec.Kind == storage.KindTerm {
			return nil
		}
		if err := s.Absorb(rec); err != nil {
			return err
		}
		n++
		return nil
	})
	if err != nil {
		if errors.Is(err, storage.ErrCorrupt) {
			return httpx.NewResponse(400, []byte("bad push payload"))
		}
		return httpx.NewResponse(503, []byte(err.Error()))
	}
	return jsonResponse(200, ReplPushResponse{Absorbed: n})
}
