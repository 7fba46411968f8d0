package globaldb

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"
	"time"

	"csaw/internal/globaldb/storage"
	"csaw/internal/httpx"
	"csaw/internal/localdb"
	"csaw/internal/netem"
	"csaw/internal/vtime"
)

// CaptchaVerifier decides whether a registration's CAPTCHA token represents
// a solved challenge. The default accepts tokens with the "human-" prefix —
// the simulation stand-in for Google's risk-analysis API (§5) — so tests
// and experiments can model bots by sending anything else.
type CaptchaVerifier func(token string) bool

// DefaultCaptcha is the stand-in verifier.
func DefaultCaptcha(token string) bool { return strings.HasPrefix(token, "human-") }

// RegistrationRateLimit caps registrations per source IP per hour, the
// server's second line against fake-account floods.
const RegistrationRateLimit = 5

// Server is the global_DB + server_DB. Measurement state and the term
// lineage live in the store (store.go); the Server itself keeps only the HTTP
// surface, the registration rate limiter and the fence.
type Server struct {
	clock   *vtime.Clock
	captcha CaptchaVerifier
	faults  FaultPolicy
	store   *store
	fence   fenceState // write-rejecting mode + leader hint (see term.go)

	mu           sync.Mutex // guards the registration state below
	uuidSeq      uint64
	regByIP      map[string][]int64 // registration times per source IP, in Unix nanoseconds
	lastRegSweep time.Time
}

// NewServer creates an in-memory server: NewDurableServer with the zero
// StoreOptions, which cannot fail. A nil verifier selects DefaultCaptcha.
func NewServer(clock *vtime.Clock, captcha CaptchaVerifier) *Server {
	s, err := NewDurableServer(clock, captcha, StoreOptions{})
	if err != nil {
		panic(err) // unreachable: only opening o.Dir can fail
	}
	return s
}

// NewDurableServer creates a server whose store write-ahead-logs every
// mutation under o.Dir (see StoreOptions): kill it at any point and a new
// NewDurableServer over the same directory recovers the exact state —
// byte-identical /v1/blocked bodies, the same validator tags and the same
// term lineage. With o.Replicated it also serves the replication feed on
// PathRepl for followers (see the replica package). A recovered node
// restarts unfenced; if leadership moved on while it was down, the replica
// controller's reconciliation fences it.
func NewDurableServer(clock *vtime.Clock, captcha CaptchaVerifier, o StoreOptions) (*Server, error) {
	st, err := openStore(o)
	if err != nil {
		return nil, err
	}
	if captcha == nil {
		captcha = DefaultCaptcha
	}
	return &Server{
		clock:        clock,
		captcha:      captcha,
		store:        st,
		regByIP:      make(map[string][]int64),
		lastRegSweep: clock.Now(),
	}, nil
}

// Close flushes and closes the write-ahead log (if any), returning any
// latched durability error.
func (s *Server) Close() error { return s.store.close() }

// ReplicationFeed returns the replication stream when the server was built
// with StoreOptions.Replicated, else nil.
func (s *Server) ReplicationFeed() *storage.Feed { return s.store.feed }

// Faults exposes the server's fault-injection policy (experiments flip it
// at runtime to model outages and flaky paths).
func (s *Server) Faults() *FaultPolicy { return &s.faults }

// Attach starts serving the API on host:port over plain HTTP.
func (s *Server) Attach(host *netem.Host, port int) error {
	l, err := host.Listen(port)
	if err != nil {
		return err
	}
	httpx.Serve(l, s.Handler())
	return nil
}

// Handler returns the API as an httpx.Handler so it can also be mounted
// behind pseudo-TLS or a fronting CDN (§5: blocking access to the
// global_DB is countered by moving it).
func (s *Server) Handler() httpx.Handler {
	return httpx.HandlerFunc(func(req *httpx.Request, flow netem.Flow) *httpx.Response {
		if resp, fired := s.faults.intercept(req); fired {
			return resp // nil = say nothing; the client times out
		}
		path := req.Target
		if i := strings.IndexByte(path, '?'); i >= 0 {
			path = path[:i]
		}
		switch {
		case req.Method == "POST" && path == PathRegister:
			return s.handleRegister(req, flow)
		case req.Method == "POST" && path == PathReport:
			return s.handleReport(req)
		case req.Method == "POST" && path == PathReplPush:
			return s.handleReplPush(req)
		case req.Method == "GET" && path == PathFetch:
			return s.handleFetch(req)
		case req.Method == "GET" && path == PathRepl:
			return s.handleRepl(req)
		case req.Method == "GET" && path == PathStats:
			return jsonResponse(200, s.StatsSnapshot())
		default:
			return httpx.NewResponse(404, []byte("unknown endpoint"))
		}
	})
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

func (s *Server) handleRegister(req *httpx.Request, flow netem.Flow) *httpx.Response {
	if s.Fenced() {
		return s.fencedResponse()
	}
	if !s.captcha(req.Header.Get(CaptchaHeader)) {
		return httpx.NewResponse(403, []byte("captcha failed"))
	}
	srcIP := flow.Src.IP
	now := s.clock.Now()
	s.mu.Lock()
	s.sweepRegLocked(now)
	// Rate-limit registrations per source IP (sliding hour). The IP is used
	// only for this in-memory counter and never stored with measurements.
	recent := s.regByIP[srcIP][:0]
	for _, t := range s.regByIP[srcIP] {
		if withinHour(now, t) {
			recent = append(recent, t)
		}
	}
	if len(recent) >= RegistrationRateLimit {
		s.regByIP[srcIP] = recent
		s.mu.Unlock()
		return httpx.NewResponse(429, []byte("registration rate limit"))
	}
	s.regByIP[srcIP] = append(recent, now.UnixNano())

	// UUID: a cryptographic-hash-of-time identifier (§4.2). FNV suffices
	// for the simulation; the property used is uniqueness, not secrecy.
	s.uuidSeq++
	seq := s.uuidSeq
	s.mu.Unlock()

	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d", now.UnixNano(), seq)
	uuid := fmt.Sprintf("%016x", h.Sum64())
	if _, err := s.store.apply(&storage.Record{Kind: storage.KindAddUser, UUID: uuid}); err != nil {
		// Durability was lost, so the record was rejected: the UUID was never
		// stored, and acking it would hand the client a dead identity.
		return durabilityLost()
	}
	return jsonResponse(200, RegisterResponse{UUID: uuid})
}

// withinHour reports whether the registration at t, in Unix nanoseconds,
// is less than an hour before now.
func withinHour(now time.Time, t int64) bool { return now.UnixNano()-t < int64(time.Hour) }

// regSweepInterval bounds how often the full regByIP map is pruned.
const regSweepInterval = time.Hour

// sweepRegLocked drops source IPs whose registration timestamps have all
// aged out of the sliding rate-limit window. Without it, an IP that
// registers once and never again would keep its map entry forever — at the
// paper's millions-of-users scale that is an unbounded leak. Amortized to
// one O(#IPs) pass per regSweepInterval. Caller holds s.mu.
func (s *Server) sweepRegLocked(now time.Time) {
	if now.Sub(s.lastRegSweep) < regSweepInterval {
		return
	}
	s.lastRegSweep = now
	for ip, times := range s.regByIP {
		live := false
		for _, t := range times {
			if withinHour(now, t) {
				live = true
				break
			}
		}
		if !live {
			delete(s.regByIP, ip)
		}
	}
}

func (s *Server) handleReport(req *httpx.Request) *httpx.Response {
	if s.Fenced() {
		return s.fencedResponse()
	}
	body, err := decodeReport(req.Body)
	if err != nil {
		return httpx.NewResponse(400, []byte("bad json"))
	}
	accepted, err := s.store.apply(ingestRecord(body.UUID, s.clock.Now(), body.Reports))
	switch {
	case err != nil:
		return durabilityLost()
	case accepted == unknownUUID:
		return httpx.NewResponse(403, []byte("unknown or revoked uuid"))
	}
	return ackReport(accepted)
}

// ackReport is the 200 answer to a post, ReportResponse's encoding.
func ackReport(accepted int) *httpx.Response {
	b := strconv.AppendInt(append(make([]byte, 0, 24), `{"accepted":`...), int64(accepted), 10)
	resp := httpx.NewResponse(200, append(b, '}'))
	resp.Header.Set("Content-Type", "application/json")
	return resp
}

// durabilityLost is the answer to a mutation rejected because the store's
// log has failed.
func durabilityLost() *httpx.Response {
	return httpx.NewResponse(503, []byte("durability lost"))
}

func (s *Server) handleFetch(req *httpx.Request) *httpx.Response {
	asn, _ := strconv.Atoi(QueryParam(req.Target, "asn"))
	if asn == 0 {
		return httpx.NewResponse(400, []byte("missing asn"))
	}
	fr := s.store.fetchResponse(asn, req.Header.Get("If-None-Match"))
	if fr.notModified {
		resp := httpx.NewResponse(304, nil)
		resp.Header.Set("ETag", fr.tag)
		return resp
	}
	resp := httpx.NewResponse(200, fr.body)
	resp.Header.Set("Content-Type", "application/json")
	resp.Header.Set("ETag", fr.tag)
	if fr.delta {
		resp.Header.Set(DeltaHeader, DeltaEncoding)
	}
	return resp
}

// replMaxBytes caps one replication pull's payload when the follower does
// not ask for a bound.
const replMaxBytes = 1 << 20

// handleRepl serves a replication pull: framed WAL records starting at
// from, at most max bytes (at least one record when any is available). The
// follower's previous offset doubles as its acknowledgement — pulling from
// N means everything below N was applied — so lag tracking needs no extra
// round trip.
func (s *Server) handleRepl(req *httpx.Request) *httpx.Response {
	feed := s.ReplicationFeed()
	if feed == nil {
		return httpx.NewResponse(404, []byte("replication not enabled"))
	}
	if s.Fenced() {
		// A fenced node's stream is a stale lineage; pulling from it would
		// fork the follower. Send the puller to the leader instead.
		return s.fencedResponse()
	}
	from, err := strconv.ParseUint(QueryParam(req.Target, "from"), 10, 64)
	if err != nil {
		return httpx.NewResponse(400, []byte("bad from"))
	}
	maxBytes := replMaxBytes
	if m, err := strconv.Atoi(QueryParam(req.Target, "max")); err == nil && m > 0 {
		maxBytes = m
	}
	if follower := QueryParam(req.Target, "follower"); follower != "" {
		feed.Ack(follower, from)
	}
	data, next := feed.ReadFrom(from, maxBytes)
	term, leader, base := s.TermState()
	atTerm, atLeader := s.TermAt(from)
	resp := httpx.NewResponse(200, data)
	resp.Header.Set("Content-Type", "application/octet-stream")
	resp.Header.Set(ReplNextHeader, strconv.FormatUint(next, 10))
	resp.Header.Set(ReplHeadHeader, strconv.FormatUint(feed.Head(), 10))
	resp.Header.Set(TermHeader, strconv.FormatInt(term, 10))
	resp.Header.Set(LeaderHeader, leader)
	resp.Header.Set(ReplBaseHeader, strconv.FormatUint(base, 10))
	resp.Header.Set(ReplTermAtHeader, strconv.FormatInt(atTerm, 10))
	resp.Header.Set(ReplLeaderAtHeader, atLeader)
	return resp
}

// BlockedForAS aggregates the blocked-URL entries for an AS with voting
// statistics: s_jk = Σ 1/d_i over clients i reporting (j,k), n_jk = count.
// Copied from the per-AS view the write path maintains; see index.go.
func (s *Server) BlockedForAS(asn int) []Entry { return s.store.blockedForAS(asn) }

// Revoke invalidates a UUID (§5: revoking identified malicious users [54]).
// An error means the store's log has failed and rejected the revocation: it
// did not happen and must be retried once the node is healthy.
func (s *Server) Revoke(uuid string) error {
	_, err := s.store.apply(&storage.Record{Kind: storage.KindRevoke, UUID: uuid})
	return err
}

// StatsSnapshot aggregates the Table-7 numbers from current state.
func (s *Server) StatsSnapshot() Stats { return s.store.stats() }

// SetDeltaHistory raises the per-AS delta history cap — counted in marks,
// one per write that moved the AS's tag — above its default of 64.
// Population-scale drivers size it to the fleet so a client's tag from one
// sync round is still in the history a round later, keeping the converging
// phase on the delta path instead of full fetches.
func (s *Server) SetDeltaHistory(n int) { s.store.histMax.Store(int64(max(n, deltaHistoryMax))) }

// primaryClass maps stage lists to the Table-7 reporting classes. DNS
// evidence anywhere in the stages classifies the URL as DNS blocking —
// a block page reached through a DNS redirect is still DNS censorship.
func primaryClass(stages []WireStage) string {
	if len(stages) == 0 {
		return "unknown"
	}
	for _, s := range stages {
		if localdb.BlockType(s.Type) == localdb.BlockDNS {
			return "dns"
		}
	}
	first := localdb.BlockType(stages[0].Type)
	switch first {
	case localdb.BlockDNS:
		return "dns"
	case localdb.BlockTCPTimeout, localdb.BlockIP:
		return "tcp-timeout"
	case localdb.BlockHTTP:
		switch stages[0].Detail {
		case "blockpage", "blockpage-redirect":
			return "blockpage"
		case "rst":
			return "rst"
		default:
			return "http-no-response"
		}
	case localdb.BlockSNI:
		return "sni"
	default:
		return first.String()
	}
}
