// Package globaldb implements C-Saw's crowdsourced measurement service: the
// global_DB plus the co-located server_DB of §4.2 and §5.
//
// Clients register by solving a (simulated) "No CAPTCHA reCAPTCHA" and
// receive a UUID — a hash of the server time, as in the paper — used for
// all future updates. They periodically post the blocked URLs they measured
// and download the blocked-URL list for their own AS. No IP addresses are
// stored (the paper's privacy constraint); abuse is limited by the CAPTCHA
// rate limit and by the §5 voting mechanism: each client holds one unit of
// vote spread evenly over the d blocked URLs it reports (v = 1/d), and per
// (URL, AS) the server exposes the vote sum s_jk and reporter count n_jk so
// consumers can discount low-confidence or spammy measurements.
package globaldb

import (
	"strings"
	"time"

	"csaw/internal/globaldb/storage"
	"csaw/internal/localdb"
)

// API paths.
const (
	PathRegister = "/v1/register"
	PathReport   = "/v1/report"
	PathFetch    = "/v1/blocked"
	PathStats    = "/v1/stats"
	// PathRepl is the replication pull endpoint served by durable primaries:
	// GET /v1/repl?from=N&follower=name&max=M returns framed WAL records
	// starting at sequence N (at most M bytes), recording name's ack at N.
	PathRepl = "/v1/repl"
	// PathReplStatus is served by every replica-set node (the replica layer
	// answers it, not the bare server): GET returns a ReplStatus describing
	// the node's role, term, and replication offsets. Election probes and
	// leader reconciliation are built on it.
	PathReplStatus = "/v1/repl/status"
	// PathReplDemote tells a stale leader a newer term exists:
	// POST /v1/repl/demote?term=T&leader=ADDR&have=N. The receiver fences
	// itself toward ADDR and schedules its own push-then-resync (the response
	// carries only a ReplStatus — a demoted node pushes its unreplicated
	// suffix itself, so a lost response cannot lose acked records). have=N
	// means the new leader already holds the first N records of the
	// receiver's stream.
	PathReplDemote = "/v1/repl/demote"
	// PathReplPush lets a demoted or diverged node hand the current leader
	// the feed suffix the leader never pulled: POST with a body of framed WAL
	// records. The leader absorbs them in order (skipping term records) and
	// acknowledges with the count; ingest dedup makes re-pushing after a lost
	// ack idempotent.
	PathReplPush = "/v1/repl/push"
)

// StatusFenced is the status a node returns for writes (and replication
// pulls) carrying a stale term: HTTP 421 Misdirected Request, with
// TermHeader and LeaderHeader naming the fencing term and where the current
// leader is believed to be. Clients and forwarders chase the hint.
const StatusFenced = 421

// CaptchaHeader carries the solved-CAPTCHA token on registration.
const CaptchaHeader = "X-Recaptcha-Token"

// DeltaHeader marks a 200 /v1/blocked response whose body is a
// DeltaResponse rather than a full FetchResponse. Its value is
// DeltaEncoding; clients that did not send If-None-Match never see it.
const (
	DeltaHeader   = "X-List-Encoding"
	DeltaEncoding = "delta"
)

// Replication response headers: the sequence the next pull should start at,
// and the primary's current head.
const (
	ReplNextHeader = "X-Repl-Next"
	ReplHeadHeader = "X-Repl-Head"
)

// Term headers. TermHeader carries the responding node's current lineage
// term on replication pulls and the fencing term on StatusFenced
// rejections; LeaderHeader carries the client-facing address of that term's
// leader. ReplBaseHeader rides pull responses with the feed position at
// which the current term began.
//
// ReplTermAtHeader / ReplLeaderAtHeader answer the puller's real question:
// which lineage was in effect at the offset it is pulling from, in the
// responder's stream. A (term, leader) pair names exactly one single-writer
// history, so a follower whose own lineage matches the responder's
// lineage-at-offset holds a verbatim prefix and can pull onward; any
// mismatch (or an offset past the responder's head) means the streams
// forked, and the follower must push its suffix and resync from zero.
const (
	TermHeader         = "X-Csaw-Term"
	LeaderHeader       = "X-Csaw-Leader"
	ReplBaseHeader     = "X-Repl-Base"
	ReplTermAtHeader   = "X-Repl-Term-At"
	ReplLeaderAtHeader = "X-Repl-Leader-At"
)

// Replica roles, as reported in ReplStatus.
const (
	RoleLeader   = "leader"
	RoleFollower = "follower"
)

// ReplStatus describes one replica-set node for election probes and leader
// reconciliation: who it is, what role it believes it holds, its current
// term, how much of the leader's stream it has applied (Offset), its own
// feed head (Head), and the feed position its current term began at (Base).
type ReplStatus struct {
	Name   string `json:"name"`
	Addr   string `json:"addr"`
	Role   string `json:"role"`
	Term   int64  `json:"term"`
	Offset uint64 `json:"offset"`
	Head   uint64 `json:"head"`
	Base   uint64 `json:"base"`
}

// ReplPushResponse acknowledges an absorbed push.
type ReplPushResponse struct {
	Absorbed int `json:"absorbed"`
}

// RegisterResponse returns the server-assigned UUID.
type RegisterResponse struct {
	UUID string `json:"uuid"`
}

// WireStage mirrors localdb.Stage for transport. It is the record stream's
// stage type, so a posted report's stages enter the log as they arrived.
type WireStage = storage.Stage

// Report is one blocked-URL measurement posted by a client. Only blocked
// URLs are reported (§3: updates include information about blocked URLs
// only).
type Report struct {
	URL    string      `json:"url"`
	ASN    int         `json:"asn"`
	Stages []WireStage `json:"stages"`
	Tm     time.Time   `json:"tm"` // when the client measured it
}

// ReportRequest is a batch of reports from one client.
type ReportRequest struct {
	UUID    string   `json:"uuid"`
	Reports []Report `json:"reports"`
}

// ReportResponse acknowledges accepted reports.
type ReportResponse struct {
	Accepted int `json:"accepted"`
}

// Entry is one aggregated blocked-URL record served to clients of an AS,
// with the §5 confidence statistics.
type Entry struct {
	URL       string      `json:"url"`
	ASN       int         `json:"asn"`
	Stages    []WireStage `json:"stages"`
	LastTp    time.Time   `json:"last_tp"` // most recent post time
	Votes     float64     `json:"s"`       // s_jk
	Reporters int         `json:"n"`       // n_jk
}

// FetchResponse is the per-AS blocked list.
type FetchResponse struct {
	ASN     int     `json:"asn"`
	Entries []Entry `json:"entries"`
}

// DeltaResponse is the versioned delta served to a conditional fetch whose
// If-None-Match tag is stale but still within the server's mark history:
// only the entries changed since the state named by Since, plus the URLs
// removed from the list. Applying it to the cached list for Since yields
// exactly the server's current full list.
type DeltaResponse struct {
	ASN     int      `json:"asn"`
	Since   string   `json:"since"`
	Changed []Entry  `json:"changed,omitempty"`
	Removed []string `json:"removed,omitempty"`
}

// Stats aggregates the deployment-level numbers reported in Table 7.
type Stats struct {
	Users          int            `json:"users"`
	BlockedURLs    int            `json:"blocked_urls"`
	BlockedDomains int            `json:"blocked_domains"`
	ASes           int            `json:"ases"`
	BlockTypes     int            `json:"block_types"`
	ByType         map[string]int `json:"by_type"` // URLs per primary mechanism
	Updates        int            `json:"updates"`
}

// QueryParam extracts one query parameter from a request target, or "".
// Keys match whole, at a '?' or '&' boundary: "asn" never matches "basn=5".
func QueryParam(target, key string) string {
	_, query, _ := strings.Cut(target, "?")
	for query != "" {
		var kv string
		kv, query, _ = strings.Cut(query, "&")
		if k, v, ok := strings.Cut(kv, "="); ok && k == key {
			return v
		}
	}
	return ""
}

// ToWire converts localdb stages for transport.
func ToWire(stages []localdb.Stage) []WireStage {
	out := make([]WireStage, len(stages))
	for i, s := range stages {
		out[i] = WireStage{Type: int(s.Type), Detail: s.Detail}
	}
	return out
}

// FromWire converts transport stages back to localdb stages.
func FromWire(stages []WireStage) []localdb.Stage {
	out := make([]localdb.Stage, len(stages))
	for i, s := range stages {
		out[i] = localdb.Stage{Type: localdb.BlockType(s.Type), Detail: s.Detail}
	}
	return out
}

// TrustFilter is the client-side confidence rule of §5: distrust entries
// with too few reporters, and entries whose vote sum is small relative to
// their reporter count (many reports per user — the spammer signature).
type TrustFilter struct {
	// MinReporters is the minimum n_jk (default 1).
	MinReporters int
	// MinAvgVote is the minimum s_jk/n_jk (default 0.02, i.e. distrust
	// clients spraying votes over 50+ URLs).
	MinAvgVote float64
}

// Trusted applies the filter.
func (f TrustFilter) Trusted(e Entry) bool {
	minN := f.MinReporters
	if minN <= 0 {
		minN = 1
	}
	minAvg := f.MinAvgVote
	if minAvg <= 0 {
		minAvg = 0.02
	}
	if e.Reporters < minN {
		return false
	}
	return e.Votes/float64(e.Reporters) >= minAvg
}
