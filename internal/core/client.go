package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"csaw/internal/blockpage"
	"csaw/internal/detect"
	"csaw/internal/dnsx"
	"csaw/internal/globaldb"
	"csaw/internal/httpx"
	"csaw/internal/localdb"
	"csaw/internal/metrics"
	"csaw/internal/netem"
	"csaw/internal/trace"
	"csaw/internal/vtime"
)

// Preference is the user's configuration knob of §4.4: performance picks
// the cheapest working approach; anonymity restricts to anonymous ones.
type Preference int

// Preferences.
const (
	PreferPerformance Preference = iota
	PreferAnonymity
)

// Defaults for the tunable parameters the paper evaluates.
const (
	// DefaultP is the probability of re-measuring the direct path for a
	// globally-reported blocked URL (§4.3.1; Table 6 recommends p ≤ 0.25).
	DefaultP = 0.1
	// DefaultExploreEvery is n: every n-th access to a blocked URL uses a
	// randomly chosen approach to track improving approaches (§4.3.2).
	DefaultExploreEvery = 5
	// DefaultMaxConns bounds the proxy's concurrent upstream connections —
	// the client-load coupling behind Figure 5b/c and Table 6.
	DefaultMaxConns = 8
	// DefaultSyncInterval is the global-DB report/download period.
	DefaultSyncInterval = 5 * time.Minute
	// DefaultASNProbeInterval is the multihoming probe period (§4.4).
	DefaultASNProbeInterval = 2 * time.Minute
	// DefaultFailoverBudget bounds one FetchURL's walk down the failover
	// ladder (circumFetchVia): generous enough for the full worst case —
	// maxAttempts transport timeouts back to back — so it only cuts off
	// runaway fetches, never a ladder making progress. Tighten it per
	// scenario when a censor drops connections instead of resetting them.
	DefaultFailoverBudget = 4 * time.Minute
)

// Config assembles a C-Saw client.
type Config struct {
	Host  *netem.Host
	Clock *vtime.Clock
	// LDNS/GDNS are the ISP and public resolver addresses.
	LDNS []string
	GDNS []string
	// Approaches are the available circumvention methods.
	Approaches []*Approach
	// GlobalDB, when set, enables crowdsourcing: registration, periodic
	// reports, and blocked-list downloads. It is this client's alone: the
	// two count in one registry. CaptchaToken models the user's solved
	// CAPTCHA.
	GlobalDB     *globaldb.Client
	CaptchaToken string
	// ASNProbeAddr/Host point at the ASN-echo service for multihoming
	// detection; empty disables probing.
	ASNProbeAddr string
	ASNProbeHost string

	// P, ExploreEvery, MaxConns, SyncInterval default as above when zero.
	// TTL is the local_DB record lifetime. A negative SyncInterval disables
	// the background sync loop entirely (no goroutine, no ticker): the owner
	// drives synchronization explicitly via SyncNow, as the fleet driver
	// does for its 100k clients.
	P            float64
	PSet         bool // distinguishes P=0 (valid: trust global DB fully) from unset
	ExploreEvery int
	MaxConns     int
	SyncInterval time.Duration
	TTL          time.Duration

	// RedundantDelay staggers the circumvention copy behind the direct
	// request (Figure 5b/c "2 copies (with delay)"); if the direct response
	// lands within the delay, the copy is never sent.
	RedundantDelay time.Duration
	// Serial disables parallel redundancy: detect on the direct path first,
	// then circumvent (the Figure 5a baseline).
	Serial bool
	// NoSelectiveRedundancy issues redundant requests even for URLs known
	// unblocked — the ablation of §4.3.1's selective-redundancy tradeoff.
	NoSelectiveRedundancy bool
	// NoAggregate disables §4.4 URL aggregation (Figure 6b ablation).
	NoAggregate bool
	// NoMultihoming disables multihoming adaptation even when probing
	// detects it (ablation).
	NoMultihoming bool

	// Sync tunes the fault tolerance of the global-DB sync pipeline
	// (retry/backoff, report-queue bounds, circuit breaker). The zero value
	// selects the documented defaults.
	Sync SyncPolicy

	// Quarantine tunes approach quarantine-with-probation (see
	// QuarantinePolicy); the zero value selects the documented defaults,
	// Strikes < 0 disables it.
	Quarantine QuarantinePolicy

	// FailoverBudget is the total virtual time one fetch may spend walking
	// the circumvention failover ladder before giving up with whatever it
	// has. Zero selects DefaultFailoverBudget; negative disables the budget.
	FailoverBudget time.Duration

	// CensorEpoch, when set, is the stale-verdict oracle: the start of the
	// censor's current policy epoch. DB records measured before it describe
	// an adversary that no longer exists and are re-detected instead of
	// trusted (worldgen wires this to the ISP censor's EpochStart). In a
	// deployment this would be a coarse signal such as "blocking event
	// reported for this AS" from the global DB.
	CensorEpoch func() time.Time

	// DetectConnectTimeout / DetectHTTPTimeout override the detector's
	// virtual-time deadlines when positive. Fleet runs raise them so a
	// scheduler stall under O(10k) goroutines cannot turn a slow-but-alive
	// direct path into a spurious timeout verdict and desync same-seed runs.
	DetectConnectTimeout time.Duration
	DetectHTTPTimeout    time.Duration
	// DNSAttemptTimeout overrides the stub resolvers' per-attempt deadline
	// when positive — same rationale: a DNS query that times out reads as
	// DNS blocking, so fleet runs give it stall headroom.
	DNSAttemptTimeout time.Duration

	// Trace, when set, records a flight-recorder span for every (sampled)
	// FetchURL: per-lane protocol events and the PLT phase breakdown.
	Trace *trace.Tracer

	Pref Preference
	Seed int64
}

func (c *Config) p() float64 {
	if c.PSet || c.P > 0 {
		return c.P
	}
	return DefaultP
}

// Client is a running C-Saw client proxy. It holds only what is its own:
// the approaches and the block-page classifier it fetches and judges with
// are shared, and its tables are made when first written.
type Client struct {
	cfg  Config
	asns []int // the host's providers' AS numbers, primary first
	db   *localdb.DB
	det  detect.Detector // dials with the host's dial under sem
	ldns dnsx.Client
	gdns dnsx.Client

	// own maps each approach with a dialer of its own (Tor, Lantern) to
	// that dialer under the connection budget; nil without one.
	own map[*Approach]netem.DialFunc

	traceSeq atomic.Uint64 // per-client span sequence number

	sem chan struct{} // client connection-load budget

	mu         sync.Mutex
	rng        *rand.Rand // seeded from Config.Seed at its first draw
	ewma       map[ewmaKey]*metrics.EWMA
	access     map[string]int
	seenASNs   map[int]bool
	quar       map[string]*quarState // approach quarantine (see quarantine.go)
	multihomed bool

	// Sync circuit-breaker state (guarded by mu).
	syncDegraded  bool
	syncFails     int // consecutive failed rounds
	syncOpenUntil time.Time
	lastSyncErr   error

	// counters is the client's scope of the one registry it shares with
	// its global-DB client (whose own counts are that registry's unscoped
	// names).
	counters metrics.Scope

	bg      sync.WaitGroup  // in-flight background measurements/reports
	loops   sync.WaitGroup  // periodic sync and probe loops
	life    context.Context // ended by Close
	endLife context.CancelFunc
}

// New assembles a client from the config.
func New(cfg Config) (*Client, error) {
	if cfg.Host == nil || cfg.Clock == nil {
		return nil, fmt.Errorf("core: Host and Clock are required")
	}
	if len(cfg.LDNS) == 0 || len(cfg.GDNS) == 0 {
		return nil, fmt.Errorf("core: LDNS and GDNS resolvers are required")
	}
	maxConns := cfg.MaxConns
	if maxConns <= 0 {
		maxConns = DefaultMaxConns
	}
	c := &Client{
		cfg: cfg,
		db:  localdb.New(cfg.Clock, cfg.TTL, !cfg.NoAggregate),
		ldns: dnsx.Client{Dial: cfg.Host.Dial, Clock: cfg.Clock, Servers: cfg.LDNS,
			AttemptTimeout: cfg.DNSAttemptTimeout},
		gdns: dnsx.Client{Dial: cfg.Host.Dial, Clock: cfg.Clock, Servers: cfg.GDNS,
			AttemptTimeout: cfg.DNSAttemptTimeout},
		sem: make(chan struct{}, maxConns),
	}
	c.life, c.endLife = cfg.Clock.WithCancel(context.Background())
	for _, as := range cfg.Host.ASes() {
		c.asns = append(c.asns, as.Number)
	}
	registry := new(metrics.Counters)
	if cfg.GlobalDB != nil {
		registry = cfg.GlobalDB.Counters()
	}
	c.counters = registry.In(clientScope)
	// Every connection the client opens — the detector's and every
	// approach's — draws from the same budget: that coupling is what makes
	// extra copies and direct-path re-measurement cost PLT at load
	// (Figure 5b/c, Table 6).
	c.det = detect.Detector{
		Clock:          cfg.Clock,
		Dial:           netem.LimitDial(cfg.Host.Dial, c.sem),
		LDNS:           &c.ldns,
		GDNS:           &c.gdns,
		Classifier:     blockpage.Shared(),
		ConnectTimeout: cfg.DetectConnectTimeout,
		HTTPTimeout:    cfg.DetectHTTPTimeout,
	}
	for _, a := range cfg.Approaches {
		if a.Transport != nil && a.Transport.Dialer != nil {
			if c.own == nil {
				c.own = make(map[*Approach]netem.DialFunc)
			}
			c.own[a] = netem.LimitDial(a.Transport.Dialer, c.sem)
		}
	}
	return c, nil
}

// roundTrip sends req through approach a with the client's own parts: its
// host's dial (or the approach's own dialer), under the connection budget,
// and the resolver the approach names.
func (c *Client) roundTrip(ctx context.Context, a *Approach, req *httpx.Request) (*httpx.Response, error) {
	dial := c.det.Dial
	if own, ok := c.own[a]; ok {
		dial = own
	}
	lookup := a.Transport.Lookup
	if lookup == nil {
		switch a.Resolve {
		case ResolveGlobal:
			lookup = c.lookupGlobal
		case ResolveLocalThenGlobal:
			lookup = c.lookupLocalThenGlobal
		}
	}
	return a.Transport.RoundTripWith(ctx, req, dial, lookup)
}

func (c *Client) lookupGlobal(ctx context.Context, host string) (string, error) {
	return lookupGlobal(ctx, &c.gdns, host)
}

func (c *Client) lookupLocalThenGlobal(ctx context.Context, host string) (string, error) {
	return lookupLocalThenGlobal(ctx, &c.ldns, &c.gdns, host)
}

// DB exposes the local database (read-mostly, for experiments and tools).
func (c *Client) DB() *localdb.DB { return c.db }

// Clock returns the client's clock.
func (c *Client) Clock() *vtime.Clock { return c.cfg.Clock }

// Detector returns the client's direct-path detector.
func (c *Client) Detector() *detect.Detector { return &c.det }

// ASN returns the client's (primary) AS number.
func (c *Client) ASN() int { return c.asns[0] }

// clientScope is the client's scope of the counters registry it shares
// with its global-DB client.
const clientScope = 1

// gdbPrefix names the global-DB client's counts in the client's own: its
// "fetch-304" is the client's "gdb-fetch-304".
const gdbPrefix = "gdb-"

// Counter returns a named event count ("served-direct", "served-circum",
// "phase2-confirm", "gdb-fetch-304", ...): one entry of CountersSnapshot.
func (c *Client) Counter(name string) int {
	if rest, ok := strings.CutPrefix(name, gdbPrefix); ok {
		return c.gdbCounters().Get(rest)
	}
	return c.counters.Get(name)
}

// CountersSnapshot returns every nonzero event count. The global-DB
// client's counts ride along under "gdb-" names, so fleet summaries account
// full vs delta vs 304 syncs, list bytes, replica failovers and leader
// chases without reaching into the client.
func (c *Client) CountersSnapshot() map[string]int {
	out := c.counters.Snapshot()
	for k, v := range c.gdbCounters().Snapshot() {
		out[gdbPrefix+k] = v
	}
	return out
}

// gdbCounters is the global-DB client's registry, nil without one.
func (c *Client) gdbCounters() *metrics.Counters {
	if c.cfg.GlobalDB == nil {
		return nil
	}
	return c.cfg.GlobalDB.Counters()
}

func (c *Client) failoverBudget() time.Duration {
	if c.cfg.FailoverBudget != 0 {
		return c.cfg.FailoverBudget
	}
	return DefaultFailoverBudget
}

// stopCtx derives a context that also ends, with context.Canceled, when
// the client shuts down, so background measurements never outlive Close.
// On the event clock it sits on the lists of parent and of the client's
// life context and costs no goroutine. The returned cancel must be called:
// it unlinks the context from both.
func (c *Client) stopCtx(parent context.Context) (context.Context, context.CancelFunc) {
	return c.cfg.Clock.WithStop(parent, c.life)
}

// Close stops background work: it ends the client's life context, which
// ends every stopCtx and the sync and probe loops, and then waits for them.
func (c *Client) Close() {
	c.endLife()
	c.loops.Wait()
	c.bg.Wait()
}

// WaitIdle blocks until background measurements and reports finish —
// deterministic test and experiment checkpoints.
func (c *Client) WaitIdle() { c.bg.Wait() }

// Multihomed reports whether probing has concluded the client is
// multihomed.
func (c *Client) Multihomed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.multihomed
}
