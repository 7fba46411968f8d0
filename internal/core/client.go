package core

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"weak"

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
// the rest of its Config, the approaches and the block-page classifier it
// fetches and judges with are shared, its resolvers and detector are built
// where they are used, and its tables, connection budget and life context
// are made when first needed.
type Client struct {
	// cfg is shared by the clients built with alike configs (see share);
	// the fields that are each client's own are zero in it and kept below.
	cfg     *Config
	host    *netem.Host
	ldns    []string
	gdb     *globaldb.Client
	captcha string
	seed    int64

	db *localdb.DB
	// dial is the host's dial under the connection budget, and hostDial
	// the host's dial, which the resolvers query on; own maps each approach
	// with a dialer of its own (Tor, Lantern) to that dialer under the same
	// budget, nil without one.
	dial     netem.DialFunc
	hostDial netem.DialFunc
	own      map[*Approach]netem.DialFunc
	// ldnsIDs and gdnsIDs are the two resolvers' query-id sequences: a
	// resolver is built per use, and the ids go on from the last one's.
	ldnsIDs, gdnsIDs atomic.Uint32

	traceSeq atomic.Uint64 // per-client span sequence number

	mu         sync.Mutex
	sem        chan struct{} // the connection budget, made at the first dial
	rng        *rand.Rand    // seeded from Config.Seed at its first draw
	sel        table         // the planner's selection state (see plan.go)
	seenASNs   map[int]bool
	multihomed bool
	closed     bool // Close has run: a life context made from now on is born ended

	// Sync circuit-breaker state (guarded by mu).
	syncDegraded  bool
	syncFails     int32 // consecutive failed rounds; with the flags, one word
	syncOpenUntil int64 // the open breaker's half-open time, in Unix nanoseconds
	lastSyncErr   error

	// counters is the client's scope of the one registry it shares with
	// its global-DB client (whose own counts are that registry's unscoped
	// names).
	counters metrics.Scope

	bg    sync.WaitGroup // in-flight background measurements/reports
	loops sync.WaitGroup // periodic sync and probe loops
	// life is ended by Close; it is made at the first stopCtx or loop start
	// (guarded by mu).
	life    context.Context
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
	if len(cfg.Approaches) > maxApproaches {
		return nil, fmt.Errorf("core: %d approaches, at most %d", len(cfg.Approaches), maxApproaches)
	}
	c := &Client{
		host:    cfg.Host,
		ldns:    cfg.LDNS,
		gdb:     cfg.GlobalDB,
		captcha: cfg.CaptchaToken,
		seed:    cfg.Seed,
		db:      localdb.New(cfg.Clock, cfg.TTL, !cfg.NoAggregate),
	}
	common := cfg
	common.Host, common.LDNS, common.GlobalDB, common.CaptchaToken, common.Seed = nil, nil, nil, "", 0
	c.cfg = share(common)
	registry := new(metrics.Counters)
	if cfg.GlobalDB != nil {
		registry = cfg.GlobalDB.Counters()
	}
	c.counters = registry.In(clientScope)
	// Every connection the client opens — the detector's and every
	// approach's — draws from the same budget: that coupling is what makes
	// extra copies and direct-path re-measurement cost PLT at load
	// (Figure 5b/c, Table 6).
	c.dial, c.hostDial = c.budgetDial, cfg.Host.Dial
	for _, a := range cfg.Approaches {
		if a.Transport != nil && a.Transport.Dialer != nil {
			if c.own == nil {
				c.own = make(map[*Approach]netem.DialFunc)
			}
			dial := a.Transport.Dialer
			c.own[a] = func(ctx context.Context, address string) (net.Conn, error) {
				return netem.DialLimited(ctx, dial, c.slots(), address)
			}
		}
	}
	return c, nil
}

// shared holds the Config New shared last, weakly: the clients of a fleet,
// whose configs differ only in the fields each keeps of its own, hold one
// copy of the rest, and a copy no client holds any longer is collected.
var shared struct {
	sync.Mutex
	last weak.Pointer[Config]
}

// share returns a Config equal to common for a client to hold: the one
// shared last when the two are alike, else common, which becomes the one
// shared last.
func share(common Config) *Config {
	shared.Lock()
	defer shared.Unlock()
	if last := shared.last.Value(); last != nil && alike(last, &common) {
		return last
	}
	shared.last = weak.Make(&common)
	return &common
}

// alike reports whether two configs are equal field by field: slices
// element by element, and funcs only when both are nil, since two funcs
// cannot be compared. Comparing by reflection covers any field Config
// gains.
func alike(a, b *Config) bool {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := range va.NumField() {
		fa, fb := va.Field(i), vb.Field(i)
		switch fa.Kind() {
		case reflect.Slice:
			if fa.Len() != fb.Len() {
				return false
			}
			for j := range fa.Len() {
				if !fa.Index(j).Equal(fb.Index(j)) {
					return false
				}
			}
		case reflect.Func:
			if !fa.IsNil() || !fb.IsNil() {
				return false
			}
		default:
			if !fa.Equal(fb) {
				return false
			}
		}
	}
	return true
}

// budgetDial is the host's dial under the client's connection budget.
func (c *Client) budgetDial(ctx context.Context, address string) (net.Conn, error) {
	return netem.DialLimited(ctx, c.hostDial, c.slots(), address)
}

// slots returns the connection budget, making it at the first dial.
func (c *Client) slots() chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sem == nil {
		n := c.cfg.MaxConns
		if n <= 0 {
			n = DefaultMaxConns
		}
		c.sem = make(chan struct{}, n)
	}
	return c.sem
}

// resolver builds a stub resolver on the host for servers that draws its
// query ids from ids, so that the resolvers built for one server list
// continue one sequence.
func (c *Client) resolver(servers []string, ids *atomic.Uint32) dnsx.Client {
	return dnsx.Client{Dial: c.hostDial, Clock: c.cfg.Clock, Servers: servers,
		AttemptTimeout: c.cfg.DNSAttemptTimeout, IDs: ids}
}

// resolvers is a detector's pair of stub resolvers.
type resolvers struct{ ldns, gdns dnsx.Client }

// resolverPairs recycles the detector's resolver pairs. A measurement
// borrows one for as long as it runs (Measure starts no goroutine), so a
// client holds none between measurements and a measurement allocates none.
var resolverPairs = sync.Pool{New: func() any { return new(resolvers) }}

// detector builds the client's direct-path detector on the resolver pair
// r, which it fills.
func (c *Client) detector(r *resolvers) detect.Detector {
	r.ldns, r.gdns = c.resolver(c.ldns, &c.ldnsIDs), c.resolver(c.cfg.GDNS, &c.gdnsIDs)
	return detect.Detector{
		Clock:          c.cfg.Clock,
		Dial:           c.dial,
		LDNS:           &r.ldns,
		GDNS:           &r.gdns,
		Classifier:     blockpage.Shared(),
		ConnectTimeout: c.cfg.DetectConnectTimeout,
		HTTPTimeout:    c.cfg.DetectHTTPTimeout,
	}
}

// measure runs the detector on url's direct path.
func (c *Client) measure(ctx context.Context, url string) detect.Outcome {
	r := resolverPairs.Get().(*resolvers)
	det := c.detector(r)
	out := det.Measure(ctx, url, detect.HTTP)
	*r = resolvers{} // hold nothing of the client's while pooled
	resolverPairs.Put(r)
	return out
}

// roundTrip sends req through approach a with the client's own parts: its
// host's dial (or the approach's own dialer), under the connection budget,
// and the resolver the approach names.
func (c *Client) roundTrip(ctx context.Context, a *Approach, req *httpx.Request) (*httpx.Response, error) {
	dial := c.dial
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
	gdns := c.resolver(c.cfg.GDNS, &c.gdnsIDs)
	return lookupGlobal(ctx, &gdns, host)
}

func (c *Client) lookupLocalThenGlobal(ctx context.Context, host string) (string, error) {
	ldns, gdns := c.resolver(c.ldns, &c.ldnsIDs), c.resolver(c.cfg.GDNS, &c.gdnsIDs)
	return lookupLocalThenGlobal(ctx, &ldns, &gdns, host)
}

// DB exposes the local database (read-mostly, for experiments and tools).
func (c *Client) DB() *localdb.DB { return c.db }

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
	if c.gdb == nil {
		return nil
	}
	return c.gdb.Counters()
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
	return c.cfg.Clock.WithStop(parent, c.lifeCtx())
}

// lifeCtx returns the client's life context, making it at the first call:
// a client that never starts background work never pays for one. Made
// after Close, it is born ended.
func (c *Client) lifeCtx() context.Context {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.life == nil {
		c.life, c.endLife = c.cfg.Clock.WithCancel(context.Background())
		if c.closed {
			c.endLife()
		}
	}
	return c.life
}

// Close stops background work: it ends the client's life context, which
// ends every stopCtx and the sync and probe loops, and then waits for them.
func (c *Client) Close() {
	c.mu.Lock()
	c.closed = true
	endLife := c.endLife
	c.mu.Unlock()
	if endLife != nil {
		endLife()
	}
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
