package dnsx

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"csaw/internal/netem"
	"csaw/internal/trace"
	"csaw/internal/vtime"
)

// Stub resolver defaults, chosen to reproduce the detection-time profile of
// Table 5: a resolver that answers REFUSED fails in one RTT (~25 ms); one
// that answers SERVFAIL is retried on a full attempt budget (~10.6 s); one
// that drops queries burns attempts × AttemptTimeout (~10 s).
const (
	DefaultAttemptTimeout = 5 * time.Second
	attempts              = 2
)

// Client is a stub resolver. A zero AttemptTimeout takes the default above.
type Client struct {
	Dial           netem.DialFunc
	Clock          *vtime.Clock
	Servers        []string // resolver addresses, "ip:53", tried in order
	AttemptTimeout time.Duration
	// HoldOn, when positive, enables the Hold-On defense against on-path
	// DNS injection [31]: after the first answer arrives, keep listening
	// for up to this long; if a second answer for the same query shows up,
	// prefer it — the genuine response travels farther than the injector's
	// and lands later.
	HoldOn time.Duration
	// IDs, when set, is the sequence query ids are drawn from instead of
	// the client's own: an owner that builds a resolver per use keeps one
	// sequence across them.
	IDs *atomic.Uint32

	id atomic.Uint32
}

// NewClient builds a stub resolver for a host using the given resolver
// addresses.
func NewClient(host *netem.Host, servers ...string) *Client {
	return &Client{Dial: host.Dial, Clock: host.Network().Clock(), Servers: servers}
}

// Result is the outcome of a lookup.
type Result struct {
	Name   string
	IPs    []string
	RCode  int           // meaningful when Err == nil or errors.Is(Err, ErrRCode)
	Server string        // resolver that produced the final outcome
	Took   time.Duration // virtual time spent
	Err    error
}

// Errors produced by Lookup, distinguishable with errors.Is.
var (
	// ErrNoResponse means every attempt timed out with no answer at all —
	// the censor's query/response-drop case ("No DNS" in Figure 2).
	ErrNoResponse = errors.New("dnsx: no response")
	// ErrRCode means the resolver answered with a non-zero RCODE; Result.RCode
	// holds it.
	ErrRCode = errors.New("dnsx: resolver returned error rcode")
)

// OK reports whether the lookup yielded usable addresses.
func (r Result) OK() bool { return r.Err == nil && len(r.IPs) > 0 }

func (c *Client) attemptTimeout() time.Duration {
	if c.AttemptTimeout > 0 {
		return c.AttemptTimeout
	}
	return DefaultAttemptTimeout
}

// Lookup resolves name to A records using the client's retry policy.
func (c *Client) Lookup(ctx context.Context, name string) (res Result) {
	start := c.Clock.Now()
	res = Result{Name: CanonicalName(name)}
	defer func() { res.Took = c.Clock.Since(start) }()

	// Flight recorder: the whole lookup — including the dials to each
	// resolver — counts as the lane's DNS phase; each query attempt and its
	// verdict (rcode, answer, timeout) is an event. Details that cost a
	// string are built only when there is a lane to take them.
	lane := trace.FromContext(ctx)
	mark := lane.Begin(trace.PhaseDNS)
	defer mark.End()

	if len(c.Servers) == 0 {
		res.Err = fmt.Errorf("dnsx: no resolvers configured")
		return res
	}

	sawServfail := false
	for attempt := 0; attempt < attempts; attempt++ {
		for _, server := range c.Servers {
			attemptStart := c.Clock.Now()
			if lane != nil {
				lane.Event("dns", "query", res.Name+" @"+server)
			}
			msg, err := c.exchange(ctx, server, name)
			switch {
			case err == nil:
				res.Server = server
				res.RCode = msg.RCode
				lane.Event("dns", "rcode", RCodeName(msg.RCode))
				switch msg.RCode {
				case RCodeNoError:
					res.IPs = msg.AnswerIPs()
					if len(res.IPs) == 0 {
						res.Err = fmt.Errorf("%w: empty NOERROR answer", ErrRCode)
					} else if lane != nil {
						lane.Event("dns", "answer", strings.Join(res.IPs, ","))
					}
					return res
				case RCodeNXDomain, RCodeRefused:
					// Authoritative-style failures: no point retrying, which
					// is why REFUSED blocking is detected in ~one RTT.
					res.Err = fmt.Errorf("%w: %s", ErrRCode, RCodeName(msg.RCode))
					return res
				case RCodeServFail:
					// Possibly transient: hold on for the rest of the attempt
					// budget and retry, the behaviour that stretches SERVFAIL
					// blocking detection to ~10.6s.
					sawServfail = true
					spent := c.Clock.Since(attemptStart)
					if rest := c.attemptTimeout() - spent; rest > 0 {
						if c.Clock.SleepCtx(ctx, rest) != nil {
							res.Err = ctx.Err()
							return res
						}
					}
				default:
					res.Err = fmt.Errorf("%w: %s", ErrRCode, RCodeName(msg.RCode))
					return res
				}
			case ctx.Err() != nil:
				lane.Event("dns", "cancelled", server)
				res.Err = ctx.Err()
				return res
			default:
				// Timeout or transport failure: move to the next attempt.
				lane.Event("dns", "no-answer", server)
			}
		}
	}
	if sawServfail {
		res.RCode = RCodeServFail
		res.Err = fmt.Errorf("%w: %s after %d attempts", ErrRCode, RCodeName(RCodeServFail), attempts)
		return res
	}
	res.Err = fmt.Errorf("%w: %s after %d attempts", ErrNoResponse, res.Name, attempts)
	return res
}

// exchange performs one query/response round with one resolver.
func (c *Client) exchange(ctx context.Context, server, name string) (*Message, error) {
	actx, cancel := c.Clock.WithTimeout(ctx, c.attemptTimeout())
	defer cancel()
	conn, err := c.Dial(actx, server)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	defer netem.Bind(actx, conn).Release()

	ids := c.IDs
	if ids == nil {
		ids = &c.id
	}
	id := uint16(ids.Add(1))
	q := NewQuery(id, name)
	if err := WriteMessage(conn, q); err != nil {
		return nil, err
	}
	for {
		resp, err := ReadMessage(conn)
		if err != nil {
			return nil, err
		}
		if resp.ID != id || !resp.Response {
			continue // stray or spoofed-mismatch message; keep waiting
		}
		if c.HoldOn > 0 {
			if later := c.holdOn(actx, conn, id); later != nil {
				return later, nil
			}
		}
		return resp, nil
	}
}

// holdOn waits briefly for a second answer to the same query and returns
// it, or nil if none arrives — the injected answer always arrives first,
// so a conflicting later answer is the genuine one. The wait expires conn:
// the exchange is over either way.
func (c *Client) holdOn(ctx context.Context, conn net.Conn, id uint16) *Message {
	hctx, cancel := c.Clock.WithTimeout(ctx, c.HoldOn)
	defer cancel()
	defer netem.Bind(hctx, conn).Release()
	for {
		resp, err := ReadMessage(conn)
		if err != nil {
			return nil // silence: the first answer stands
		}
		if resp.ID == id && resp.Response {
			return resp
		}
	}
}
