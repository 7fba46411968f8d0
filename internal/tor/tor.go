// Package tor simulates the Tor overlay at the fidelity the paper's
// evaluation depends on: three-hop circuits (guard → middle → exit) built
// from a directory of relays with bandwidth-weighted selection [56], circuit
// rotation every 10 minutes (§2.3), per-circuit isolation for measurements,
// exit relays with geographic diversity (Figure 1b isolates PLT by exit
// location), remote name resolution at the exit, and bridges (unlisted
// entries) for blocking resistance. What is *not* simulated is onion
// cryptography: the emulated censor never inspects relay-port traffic, so
// layered encryption would exercise nothing (see DESIGN.md).
//
// Hop protocol: the client serializes the circuit as one routing line per
// hop; each relay consumes exactly its own line from the stream:
//
//	EXTEND <ip>:<port>\n   → dial the next relay and splice
//	EXIT <host>:<port>\n   → resolve host, dial the target, splice
//
// After its onward dial succeeds, each hop writes one '+' byte back toward
// the client before splicing; the client waits for one '+' per hop before
// handing the connection out. Those confirmations are what give circuits
// their real multi-round-trip setup cost (and make hop failures visible at
// dial time instead of as silent EOFs).
package tor

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	"csaw/internal/httpx"
	"csaw/internal/netem"
	"csaw/internal/proxynet"
	"csaw/internal/seedrand"
	"csaw/internal/vtime"
)

// RelayPort is the port relays listen on.
const RelayPort = 9001

// CircuitLifetime is how long a circuit is reused before rotation (§2.3:
// "usually every 10mins unless the circuit fails").
const CircuitLifetime = 10 * time.Minute

// Relay is a directory entry.
type Relay struct {
	Host      *netem.Host
	Bandwidth float64 // selection weight, as in Tor's consensus weights
	Guard     bool
	Exit      bool
	Bridge    bool // unlisted: absent from the public directory
}

// Addr returns the relay's dial address.
func (r *Relay) Addr() string { return fmt.Sprintf("%s:%d", r.Host.IP(), RelayPort) }

// Country returns the relay's location label, used to group measurements by
// exit location (Figure 1b).
func (r *Relay) Country() string { return r.Host.Loc() }

// Directory is the (simulated) Tor consensus.
type Directory struct {
	mu     sync.RWMutex
	relays []*Relay
	lookup proxynet.Lookup
	clock  *vtime.Clock
}

// NewDirectory creates a directory whose exits resolve names with lookup.
func NewDirectory(clock *vtime.Clock, lookup proxynet.Lookup) *Directory {
	if lookup == nil {
		lookup = proxynet.IPLookup
	}
	return &Directory{lookup: lookup, clock: clock}
}

// AddRelay registers a relay and starts its listener.
func (d *Directory) AddRelay(host *netem.Host, bandwidth float64, guard, exit, bridge bool) (*Relay, error) {
	r := &Relay{Host: host, Bandwidth: bandwidth, Guard: guard, Exit: exit, Bridge: bridge}
	l, err := host.Listen(RelayPort)
	if err != nil {
		return nil, err
	}
	l.Serve(func(conn net.Conn) { d.handleHop(r, conn) })
	d.mu.Lock()
	d.relays = append(d.relays, r)
	d.mu.Unlock()
	return r, nil
}

// PublicRelays returns non-bridge relays — what a censor can enumerate and
// blacklist (§8 "Tor exits can be easily blacklisted").
func (d *Directory) PublicRelays() []*Relay {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var out []*Relay
	for _, r := range d.relays {
		if !r.Bridge {
			out = append(out, r)
		}
	}
	return out
}

// Bridges returns the unlisted entries.
func (d *Directory) Bridges() []*Relay {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var out []*Relay
	for _, r := range d.relays {
		if r.Bridge {
			out = append(out, r)
		}
	}
	return out
}

func (d *Directory) handleHop(r *Relay, conn net.Conn) {
	br := httpx.GetReader(conn)
	defer httpx.PutReader(br) // after Exit, and with it the splice, has returned
	// One budget for the hop's setup: the routing line must arrive and the
	// onward dial complete within it; the splice that follows is unbound.
	ctx, cancel := d.clock.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	binding := netem.Bind(ctx, conn)
	line, err := br.ReadString('\n')
	binding.Release()
	if err != nil {
		conn.Close()
		return
	}
	// Both hop kinds end the same way — dial onward, confirm with '+',
	// splice — and an EXTEND target is a relay's IP literal, so the exit
	// lookup only ever runs for EXIT.
	line = strings.TrimSpace(line)
	target, ok := strings.CutPrefix(line, "EXTEND ")
	if !ok {
		target, ok = strings.CutPrefix(line, "EXIT ")
	}
	if !ok {
		conn.Close()
		return
	}
	if err := proxynet.Exit(ctx, r.Host, d.lookup, target, conn, br, "+"); err != nil {
		conn.Close() // no onward hop: the client sees EOF instead of '+'
	}
}

// Circuit is a built three-hop path.
type Circuit struct {
	Guard, Middle, Exit *Relay
	Built               time.Time
}

// String renders the circuit as guard→middle→exit countries.
func (c *Circuit) String() string {
	return fmt.Sprintf("%s→%s→%s(exit:%s)",
		c.Guard.Host.Name(), c.Middle.Host.Name(), c.Exit.Host.Name(), c.Exit.Country())
}

// Client builds circuits and dials through them.
type Client struct {
	host  *netem.Host
	dir   *Directory
	clock *vtime.Clock

	// UseBridge makes circuit building use bridges as entries — the
	// fallback once a censor blacklists public guard IPs.
	UseBridge bool

	mu      sync.Mutex
	rng     *rand.Rand
	current *Circuit
}

// NewClient creates a Tor client for host using the directory.
func NewClient(host *netem.Host, dir *Directory, seed int64) *Client {
	return &Client{host: host, dir: dir, clock: dir.clock, rng: seedrand.New(seed)}
}

// weightedPick selects a relay by bandwidth weight from candidates.
func (c *Client) weightedPick(candidates []*Relay) *Relay {
	total := 0.0
	for _, r := range candidates {
		total += r.Bandwidth
	}
	if total <= 0 || len(candidates) == 0 {
		return nil
	}
	x := c.rng.Float64() * total
	for _, r := range candidates {
		x -= r.Bandwidth
		if x <= 0 {
			return r
		}
	}
	return candidates[len(candidates)-1]
}

// NewCircuit builds a fresh circuit: a guard (or bridge), a middle, and an
// exit, all distinct, each picked with probability proportional to
// bandwidth.
func (c *Client) NewCircuit() (*Circuit, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.newCircuitLocked()
}

func (c *Client) newCircuitLocked() (*Circuit, error) {
	relays := c.dir.PublicRelays()
	var entries []*Relay
	if c.UseBridge {
		entries = c.dir.Bridges()
	} else {
		for _, r := range relays {
			if r.Guard {
				entries = append(entries, r)
			}
		}
	}
	guard := c.weightedPick(entries)
	if guard == nil {
		return nil, fmt.Errorf("tor: no usable entry relay (bridge=%v)", c.UseBridge)
	}
	var middles []*Relay
	for _, r := range relays {
		if r != guard {
			middles = append(middles, r)
		}
	}
	middle := c.weightedPick(middles)
	if middle == nil {
		return nil, fmt.Errorf("tor: no usable middle relay")
	}
	var exits []*Relay
	for _, r := range relays {
		if r.Exit && r != guard && r != middle {
			exits = append(exits, r)
		}
	}
	exit := c.weightedPick(exits)
	if exit == nil {
		return nil, fmt.Errorf("tor: no usable exit relay")
	}
	circ := &Circuit{Guard: guard, Middle: middle, Exit: exit, Built: c.clock.Now()}
	c.current = circ
	return circ, nil
}

// Circuit returns the current circuit, building or rotating as needed.
func (c *Client) Circuit() (*Circuit, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.current == nil || c.clock.Since(c.current.Built) > CircuitLifetime {
		return c.newCircuitLocked()
	}
	return c.current, nil
}

// Dial opens a connection to address ("host:port" or "ip:port") through the
// client's current circuit. Name resolution happens at the exit. On circuit
// failure the circuit is discarded and the error returned; the next Dial
// builds a fresh circuit.
func (c *Client) Dial(ctx context.Context, address string) (net.Conn, error) {
	circ, err := c.Circuit()
	if err != nil {
		return nil, err
	}
	conn, err := c.DialVia(ctx, circ, address)
	if err != nil {
		c.mu.Lock()
		if c.current == circ {
			c.current = nil // failed circuit: rebuild next time (§2.3)
		}
		c.mu.Unlock()
	}
	return conn, err
}

// DialVia opens a connection through a specific circuit — the per-circuit
// isolation used by Figure 1b and the separate-circuit redundancy of
// Figure 6a.
func (c *Client) DialVia(ctx context.Context, circ *Circuit, address string) (net.Conn, error) {
	conn, err := c.host.Dial(ctx, circ.Guard.Addr())
	if err != nil {
		return nil, fmt.Errorf("tor: guard %s: %w", circ.Guard.Host.Name(), err)
	}
	route := fmt.Appendf(nil, "EXTEND %s\nEXTEND %s\nEXIT %s\n", circ.Middle.Addr(), circ.Exit.Addr(), address)
	if _, err := netem.WriteOwned(conn, route); err != nil {
		conn.Close()
		return nil, err
	}
	// Wait for one '+' per hop (guard extend, middle extend, exit connect):
	// circuit setup is paid in round trips, as in real Tor.
	defer netem.Bind(ctx, conn).Release()
	acks := make([]byte, 3)
	if _, err := io.ReadFull(conn, acks); err != nil {
		conn.Close()
		return nil, fmt.Errorf("tor: circuit %s failed to establish: %w", circ, err)
	}
	for _, b := range acks {
		if b != '+' {
			conn.Close()
			return nil, fmt.Errorf("tor: bad circuit ack %q", acks)
		}
	}
	return conn, nil
}

// Dialer returns the client's DialFunc.
func (c *Client) Dialer() netem.DialFunc { return c.Dial }
