// Package netem emulates a wide-area network entirely in process.
//
// A Network holds hosts (addressed by IPv4-style strings), autonomous
// systems, and a latency model keyed by location labels. Hosts dial and
// listen with net.Conn/net.Listener-compatible types whose transfers incur
// propagation latency and bandwidth-limited serialization delay, nothing
// else: a path's delay is its RTT plus bytes over bandwidth, with no random
// term. Every connection egresses through the client's AS, whose
// Interceptor — the censor's hook — may pass, blackhole, or reset
// connections at connect time and may inspect and manipulate established
// streams (inject block pages, reset mid-flight, or silently discard),
// exactly the on-path powers §2.1 of the paper grants a censor.
//
// All timing is virtual (see internal/vtime), so protocol timeouts of tens
// of seconds execute in milliseconds during tests and benchmarks.
package netem

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"csaw/internal/seedrand"
	"csaw/internal/vtime"
)

// Network is the root of an emulated internet. It is safe for concurrent use.
type Network struct {
	clock *vtime.Clock

	mu    sync.RWMutex
	hosts map[string]*Host // keyed by IP
	ases  map[int]*AS
	rtts  map[locPair]time.Duration

	rngMu sync.Mutex
	rng   *rand.Rand

	bandwidth float64 // virtual bytes per virtual second, per connection

	portMu   sync.Mutex
	nextPort int
}

type locPair struct{ a, b string }

// baseRTT is the RTT between two distinct locations that have no entry in
// the latency matrix.
const baseRTT = 120 * time.Millisecond

// Option configures a Network.
type Option func(*Network)

// WithBandwidth sets the per-connection bandwidth in virtual bytes/second.
func WithBandwidth(bytesPerSec float64) Option {
	return func(n *Network) { n.bandwidth = bytesPerSec }
}

// WithSeed seeds the network's random source, which has one job: choosing
// the egress AS of each connection a multihomed host makes.
func WithSeed(seed int64) Option {
	return func(n *Network) { n.rng = seedrand.New(seed) }
}

// New creates an empty Network driven by the given clock.
func New(clock *vtime.Clock, opts ...Option) *Network {
	n := &Network{
		clock:     clock,
		hosts:     make(map[string]*Host),
		ases:      make(map[int]*AS),
		rtts:      make(map[locPair]time.Duration),
		rng:       seedrand.New(1),
		bandwidth: 1 << 20, // 1 MiB/s
		nextPort:  40000,
	}
	for _, o := range opts {
		o(n)
	}
	return n
}

// Clock returns the clock driving the network.
func (n *Network) Clock() *vtime.Clock { return n.clock }

// AddAS registers an autonomous system.
func (n *Network) AddAS(number int, name, country string) *AS {
	n.mu.Lock()
	defer n.mu.Unlock()
	if as, ok := n.ases[number]; ok {
		return as
	}
	as := &AS{Number: number, Name: name, Country: country, net: n,
		censorIP: "censor." + strconv.Itoa(number)}
	n.ases[number] = as
	return as
}

// AS returns the registered AS with the given number, or nil.
func (n *Network) AS(number int) *AS {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.ases[number]
}

// AddHost registers a host with one or more ASes (more than one makes the
// host multihomed: each new connection egresses via a uniformly random AS,
// the behaviour §4.4 of the paper calls out). The IP must be unique.
func (n *Network) AddHost(name, ip, loc string, ases ...*AS) (*Host, error) {
	if len(ases) == 0 {
		return nil, fmt.Errorf("netem: host %s needs at least one AS", name)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.hosts[ip]; dup {
		return nil, fmt.Errorf("netem: duplicate IP %s", ip)
	}
	h := &Host{
		name: name,
		ip:   ip,
		loc:  loc,
		ases: append([]*AS(nil), ases...),
		net:  n,
	}
	n.hosts[ip] = h
	return h, nil
}

// MustAddHost is AddHost that panics on error, for world construction code.
func (n *Network) MustAddHost(name, ip, loc string, ases ...*AS) *Host {
	h, err := n.AddHost(name, ip, loc, ases...)
	if err != nil {
		panic(err)
	}
	return h
}

// CloseListeners closes every listener on every host of the network:
// later dials to them are refused, and an Accept waiting on one returns.
// Connections already accepted are left alone.
func (n *Network) CloseListeners() {
	n.mu.RLock()
	defer n.mu.RUnlock()
	for _, h := range n.hosts {
		h.lmu.Lock()
		for _, l := range h.listeners {
			l.stop()
		}
		clear(h.listeners)
		h.lmu.Unlock()
	}
}

// HostByIP returns the host owning ip, or nil.
func (n *Network) HostByIP(ip string) *Host {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.hosts[ip]
}

// SetRTT sets the round-trip time between two location labels (symmetric).
func (n *Network) SetRTT(locA, locB string, rtt time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rtts[locPair{locA, locB}] = rtt
	n.rtts[locPair{locB, locA}] = rtt
}

// RTT returns the round-trip time between two location labels. Same-location
// pairs get a small LAN latency; unknown pairs get the base RTT.
func (n *Network) RTT(locA, locB string) time.Duration {
	if locA == locB {
		return 2 * time.Millisecond
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	if rtt, ok := n.rtts[locPair{locA, locB}]; ok {
		return rtt
	}
	return baseRTT
}

// Ping measures one application-level round trip from host to the given IP
// without establishing a connection — the emulator's equivalent of an ICMP
// echo. It sleeps the path's RTT (so on the event clock it returns exactly
// that), and fails if the IP is not routable.
func (n *Network) Ping(from *Host, ip string) (time.Duration, error) {
	dst := n.HostByIP(ip)
	if dst == nil {
		return 0, &OpError{Op: "ping", Addr: ip, Err: ErrNoRoute}
	}
	start := n.clock.Now()
	n.clock.Sleep(n.RTT(from.loc, dst.loc))
	return n.clock.Since(start), nil
}

// ephemeralPort allocates a unique client-side port.
func (n *Network) ephemeralPort() int {
	n.portMu.Lock()
	defer n.portMu.Unlock()
	p := n.nextPort
	n.nextPort++
	if n.nextPort > 65000 {
		n.nextPort = 40000
	}
	return p
}

// pick returns a uniformly random int in [0, n) using the network RNG.
func (n *Network) pick(m int) int {
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	return n.rng.Intn(m)
}

// AS is an autonomous system. Its Interceptor, if set, is the censor
// attached to the AS's egress.
type AS struct {
	Number  int
	Name    string
	Country string

	net      *Network
	censorIP string // the interceptor's end of an intercepted stream: "censor.<Number>"

	mu          sync.RWMutex
	interceptor Interceptor
}

// SetInterceptor installs (or, with nil, removes) the egress interceptor.
// Policies may be swapped at runtime; in-flight connections keep the
// interceptor they were established with.
func (a *AS) SetInterceptor(i Interceptor) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.interceptor = i
}

// Interceptor returns the currently installed interceptor, or nil.
func (a *AS) Interceptor() Interceptor {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.interceptor
}

// Host is an endpoint on the network.
type Host struct {
	name string
	ip   string
	loc  string
	ases []*AS
	net  *Network

	lmu       sync.Mutex
	listeners map[int]*Listener // made at the first Listen: most hosts only dial
}

// Name returns the host's human-readable name.
func (h *Host) Name() string { return h.name }

// IP returns the host's address.
func (h *Host) IP() string { return h.ip }

// Loc returns the host's location label.
func (h *Host) Loc() string { return h.loc }

// Network returns the network the host belongs to.
func (h *Host) Network() *Network { return h.net }

// Multihomed reports whether the host egresses via more than one AS.
func (h *Host) Multihomed() bool { return len(h.ases) > 1 }

// ASes returns the host's providers.
func (h *Host) ASes() []*AS { return append([]*AS(nil), h.ases...) }

// NumASes returns how many providers the host has.
func (h *Host) NumASes() int { return len(h.ases) }

// ASNumber returns the AS number of the host's i-th provider, the primary
// first, without copying the providers as ASes does.
func (h *Host) ASNumber(i int) int { return h.ases[i].Number }

// egressAS picks the AS a new connection leaves through: the single provider
// for singly-homed hosts, a uniformly random one otherwise.
func (h *Host) egressAS() *AS {
	if len(h.ases) == 1 {
		return h.ases[0]
	}
	return h.ases[h.net.pick(len(h.ases))]
}
