// Package lantern simulates Lantern (§2.2): a network of HTTPS forward
// proxies discovered through *trust relationships* rather than proximity.
// Unlike Tor it uses a single relay hop and provides no anonymity, trading
// that for availability — and because proxy choice follows the trust graph
// instead of latency, "traffic can go through longer paths compared to the
// direct approach" (§2.3, Figure 1c), which is exactly the performance
// shape the evaluation measures.
package lantern

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"

	"csaw/internal/netem"
	"csaw/internal/proxynet"
)

// ProxyPort is the port Lantern proxies listen on. It is intentionally not
// 80/443: Lantern tunnels look like ordinary TLS to an unremarkable host.
const ProxyPort = 8443

// Proxy is one volunteer-run Lantern proxy.
type Proxy struct {
	Owner string // user who runs it
	Host  *netem.Host
	srv   *proxynet.Server
}

// Addr returns the proxy's dial address.
func (p *Proxy) Addr() string { return fmt.Sprintf("%s:%d", p.Host.IP(), ProxyPort) }

// Network is the Lantern trust graph plus the proxies users run.
type Network struct {
	mu      sync.RWMutex
	friends map[string][]string // user → friends
	proxies map[string][]*Proxy // owner → proxies
	lookup  proxynet.Lookup
}

// New creates an empty Lantern network whose proxies resolve names with
// lookup.
func New(lookup proxynet.Lookup) *Network {
	return &Network{
		friends: make(map[string][]string),
		proxies: make(map[string][]*Proxy),
		lookup:  lookup,
	}
}

// Befriend records a mutual trust edge between two users.
func (n *Network) Befriend(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.friends[a] = append(n.friends[a], b)
	n.friends[b] = append(n.friends[b], a)
}

// RunProxy starts a proxy owned by user on host.
func (n *Network) RunProxy(owner string, host *netem.Host) (*Proxy, error) {
	srv, err := proxynet.Serve(host, ProxyPort, n.lookup)
	if err != nil {
		return nil, err
	}
	p := &Proxy{Owner: owner, Host: host, srv: srv}
	n.mu.Lock()
	n.proxies[owner] = append(n.proxies[owner], p)
	n.mu.Unlock()
	return p, nil
}

// Discover returns the proxies a user can reach through trust, breadth-first
// up to two hops (friends, then friends-of-friends), in deterministic order.
// This ordering — social distance, not latency — is what makes Lantern's
// paths long.
func (n *Network) Discover(user string) []*Proxy {
	n.mu.RLock()
	defer n.mu.RUnlock()
	seen := map[string]bool{user: true}
	var order []string
	frontier := append([]string(nil), n.friends[user]...)
	sort.Strings(frontier)
	for hop := 0; hop < 2 && len(frontier) > 0; hop++ {
		var next []string
		for _, f := range frontier {
			if seen[f] {
				continue
			}
			seen[f] = true
			order = append(order, f)
			next = append(next, n.friends[f]...)
		}
		sort.Strings(next)
		frontier = next
	}
	var out []*Proxy
	for _, owner := range order {
		out = append(out, n.proxies[owner]...)
	}
	return out
}

// Client tunnels through trust-discovered proxies.
type Client struct {
	host *netem.Host
	net  *Network
	user string

	mu      sync.Mutex
	proxies []*Proxy
}

// NewClient creates a Lantern client for the given user on host.
func NewClient(host *netem.Host, n *Network, user string) *Client {
	return &Client{host: host, net: n, user: user}
}

// refresh re-discovers proxies if none are cached.
func (c *Client) refresh() []*Proxy {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.proxies) == 0 {
		c.proxies = c.net.Discover(c.user)
	}
	return c.proxies
}

// Dial tunnels to address through the first reachable trusted proxy,
// failing over down the trust order.
func (c *Client) Dial(ctx context.Context, address string) (net.Conn, error) {
	proxies := c.refresh()
	if len(proxies) == 0 {
		return nil, fmt.Errorf("lantern: user %q has no trusted proxies", c.user)
	}
	var lastErr error
	for _, p := range proxies {
		conn, err := proxynet.DialVia(ctx, c.host.Dial, p.Addr(), address)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	return nil, fmt.Errorf("lantern: all %d proxies failed: %w", len(proxies), lastErr)
}

// Dialer returns the client's DialFunc.
func (c *Client) Dialer() netem.DialFunc { return c.Dial }
