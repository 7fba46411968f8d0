package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"csaw/internal/globaldb"
	"csaw/internal/globaldb/storage"
	"csaw/internal/httpx"
	"csaw/internal/netem"
	"csaw/internal/vtime"
)

// Port is the port every replica-set node serves the client API on.
const Port = 80

// Config describes a replica set to NewSet.
type Config struct {
	Clock *vtime.Clock
	// Hosts are the machines the nodes run on, founding primary first: the
	// censor must blackhole that many distinct IPs.
	Hosts []*netem.Host
	// Dir, when set, is the directory under which node i keeps its WAL
	// (Dir/node-i); empty runs every node in memory.
	Dir string
	// HostHeader is the Host header of intra-set calls.
	HostHeader string
	// Timeout bounds each pull, probe and forward (virtual); default 30s.
	Timeout time.Duration
	// MissedThreshold is how many consecutive failed pulls declare the
	// leader dead; default 3.
	MissedThreshold int
}

// Set is a served replica set and its two foreground pumps: SyncAll drains
// every follower to the leader's head (replication quiesced at a known
// virtual instant, no failure detection), Tick runs one promotion-
// controller step on every node (failure detection, elections, demotion).
// Both are deterministic: nodes are visited in slice order.
type Set struct {
	// Nodes are the members in Addrs order; Nodes[0] is (or reopened from)
	// the founding primary. Restart replaces the entry of a node it reopens.
	Nodes []*Node
	// Addrs are the members' client-facing endpoints, founding primary
	// first — the preference order a client's endpoint list should carry.
	Addrs []string

	cfg     Config
	serving []*httpx.Server // nil while node i is killed
}

// NewSet opens one node per host and serves them all. Every node runs a
// durable, feed-enabled store that never compacts: with no snapshots the WAL
// is the complete history, so pull offsets stay valid across restarts and a
// demoted node can push its whole feed during reconciliation. Nodes[0]
// starts as the leader; every other node starts pulling from it.
func NewSet(cfg Config) (*Set, error) {
	s := &Set{
		Nodes:   make([]*Node, len(cfg.Hosts)),
		Addrs:   make([]string, len(cfg.Hosts)),
		cfg:     cfg,
		serving: make([]*httpx.Server, len(cfg.Hosts)),
	}
	for i, h := range cfg.Hosts {
		s.Addrs[i] = fmt.Sprintf("%s:%d", h.IP(), Port)
	}
	for i := range s.Nodes {
		role := globaldb.RoleFollower
		if i == 0 {
			role = globaldb.RoleLeader
		}
		if err := s.open(i, role); err != nil {
			return nil, err
		}
		if err := s.serve(i); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func nodeName(i int) string { return fmt.Sprintf("node-%d", i) }

func (s *Set) dir(i int) string {
	if s.cfg.Dir == "" {
		return ""
	}
	return filepath.Join(s.cfg.Dir, nodeName(i))
}

// open builds node i over its directory, recovering whatever WAL is there;
// as a follower it resumes pulling where its own log ends.
func (s *Set) open(i int, role string) error {
	srv, err := globaldb.NewDurableServer(s.cfg.Clock, nil, globaldb.StoreOptions{
		Dir:           s.dir(i),
		SnapshotEvery: -1,
		Replicated:    true,
	})
	if err != nil {
		return err
	}
	// Never self: a reopened ex-primary must pull from a peer, whose fencing
	// hint (or an election) leads it to the current leader.
	upstream := s.Addrs[0]
	if i == 0 && len(s.Addrs) > 1 {
		upstream = s.Addrs[1]
	}
	n := &Node{
		Name:            nodeName(i),
		Server:          srv,
		PrimaryAddr:     upstream,
		PrimaryHost:     s.cfg.HostHeader,
		Dial:            s.cfg.Hosts[i].Dial,
		Clock:           s.cfg.Clock,
		Timeout:         s.cfg.Timeout,
		Self:            s.Addrs[i],
		MissedThreshold: s.cfg.MissedThreshold,
		offset:          srv.ReplicationFeed().Head(),
		role:            role,
	}
	for j, a := range s.Addrs {
		if j != i {
			n.Peers = append(n.Peers, Peer{Name: nodeName(j), Addr: a})
		}
	}
	s.Nodes[i] = n
	return nil
}

func (s *Set) serve(i int) error {
	l, err := s.cfg.Hosts[i].Listen(Port)
	if err != nil {
		return err
	}
	s.serving[i] = httpx.Serve(l, s.Nodes[i].Handler())
	return nil
}

// Down reports whether node i is killed.
func (s *Set) Down(i int) bool { return s.serving[i] == nil }

// crashed reports whether node i is a dead process: killed, with a
// directory to come back from.
func (s *Set) crashed(i int) bool { return s.Down(i) && s.cfg.Dir != "" }

// Kill takes node i off the network: its listener closes, so every new
// connection — client writes, follower pulls, election probes — fails. A
// node with a directory dies as a process: its WAL is flushed and closed,
// it stops ticking, and Restart reopens it from disk. An in-memory node has
// nothing to come back from, so only its listener dies: state and role
// stay, and it keeps ticking (its outbound calls still work). No-op if
// already down.
func (s *Set) Kill(i int) error {
	if s.Down(i) {
		return nil
	}
	err := s.serving[i].Close()
	s.serving[i] = nil
	_ = s.Nodes[i].Server.Close() //lint:allow-droperr a latched tear error is expected on a killed node
	return err
}

// Restart brings node i back. A crashed node is reopened from its
// directory and rejoins as a follower; if mid-history WAL corruption
// (storage.ErrHistoryLoss) means it cannot trust its log, the directory is
// wiped first and the leader's stream rebuilds it from sequence zero —
// wiped reports that. An in-memory node resumes serving with the state and
// role it was killed with; either way the next controller steps discover
// any leadership change and demote/resync as needed. No-op if not down.
func (s *Set) Restart(i int) (wiped bool, err error) {
	if !s.Down(i) {
		return false, nil
	}
	if s.cfg.Dir != "" {
		err = s.open(i, globaldb.RoleFollower)
		if errors.Is(err, storage.ErrHistoryLoss) {
			wiped = true
			if err = os.RemoveAll(s.dir(i)); err == nil {
				err = s.open(i, globaldb.RoleFollower)
			}
		}
		if err != nil {
			return wiped, err
		}
	}
	return wiped, s.serve(i)
}

// Leader returns the index of the first node claiming leadership, crashed
// nodes excepted, or -1.
func (s *Set) Leader() int {
	for i, n := range s.Nodes {
		if !s.crashed(i) && n.RoleName() == globaldb.RoleLeader {
			return i
		}
	}
	return -1
}

// Tick runs one promotion-controller step on every node that is not
// crashed, in slice order — once per virtual sync round. Actions are
// returned in node order ("down" for a crashed node), for traces and
// assertions.
func (s *Set) Tick(ctx context.Context) []string {
	out := make([]string, len(s.Nodes))
	for i, n := range s.Nodes {
		if s.crashed(i) {
			out[i] = "down"
			continue
		}
		out[i] = n.Step(ctx)
	}
	return out
}

// SyncAll pumps every follower to its upstream's current head and returns
// the first pull error, if any. Nodes currently leading are skipped — a
// leader has nothing to pull. Acks ride the next pull, so quiescing the
// leader's lag stats takes two calls.
func (s *Set) SyncAll(ctx context.Context) error {
	for _, n := range s.Nodes {
		if n.RoleName() == globaldb.RoleLeader {
			continue
		}
		for {
			_, caughtUp, err := n.SyncOnce(ctx)
			if err != nil {
				return err
			}
			if caughtUp {
				break
			}
		}
	}
	return nil
}

// Offsets reports the pull offset of every node but the founding primary
// (which starts as the writer and has pulled nothing), in Nodes order.
func (s *Set) Offsets() []uint64 {
	out := make([]uint64, len(s.Nodes)-1)
	for i, n := range s.Nodes[1:] {
		out[i] = n.Offset()
	}
	return out
}

// CheckIdentical verifies that every node serves the same bytes: the
// /v1/blocked body and validator tag for each of asns, and the aggregate
// stats. It returns the first divergence from Nodes[0].
func (s *Set) CheckIdentical(asns ...int) error {
	var want []string
	for i, n := range s.Nodes {
		var got []string
		for _, asn := range asns {
			req := httpx.NewRequest("GET", s.cfg.HostHeader, fmt.Sprintf("%s?asn=%d", globaldb.PathFetch, asn))
			resp := n.Server.Handler().ServeHTTP(req, netem.Flow{})
			if resp == nil || resp.StatusCode != 200 {
				return fmt.Errorf("replica: %s fetch AS%d: %+v", n.Name, asn, resp)
			}
			got = append(got, resp.Header.Get("ETag")+" "+string(resp.Body))
		}
		stats, err := json.Marshal(n.Server.StatsSnapshot())
		if err != nil {
			return err
		}
		got = append(got, string(stats))
		if i == 0 {
			want = got
			continue
		}
		for k := range got {
			if got[k] != want[k] {
				return fmt.Errorf("replica: %s diverges from %s:\n got %s\nwant %s", n.Name, s.Nodes[0].Name, got[k], want[k])
			}
		}
	}
	return nil
}
