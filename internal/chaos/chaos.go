// Package chaos adversarially validates the global DB's promotion and
// fencing machinery under deterministic, seeded fault schedules. A Cluster
// is a three-node replica set (replica.NewSet) on an emulated network —
// every node with its own WAL directory and its own AS-egress fault
// injector — plus one client that keeps writing censorship reports
// throughout the schedule, chasing leader hints like any C-Saw client.
//
// Faults compose in virtual time: node kill/restart (listener down, WAL
// intact), partitions (SYN blackholes in both directions), link flaps
// (transient connect failures), torn WAL writes (the storage tear hook),
// and WAL bit-flips on a dead follower (restart detects history loss,
// wipes, and resyncs from the leader). After every schedule heals, the
// harness asserts the invariants the paper's incentive loop depends on:
// a single leader with monotonic terms, byte-identical replicas (bodies,
// validator tags, aggregate stats), and every report acked to the client
// present exactly once in the final state.
package chaos

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"csaw/internal/globaldb"
	"csaw/internal/globaldb/replica"
	"csaw/internal/localdb"
	"csaw/internal/metrics"
	"csaw/internal/netem"
	"csaw/internal/vtime"
)

const (
	numNodes = 3
	dbHost   = "chaos-db.example"
	// ASN is the AS the workload's reports are filed under.
	ASN = 1001
	// nodeTimeout bounds pulls, probes, and forwards (virtual).
	nodeTimeout = 5 * time.Second
	// clientTimeout bounds the client's calls. It outlasts a follower's
	// forward to a blackholed leader, so the client reads the follower's
	// answer instead of racing it: on the event clock both deadlines fall
	// in one jump, and which side saw its own first would be up to the
	// goroutine scheduler.
	clientTimeout = 2 * nodeTimeout
	// missedThreshold pulls must fail before an election; kept low so one
	// schedule round of dead primary triggers promotion.
	missedThreshold = 2
)

func nodeIP(i int) string { return fmt.Sprintf("30.0.0.%d", i+1) }

// Acked is one report the client received a 200 for: the durability unit
// of the no-acked-report-lost invariant.
type Acked struct {
	URL  string
	UUID string
}

// Cluster is the chaos harness: the replica set, its fault hooks, the
// writing client, and the bookkeeping the invariant checkers read.
type Cluster struct {
	Clock *vtime.Clock
	Net   *netem.Network
	Set   *replica.Set
	// Faults holds one injector per node AS plus, last, the client's.
	Faults []*netem.FaultInjector
	DB     *globaldb.Client

	dir    string
	parted []bool
	// wasLeader marks nodes that ever held leadership: their WAL may hold
	// acked records no other node has yet, so bit-flips (which wipe the
	// node) are restricted to never-leader followers.
	wasLeader  []bool
	clientHost *netem.Host

	Acked  []Acked
	Counts metrics.Counters // fault kind → injections
	// leaderTerm[i] is node i's term while it leads (-1 otherwise): a term
	// must never decrease while a node stays leader. maxLeaderTerm is the
	// highest term any leader ever served writes under — the final converged
	// term must reach it, or a stale lineage won the heal.
	leaderTerm    []int64
	maxLeaderTerm int64
}

// New builds the cluster under dir (one WAL directory per node) and
// registers the client through the founding primary. Deterministic for a
// given seed: all timers run on the discrete-event clock, where a
// blackholed connect parks to its deadline (vtime.Clock.Park) instead of
// waiting on the host.
func New(seed int64, dir string) (*Cluster, error) {
	clock := vtime.NewEventDriven()
	n := netem.New(clock, netem.WithSeed(seed))
	n.SetRTT("dc", "client", 50*time.Millisecond)
	c := &Cluster{
		Clock:  clock,
		Net:    n,
		dir:    dir,
		parted: make([]bool, numNodes),
		wasLeader: func() []bool {
			b := make([]bool, numNodes)
			b[0] = true
			return b
		}(),
		leaderTerm: func() []int64 {
			t := make([]int64, numNodes)
			for i := range t {
				t[i] = -1
			}
			return t
		}(),
	}
	hosts := make([]*netem.Host, numNodes)
	for i := range hosts {
		as := n.AddAS(100+i, fmt.Sprintf("chaos-as-%d", i), "us")
		fi := netem.NewFaultInjector(nil)
		as.SetInterceptor(fi)
		c.Faults = append(c.Faults, fi)
		hosts[i] = n.MustAddHost(fmt.Sprintf("chaos-node-%d", i), nodeIP(i), "dc", as)
	}
	clientAS := n.AddAS(200, "chaos-client-as", "pk")
	cfi := netem.NewFaultInjector(nil)
	clientAS.SetInterceptor(cfi)
	c.Faults = append(c.Faults, cfi)
	c.clientHost = n.MustAddHost("chaos-client", "30.1.0.1", "client", clientAS)

	var err error
	c.Set, err = replica.NewSet(replica.Config{
		Clock:           clock,
		Hosts:           hosts,
		Dir:             dir,
		HostHeader:      dbHost,
		Timeout:         nodeTimeout,
		MissedThreshold: missedThreshold,
	})
	if err != nil {
		return nil, err
	}
	c.DB = &globaldb.Client{
		Endpoints:       c.Set.Addrs,
		Host:            dbHost,
		Clock:           clock,
		FetchDial:       c.clientHost.Dial,
		ReportDial:      c.clientHost.Dial,
		Timeout:         clientTimeout,
		ReplicaCooldown: 2 * time.Second,
	}
	if err := c.DB.Register(context.Background(), "human-chaos"); err != nil {
		return nil, fmt.Errorf("chaos: register: %w", err)
	}
	return c, nil
}

// Kill stops node i: listener closed, WAL flushed and closed, state left
// on disk. No-op if already down.
func (c *Cluster) Kill(i int) {
	if c.Set.Down(i) {
		return
	}
	c.Counts.Add("kill", 1)
	if c.Set.Nodes[i].RoleName() == globaldb.RoleLeader {
		c.wasLeader[i] = true
	}
	_ = c.Set.Kill(i) //lint:allow-droperr a dying node's listener error changes nothing the schedule does next
	c.leaderTerm[i] = -1
}

// Restart recovers node i from its WAL directory and serves it again. The
// node rejoins as a follower; reconciliation re-fences it if leadership
// moved on.
func (c *Cluster) Restart(i int) error {
	if !c.Set.Down(i) {
		return nil
	}
	c.Counts.Add("restart", 1)
	wiped, err := c.Set.Restart(i)
	if wiped {
		c.Counts.Add("history-loss-wipe", 1)
	}
	return err
}

// Partition isolates node i: its own egress drops everything, and every
// other AS (the client's included) drops SYNs toward it.
func (c *Cluster) Partition(i int) {
	if !c.parted[i] {
		c.Counts.Add("partition", 1)
	}
	c.parted[i] = true
	c.applyPartitions()
}

// HealPartition reconnects node i.
func (c *Cluster) HealPartition(i int) {
	c.parted[i] = false
	c.applyPartitions()
}

func (c *Cluster) applyPartitions() {
	var ips []string
	for i, p := range c.parted {
		if p {
			ips = append(ips, nodeIP(i))
		}
	}
	for i := 0; i < numNodes; i++ {
		fi := c.Faults[i]
		if c.parted[i] {
			fi.Target() // all egress
			fi.SetDown(true)
			continue
		}
		fi.Target(ips...)
		fi.SetDown(len(ips) > 0)
	}
	cfi := c.Faults[numNodes]
	cfi.Target(ips...)
	cfi.SetDown(len(ips) > 0)
}

// Flap injects n transient connect failures on one AS egress (the client's
// for asIdx == numNodes).
func (c *Cluster) Flap(asIdx, n int) {
	c.Counts.Add("flap", 1)
	c.Faults[asIdx].FailNext(n)
}

// TearLeader arms the torn-write hook on the current leader's WAL: its
// next logged mutation writes a partial frame and fails, the store
// rejects the write (the client is NOT acked), and the node refuses all
// further writes until it is restarted — at which point recovery truncates
// the torn tail. Returns the torn node's index, or -1 if no live leader.
func (c *Cluster) TearLeader() int {
	i := c.Set.Leader()
	if i < 0 {
		return -1
	}
	if c.Set.Nodes[i].Server.InjectTornWrite(5) {
		c.Counts.Add("torn-write", 1)
		return i
	}
	return -1
}

// BitFlip corrupts a byte in the middle of a dead, never-leader node's WAL
// file. On restart the node detects committed-history corruption, wipes,
// and resyncs from the leader — losing nothing, because a never-leader
// follower's WAL is a prefix copy of the leader's stream. Returns the
// flipped node's index, or -1 when no eligible node is down.
func (c *Cluster) BitFlip() int {
	for i := 0; i < numNodes; i++ {
		if !c.Set.Down(i) || c.wasLeader[i] {
			continue
		}
		path := filepath.Join(c.dir, c.Set.Nodes[i].Name, "wal.log")
		data, err := os.ReadFile(path)
		if err != nil || len(data) < 64 {
			continue
		}
		data[len(data)/2] ^= 0xFF
		if err := os.WriteFile(path, data, 0o644); err != nil {
			continue
		}
		c.Counts.Add("bit-flip", 1)
		return i
	}
	return -1
}

// Write posts one fresh blocked-URL report; a 200 records it as acked.
// Failures (dead leader, fencing gaps mid-election, the 503 after a torn
// write) are the schedule's job to cause and are not errors here.
func (c *Cluster) Write(ctx context.Context, round int) {
	url := fmt.Sprintf("blocked-%03d.example/", round)
	rec := localdb.Record{
		URL: url, ASN: ASN, Measured: c.Clock.Now(), Status: localdb.Blocked,
		Stages: []localdb.Stage{{Type: localdb.BlockHTTP, Detail: "blockpage"}},
	}
	n, err := c.DB.Report(ctx, []localdb.Record{rec})
	if err == nil && n > 0 {
		c.Acked = append(c.Acked, Acked{URL: url, UUID: c.DB.UUID()})
	}
	// A fetch keeps the read path (and its conditional-tag machinery) hot
	// across failovers; its outcome is not an invariant mid-schedule.
	_, _ = c.DB.FetchBlocked(ctx, ASN) //lint:allow-droperr mid-schedule fetch outcome is not an invariant
}

// Tick runs one controller step on every live node, in index order, and
// checks leader-term monotonicity: a node's term must never decrease while
// it stays leader. (A follower's lineage term legitimately drops to zero
// when it wipes for a resync; what must never happen is a WRITER regressing
// its term — and, checked after heal, a stale lineage outliving a newer
// one.)
func (c *Cluster) Tick(ctx context.Context) ([]string, error) {
	acts := make([]string, numNodes)
	for i, f := range c.Set.Nodes {
		if c.Set.Down(i) {
			acts[i] = "down"
			continue
		}
		acts[i] = f.Step(ctx)
		st := f.Status()
		if st.Role != globaldb.RoleLeader {
			c.leaderTerm[i] = -1
			continue
		}
		c.wasLeader[i] = true
		if c.leaderTerm[i] >= 0 && st.Term < c.leaderTerm[i] {
			return acts, fmt.Errorf("chaos: node-%d leader term went backwards: %d -> %d", i, c.leaderTerm[i], st.Term)
		}
		c.leaderTerm[i] = st.Term
		if st.Term > c.maxLeaderTerm {
			c.maxLeaderTerm = st.Term
		}
	}
	return acts, nil
}

// Heal restores the cluster: partitions lifted, flaps cleared, every dead
// node restarted, then controller ticks until the set converges — one
// leader, equal terms, every feed at the same head, every follower caught
// up. Returns the number of ticks convergence took.
func (c *Cluster) Heal(ctx context.Context, maxTicks int) (int, error) {
	for i := range c.parted {
		c.parted[i] = false
	}
	c.applyPartitions()
	for _, fi := range c.Faults {
		fi.FailNext(0)
	}
	for i := 0; i < numNodes; i++ {
		if err := c.Restart(i); err != nil {
			return 0, err
		}
	}
	for t := 1; t <= maxTicks; t++ {
		if _, err := c.Tick(ctx); err != nil {
			return t, err
		}
		if c.converged() {
			return t, nil
		}
	}
	return maxTicks, fmt.Errorf("chaos: not converged after %d ticks: %s", maxTicks, c.describe())
}

// converged reports one live leader, all terms equal, and every node's
// feed and pull offset at the leader's head.
func (c *Cluster) converged() bool {
	li := c.Set.Leader()
	if li < 0 {
		return false
	}
	lead := c.Set.Nodes[li].Status()
	for i, f := range c.Set.Nodes {
		if c.Set.Down(i) {
			return false
		}
		st := f.Status()
		if st.Term != lead.Term || st.Head != lead.Head {
			return false
		}
		if i != li && (st.Role == globaldb.RoleLeader || st.Offset != lead.Head) {
			return false
		}
	}
	return true
}

func (c *Cluster) describe() string {
	out := ""
	for i, f := range c.Set.Nodes {
		if c.Set.Down(i) {
			out += fmt.Sprintf("[%d down]", i)
			continue
		}
		st := f.Status()
		out += fmt.Sprintf("[%d %s t%d off%d head%d]", i, st.Role, st.Term, st.Offset, st.Head)
	}
	return out
}

// CheckInvariants runs the post-heal checkers and returns the list of
// invariants verified. The cluster must already be converged (Heal).
func (c *Cluster) CheckInvariants() ([]string, error) {
	var checked []string

	// Byte-identical replicas: the client-visible list body and validator
	// tag, and the aggregate stats, must match across every node.
	if err := c.Set.CheckIdentical(ASN); err != nil {
		return checked, err
	}
	checked = append(checked, "byte-identical-replicas")

	// No acked report lost, applied at most once: every acked URL is in
	// the final list with exactly one reporter (the single workload
	// client; duplicate applies via push reconciliation would be caught by
	// the byte-identity check bumping versions unevenly, and a same-key
	// double count would show Reporters > 1).
	list := c.Set.Nodes[0].Server.BlockedForAS(ASN)
	byURL := make(map[string]globaldb.Entry, len(list))
	for _, e := range list {
		byURL[e.URL] = e
	}
	for _, a := range c.Acked {
		e, ok := byURL[a.URL]
		if !ok {
			return checked, fmt.Errorf("chaos: acked report %q missing from final state", a.URL)
		}
		if e.Reporters != 1 {
			return checked, fmt.Errorf("chaos: %q has %d reporters, want 1 (at-most-once apply)", a.URL, e.Reporters)
		}
	}
	checked = append(checked, "no-acked-report-lost", "at-most-once-apply")

	// Monotonic terms: continuous-leader regressions were checked every
	// Tick; here the converged term must cover every term a leader ever
	// served writes under — a lower final term would mean a stale lineage
	// won the heal and newer acked writes survived only by luck.
	li := c.Set.Leader()
	if li < 0 {
		return checked, fmt.Errorf("chaos: no leader after heal")
	}
	if final := c.Set.Nodes[li].Status().Term; final < c.maxLeaderTerm {
		return checked, fmt.Errorf("chaos: final term %d below max leader term %d", final, c.maxLeaderTerm)
	}
	checked = append(checked, "monotonic-terms", "single-leader-converged")
	return checked, nil
}
