package replica

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"csaw/internal/globaldb"
	"csaw/internal/httpx"
	"csaw/internal/localdb"
	"csaw/internal/netem"
	"csaw/internal/vtime"
)

// Addresses of the three-node test set: the founding primary in "us", the
// other two nodes in other worldgen-style regions.
const (
	addr0 = "40.0.0.1:80"
	addr1 = "40.0.1.1:80"
	addr2 = "40.0.1.2:80"
)

// replWorld is a three-node set built by NewSet plus a client host in the
// censored region.
type replWorld struct {
	n        *netem.Network
	clock    *vtime.Clock
	set      *Set
	primary  *globaldb.Server // the founding primary's server
	clientPK *netem.Host
}

func newReplWorld(t *testing.T) *replWorld {
	t.Helper()
	return newReplWorldOn(t, vtime.New(1000))
}

// newReplWorldOn is newReplWorld on the given clock.
func newReplWorldOn(t *testing.T, clock *vtime.Clock) *replWorld {
	t.Helper()
	n := netem.New(clock, netem.WithSeed(41))
	pk := n.AddAS(100, "ISP", "PK")
	cloud := n.AddAS(900, "Cloud", "US")
	for _, pair := range [][2]string{{"pk", "us"}, {"pk", "nl"}, {"pk", "de"}, {"us", "nl"}, {"us", "de"}, {"nl", "de"}} {
		n.SetRTT(pair[0], pair[1], 100*time.Millisecond)
	}
	set, err := NewSet(Config{
		Clock: clock,
		Hosts: []*netem.Host{
			n.MustAddHost("gdb-primary", "40.0.0.1", "us", cloud),
			n.MustAddHost("gdb-replica-0", "40.0.1.1", "nl", cloud),
			n.MustAddHost("gdb-replica-1", "40.0.1.2", "de", cloud),
		},
		HostHeader:      "globaldb.example",
		Timeout:         5 * time.Second,
		MissedThreshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &replWorld{
		n: n, clock: clock, set: set, primary: set.Nodes[0].Server,
		clientPK: n.MustAddHost("client", "10.0.0.1", "pk", pk),
	}
}

func (w *replWorld) client(addrs ...string) *globaldb.Client {
	return &globaldb.Client{
		Endpoints: addrs, Host: "globaldb.example",
		Clock: w.clock, ReportDial: w.clientPK.Dial, FetchDial: w.clientPK.Dial,
		Timeout: 5 * time.Second,
	}
}

// rawFetch GETs /v1/blocked directly so the test can compare wire bytes and
// validator tags across primary and followers.
func (w *replWorld) rawFetch(t *testing.T, addr string, asn int) (body []byte, tag string) {
	t.Helper()
	hc := &httpx.Client{Dial: w.clientPK.Dial, Clock: w.clock, Timeout: 5 * time.Second}
	req := httpx.NewRequest("GET", "globaldb.example", fmt.Sprintf("%s?asn=%d", globaldb.PathFetch, asn))
	resp, err := hc.Do(context.Background(), addr, req)
	if err != nil {
		t.Fatalf("raw fetch %s: %v", addr, err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("raw fetch %s: %d %s", addr, resp.StatusCode, resp.Body)
	}
	return resp.Body, resp.Header.Get("ETag")
}

func blockedRecords(urls ...string) []localdb.Record {
	recs := make([]localdb.Record, 0, len(urls))
	for _, u := range urls {
		recs = append(recs, localdb.Record{
			URL: u, ASN: 100, Status: localdb.Blocked,
			Stages: []localdb.Stage{{Type: localdb.BlockDNS, Detail: "nxdomain"}},
		})
	}
	return recs
}

func seedReports(t *testing.T, c *globaldb.Client, urls ...string) {
	t.Helper()
	if err := c.Register(context.Background(), "human-ok"); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Report(context.Background(), blockedRecords(urls...)); err != nil || n != len(urls) {
		t.Fatalf("report = %d, %v", n, err)
	}
}

// TestFollowerConvergesByteIdentical is the replication pin: after a sync
// round, each follower serves byte-identical /v1/blocked bodies under the
// same validator tags as the primary — a failing-over client's conditional
// fetch state stays valid.
func TestFollowerConvergesByteIdentical(t *testing.T) {
	w := newReplWorld(t)
	seedReports(t, w.client(addr0), "a.example/", "b.example/", "c.example/")

	if err := w.set.SyncAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Over the wire the primary serves a tagged body; in process every node
	// serves those same bytes under that same tag.
	if _, tag := w.rawFetch(t, addr0, 100); tag == "" {
		t.Fatal("primary served no validator tag")
	}
	if err := w.set.CheckIdentical(100); err != nil {
		t.Fatal(err)
	}
	for _, n := range w.set.Nodes {
		if n.Err() != nil {
			t.Fatalf("%s latched error: %v", n.Name, n.Err())
		}
	}
}

// TestFeedLagStats pins the ack-for-free protocol: pulling from offset N
// acknowledges everything below N, so lag shows up one round late and
// settles to zero once the followers pull again at the head.
func TestFeedLagStats(t *testing.T) {
	w := newReplWorld(t)
	seedReports(t, w.client(addr0), "a.example/", "b.example/")

	feed := w.primary.ReplicationFeed()
	if feed == nil {
		t.Fatal("primary has no replication feed")
	}
	head := feed.Head()
	if head == 0 {
		t.Fatal("no records in the feed after reports")
	}
	if st := feed.Stats(); st.MaxLag != head || len(st.Followers) != 0 {
		// No follower has pulled yet: stats list nobody. MaxLag over zero
		// followers is 0 by construction, so assert the follower list only.
		if len(st.Followers) != 0 {
			t.Fatalf("stats before any pull: %+v", st)
		}
	}

	if err := w.set.SyncAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	// First round: each follower applied everything but its ack still rides
	// the next pull.
	st := feed.Stats()
	if len(st.Followers) != 2 {
		t.Fatalf("stats followers = %+v", st.Followers)
	}
	for _, f := range st.Followers {
		if f.Acked != 0 || f.Lag != head {
			t.Fatalf("after first round: %+v, want acked 0 (ack rides the next pull)", f)
		}
	}
	if got := w.set.Offsets(); got[0] != head || got[1] != head {
		t.Fatalf("offsets = %v, want both at head %d", got, head)
	}

	// Second round: the from=head pulls ack the full history.
	if err := w.set.SyncAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	st = feed.Stats()
	if st.MaxLag != 0 {
		t.Fatalf("stats after ack round: %+v, want zero lag", st)
	}
	for _, f := range st.Followers {
		if f.Acked != head {
			t.Fatalf("follower ack %+v, want %d", f, head)
		}
	}
}

// TestFollowerForwardsWrites pins the follower's API front: reads are
// answered locally, writes travel to the primary and come back via
// replication.
func TestFollowerForwardsWrites(t *testing.T) {
	w := newReplWorld(t)
	// The client only ever talks to follower 0.
	c := w.client(addr1)
	seedReports(t, w.client(addr1), "via-follower.example/")

	if st := w.primary.StatsSnapshot(); st.Users == 0 || st.Updates != 1 {
		t.Fatalf("primary stats = %+v, want the forwarded registration and report", st)
	}
	// Before replication the follower's local store is empty...
	entries, err := c.FetchBlocked(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("follower served %+v before any sync", entries)
	}
	// ...and one sync round later the forwarded write is readable locally.
	if err := w.set.SyncAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	entries, err = c.FetchBlocked(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].URL != "via-follower.example/" {
		t.Fatalf("follower list after sync = %+v", entries)
	}
}

// TestClientFailoverToReplica pins the end-to-end §5 scenario: the censor
// blackholes the primary; a replica-set client fails over to a follower and
// — because replication preserves tags — its cached validator still 304s.
// The clock runs at 100×, not 1000×: the client's 5 s timeout is then 50 ms
// of real time, so a host stall cannot time out the healthy primary's fetch
// and fail over early. (The event clock cannot run it: nothing sleeps while
// the client waits on the blackholed primary, so its timeout never fires.)
func TestClientFailoverToReplica(t *testing.T) {
	w := newReplWorldOn(t, vtime.New(100))
	seedReports(t, w.client(addr0), "a.example/", "b.example/")
	if err := w.set.SyncAll(context.Background()); err != nil {
		t.Fatal(err)
	}

	c := w.client(addr0, addr1, addr2)
	if _, err := c.FetchBlocked(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	if got := c.LastServed(); got != addr0 {
		t.Fatalf("served by %q, want the primary first", got)
	}

	w.primary.Faults().SetDrop(true)
	w.primary.Faults().SetOutage(true)
	entries, err := c.FetchBlocked(context.Background(), 100)
	if err != nil {
		t.Fatalf("failover to replica failed: %v", err)
	}
	if len(entries) != 2 {
		t.Fatalf("replica served %+v", entries)
	}
	if got := c.LastServed(); got != addr1 {
		t.Fatalf("served by %q, want the first follower", got)
	}
	st := c.Counters().Snapshot()
	if st["failovers"] != 1 || st["replica-down"] != 1 {
		t.Fatalf("client counters = %v", st)
	}
	if st["fetch-304"] != 1 {
		t.Fatalf("client counters = %v: the primary's tag should 304 on a caught-up follower", st)
	}
}

// TestForwardHonorsRequestContext is the regression pin for the forward
// path's context plumbing: a forwarded write used to run under
// context.Background(), so a client that had already hung up (or a closing
// server) left the relay burning its full timeout against an unreachable
// primary. The incoming request's context must bound the upstream call.
func TestForwardHonorsRequestContext(t *testing.T) {
	w := newReplWorld(t)
	// Blackhole the primary so an unbounded forward would only die by its
	// own 30s (virtual) timeout.
	w.primary.Faults().SetDrop(true)
	w.primary.Faults().SetOutage(true)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client hung up before the relay even started

	body := []byte(`{"uuid":"u","reports":[]}`)
	req := httpx.NewRequest("POST", "globaldb.example", globaldb.PathReport)
	req.Body = body
	start := w.clock.Now()
	resp := w.set.Nodes[1].Handler().ServeHTTP(req.WithContext(ctx), netem.Flow{})
	if resp.StatusCode != 502 {
		t.Fatalf("forward with dead context: status %d %s, want 502", resp.StatusCode, resp.Body)
	}
	if elapsed := w.clock.Now().Sub(start); elapsed > time.Second {
		t.Fatalf("forward with dead context burned %v of virtual time, want an immediate abort", elapsed)
	}
}

// TestForwardCutsLoops: two followers that each believe the other leads
// must refuse a write within a round trip or two, not relay it back and
// forth until the first hop's timeout.
func TestForwardCutsLoops(t *testing.T) {
	w := newReplWorldOn(t, vtime.NewEventDriven())
	w.set.Nodes[1].adopt(0, addr2)
	w.set.Nodes[2].adopt(0, addr1)

	req := httpx.NewRequest("POST", "globaldb.example", globaldb.PathReport)
	req.Body = []byte(`{"uuid":"u","reports":[]}`)
	start := w.clock.Now()
	resp := w.set.Nodes[1].Handler().ServeHTTP(req, netem.Flow{})
	if resp.StatusCode != 502 || !strings.Contains(string(resp.Body), "forwarding loop") {
		t.Fatalf("looping forward: status %d %s, want 502 naming the loop", resp.StatusCode, resp.Body)
	}
	if elapsed := w.clock.Now().Sub(start); elapsed > time.Second {
		t.Fatalf("looping forward took %v of virtual time, want a refusal within round trips", elapsed)
	}
}
