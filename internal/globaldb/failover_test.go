package globaldb

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"csaw/internal/netem"
	"csaw/internal/trace"
	"csaw/internal/vtime"
)

// failoverWorld runs three independent, identically seeded global DB servers
// (40.0.0.1–3) and returns them plus a replica-set client factory. The
// servers are seeded with the same ingest sequence, so their sharded stores
// converge to byte-identical bodies and tags — a client's cached validator
// stays valid across a failover, exactly as with real replicas.
func failoverWorld(t *testing.T) (*netem.Network, []*Server, func(name, ip string) *Client) {
	t.Helper()
	clock := vtime.New(1000)
	n := netem.New(clock, netem.WithSeed(41))
	pk := n.AddAS(100, "ISP", "PK")
	cloud := n.AddAS(900, "Cloud", "US")
	n.SetRTT("pk", "us", 100*time.Millisecond)

	servers := make([]*Server, 3)
	for i := range servers {
		srv := NewServer(clock, nil)
		host := n.MustAddHost(fmt.Sprintf("gdb%d", i), fmt.Sprintf("40.0.0.%d", i+1), "us", cloud)
		if err := srv.Attach(host, 80); err != nil {
			t.Fatal(err)
		}
		srv.store.addUser("seed")
		if _, ok := srv.store.ingest("seed", utc, []Report{
			{URL: "blocked.example/", ASN: 100, Stages: []WireStage{{Type: 1, Detail: "nxdomain"}}, Tm: utc},
		}); !ok {
			t.Fatal("seed ingest rejected")
		}
		servers[i] = srv
	}

	mk := func(name, ip string) *Client {
		h := n.MustAddHost(name, ip, "pk", pk)
		return &Client{
			Endpoints: []string{"40.0.0.1:80", "40.0.0.2:80", "40.0.0.3:80"},
			Host:      "globaldb.example", Clock: clock,
			ReportDial: h.Dial, FetchDial: h.Dial,
			Timeout: 5 * time.Second,
		}
	}
	return n, servers, mk
}

// TestClientFailover pins the replica-set contract: a blackholed primary
// (silent drop — the censor signature) times the client out and the same
// call is answered by the next replica; the cached validator tag from the
// primary still 304s there.
func TestClientFailover(t *testing.T) {
	_, servers, mk := failoverWorld(t)
	c := mk("u1", "10.0.0.1")
	sink := &spanCount{}
	c.Trace = trace.New(c.Clock, sink)

	entries, err := c.FetchBlocked(context.Background(), 100)
	if err != nil || len(entries) != 1 {
		t.Fatalf("healthy fetch = %+v, %v", entries, err)
	}
	if got := c.LastServed(); got != "40.0.0.1:80" {
		t.Fatalf("healthy fetch served by %q, want the primary", got)
	}
	if st := c.Counters().Snapshot(); st["failovers"] != 0 || st["replica-down"] != 0 {
		t.Fatalf("healthy counters = %v", st)
	}

	// Censor blackholes the primary: SYNs vanish, the client times out and
	// must fail over within the same call.
	servers[0].Faults().SetDrop(true)
	servers[0].Faults().SetOutage(true)
	entries, err = c.FetchBlocked(context.Background(), 100)
	if err != nil {
		t.Fatalf("fetch did not fail over: %v", err)
	}
	if len(entries) != 1 || entries[0].URL != "blocked.example/" {
		t.Fatalf("failover fetch = %+v", entries)
	}
	if got := c.LastServed(); got != "40.0.0.2:80" {
		t.Fatalf("failover served by %q, want the second replica", got)
	}
	st := c.Counters().Snapshot()
	if st["failovers"] != 1 || st["replica-down"] != 1 {
		t.Fatalf("failover counters = %v, want 1 failover + 1 down transition", st)
	}
	// Identically converged replicas share tags: the tag cached from the
	// primary validated on the secondary as a 304.
	if st["fetch-304"] != 1 {
		t.Fatalf("counters = %v: primary's tag should have 304'd on the secondary", st)
	}

	// While the primary cools down it is not retried: the next call goes
	// straight to the secondary without a fresh down transition.
	if _, err := c.FetchBlocked(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	if st := c.Counters().Snapshot(); st["replica-down"] != 1 || st["failovers"] != 2 {
		t.Fatalf("cooldown counters = %v, want no new down transition", st)
	}
	// Every replica-set call finished its span (one per FetchBlocked).
	if got := sink.n.Load(); got != 3 {
		t.Fatalf("trace recorded %d spans, want 3", got)
	}
}

// TestClientOutageNoFailover pins the failover trigger: an HTTP error status
// is a server answer, not unreachability — the client must surface it, not
// mask it by hopping to another replica (which may disagree about, say, a
// revoked uuid or a rate limit).
func TestClientOutageNoFailover(t *testing.T) {
	_, servers, mk := failoverWorld(t)
	c := mk("u1", "10.0.0.1")

	servers[0].Faults().SetOutage(true) // 503s, but the server is reachable
	if _, err := c.FetchBlocked(context.Background(), 100); err == nil {
		t.Fatal("503 answer did not surface as an error")
	}
	if st := c.Counters().Snapshot(); st["failovers"] != 0 || st["replica-down"] != 0 {
		t.Fatalf("counters = %v: a 503 must not trigger failover", st)
	}
}

// TestClientFailoverCooldownRecovery pins the return path: once the
// cooldown passes, a healed primary is preferred again.
func TestClientFailoverCooldownRecovery(t *testing.T) {
	n, servers, mk := failoverWorld(t)
	c := mk("u1", "10.0.0.1")
	c.ReplicaCooldown = time.Minute

	servers[0].Faults().SetDrop(true)
	servers[0].Faults().SetOutage(true)
	if _, err := c.FetchBlocked(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	if got := c.LastServed(); got != "40.0.0.2:80" {
		t.Fatalf("served by %q, want the second replica", got)
	}

	servers[0].Faults().SetDrop(false)
	servers[0].Faults().SetOutage(false)
	// Still cooling: the healed primary is not retried yet.
	if _, err := c.FetchBlocked(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	if got := c.LastServed(); got != "40.0.0.2:80" {
		t.Fatalf("served by %q during cooldown, want the secondary", got)
	}

	n.Clock().Advance(2 * time.Minute)
	if _, err := c.FetchBlocked(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	if got := c.LastServed(); got != "40.0.0.1:80" {
		t.Fatalf("served by %q after cooldown, want the primary back", got)
	}
	if n := c.Counters().Get("failovers"); n != 2 {
		t.Fatalf("failovers = %d, want them to stop at 2", n)
	}
}

// TestClientAllReplicasDown pins the exhaustion path: every endpoint
// unreachable surfaces a transport error (after trying them all), and a
// later call with one replica healed succeeds as a last-resort retry even
// inside the cooldown window.
func TestClientAllReplicasDown(t *testing.T) {
	_, servers, mk := failoverWorld(t)
	c := mk("u1", "10.0.0.1")

	for _, srv := range servers {
		srv.Faults().SetDrop(true)
		srv.Faults().SetOutage(true)
	}
	if _, err := c.FetchBlocked(context.Background(), 100); err == nil {
		t.Fatal("fetch succeeded with every replica blackholed")
	}
	if n := c.Counters().Get("replica-down"); n != 3 {
		t.Fatalf("replica-down = %d, want all 3 replicas marked down", n)
	}

	// One replica heals. All endpoints are still inside their cooldown, but
	// a client never refuses to try: cooling endpoints are attempted as a
	// last resort, in preference order.
	servers[2].Faults().SetDrop(false)
	servers[2].Faults().SetOutage(false)
	entries, err := c.FetchBlocked(context.Background(), 100)
	if err != nil || len(entries) != 1 {
		t.Fatalf("last-resort fetch = %+v, %v", entries, err)
	}
	if got := c.LastServed(); got != "40.0.0.3:80" {
		t.Fatalf("served by %q, want the healed third replica", got)
	}
}

// TestClientCooldownExpiryMidCall pins a timing edge: an endpoint that was
// cooling when the call started is still attempted (as a last resort) and,
// with its cooldown having expired while earlier attempts timed out, serves
// the call — the order computed at call start must not freeze an endpoint
// out of the very call during which it becomes retryable.
func TestClientCooldownExpiryMidCall(t *testing.T) {
	_, servers, mk := failoverWorld(t)
	c := mk("u1", "10.0.0.1")
	c.ReplicaCooldown = 8 * time.Second // shorter than two attempt timeouts

	// Round 1: primary blackholed, client fails over and the primary cools.
	servers[0].Faults().SetDrop(true)
	servers[0].Faults().SetOutage(true)
	if _, err := c.FetchBlocked(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	if got := c.LastServed(); got != "40.0.0.2:80" {
		t.Fatalf("served by %q, want the second replica", got)
	}

	// Round 2: the primary heals but is still cooling; the other two go
	// dark. Their two timeouts (5s each) outlast the 8s cooldown, so the
	// last-resort attempt at the primary lands after its cooldown expired.
	servers[0].Faults().SetDrop(false)
	servers[0].Faults().SetOutage(false)
	for _, srv := range servers[1:] {
		srv.Faults().SetDrop(true)
		srv.Faults().SetOutage(true)
	}
	entries, err := c.FetchBlocked(context.Background(), 100)
	if err != nil || len(entries) != 1 {
		t.Fatalf("mid-call recovery fetch = %+v, %v", entries, err)
	}
	if got := c.LastServed(); got != "40.0.0.1:80" {
		t.Fatalf("served by %q, want the healed primary as last resort", got)
	}
	if n := c.Counters().Get("replica-down"); n != 3 {
		t.Fatalf("replica-down = %d, want the two dark replicas to add down transitions", n)
	}
}

// TestClientAllCoolingPreferenceOrder pins the exhaustion ordering: when
// every endpoint is cooling, the client still tries them all, in preference
// order — so a fully healed set answers from the primary, not whichever
// replica happened to fail last.
func TestClientAllCoolingPreferenceOrder(t *testing.T) {
	_, servers, mk := failoverWorld(t)
	c := mk("u1", "10.0.0.1")
	c.ReplicaCooldown = 10 * time.Minute

	for _, srv := range servers {
		srv.Faults().SetDrop(true)
		srv.Faults().SetOutage(true)
	}
	if _, err := c.FetchBlocked(context.Background(), 100); err == nil {
		t.Fatal("fetch succeeded with every replica blackholed")
	}
	for _, srv := range servers {
		srv.Faults().SetDrop(false)
		srv.Faults().SetOutage(false)
	}
	// Everything is deep inside its cooldown window; the call must still go
	// out and must prefer the primary.
	entries, err := c.FetchBlocked(context.Background(), 100)
	if err != nil || len(entries) != 1 {
		t.Fatalf("all-cooling fetch = %+v, %v", entries, err)
	}
	if got := c.LastServed(); got != "40.0.0.1:80" {
		t.Fatalf("served by %q, want the primary first among cooling endpoints", got)
	}
	// Serving clears the primary's cooldown; the next call hits it again
	// without a failover increment.
	before := c.Counters().Get("failovers")
	if _, err := c.FetchBlocked(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	if after := c.Counters().Get("failovers"); after != before {
		t.Fatalf("failovers %d -> %d on a healthy-primary call", before, after)
	}
}

// TestClientStatsConcurrentFetches hammers one replica-set client from many
// goroutines while the primary is dark — the cooldown map, LastServed, and
// the counters are shared state, and this test (run under -race in CI)
// pins that concurrent failovers keep them consistent.
func TestClientStatsConcurrentFetches(t *testing.T) {
	_, servers, mk := failoverWorld(t)
	c := mk("u1", "10.0.0.1")
	servers[0].Faults().SetDrop(true)
	servers[0].Faults().SetOutage(true)

	const workers, rounds = 6, 3
	errs := make(chan error, workers*rounds)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				entries, err := c.FetchBlocked(context.Background(), 100)
				if err != nil {
					errs <- err
					return
				}
				if len(entries) != 1 {
					errs <- fmt.Errorf("got %d entries", len(entries))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent fetch: %v", err)
	}
	st := c.Counters().Snapshot()
	if st["replica-down"] < 1 || st["replica-down"] > workers*rounds {
		t.Fatalf("counters = %v, want 1..%d down transitions", st, workers*rounds)
	}
	if st["failovers"] < 1 {
		t.Fatalf("counters = %v, want at least one failover", st)
	}
	if got := c.LastServed(); got == "40.0.0.1:80" || got == "" {
		t.Fatalf("last served %q, want a live replica", got)
	}
}

// spanCount is a trace sink that counts the spans it is given.
type spanCount struct{ n atomic.Int64 }

func (s *spanCount) Span([]byte, *trace.Record) { s.n.Add(1) }
