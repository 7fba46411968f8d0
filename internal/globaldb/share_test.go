package globaldb

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"csaw/internal/netem"
	"csaw/internal/vtime"
)

// shareNet is an event-clock network with a client AS and a cloud AS.
type shareNet struct {
	clock *vtime.Clock
	n     *netem.Network
	pk    *netem.AS
	cloud *netem.AS
}

func newShareNet() *shareNet {
	clock := vtime.NewEventDriven()
	n := netem.New(clock, netem.WithSeed(41))
	sn := &shareNet{clock: clock, n: n, pk: n.AddAS(100, "ISP", "PK"), cloud: n.AddAS(900, "Cloud", "US")}
	n.SetRTT("pk", "us", 100*time.Millisecond)
	return sn
}

// server attaches a global DB at ip:80 with one registered reporter, "rep".
func (sn *shareNet) server(t *testing.T, name, ip string) *Server {
	t.Helper()
	srv := NewServer(sn.clock, nil)
	if err := srv.Attach(sn.n.MustAddHost(name, ip, "us", sn.cloud), 80); err != nil {
		t.Fatal(err)
	}
	srv.store.addUser("rep")
	return srv
}

// client makes a client of endpoints, sharing lists through table (nil:
// sharing nothing).
func (sn *shareNet) client(name, ip string, table *ListTable, endpoints ...string) *Client {
	h := sn.n.MustAddHost(name, ip, "pk", sn.pk)
	return &Client{Endpoints: endpoints, Host: "globaldb.example", Clock: sn.clock,
		ReportDial: h.Dial, FetchDial: h.Dial, Lists: table}
}

// cacheOf returns the client's cached list for asn.
func cacheOf(c *Client, asn int) *blockedCache {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cacheLocked(asn)
}

// syncTwins fetches asn's list for c and then for its twin, a client like it
// without a table, and fails unless both end with the same outcome, list,
// tag and counters: whatever c adopted is what decodeList gave the twin.
func syncTwins(t *testing.T, c, twin *Client, asn int) {
	t.Helper()
	_, err := c.FetchBlocked(context.Background(), asn)
	_, twinErr := twin.FetchBlocked(context.Background(), asn)
	if (err == nil) != (twinErr == nil) {
		t.Fatalf("AS %d: shared client err %v, twin err %v", asn, err, twinErr)
	}
	if got, want := c.Blocked(asn), twin.Blocked(asn); !entriesEqual(got, want) {
		t.Fatalf("AS %d: shared client holds\n%+v\ntwin holds\n%+v", asn, got, want)
	}
	if bc, tw := cacheOf(c, asn), cacheOf(twin, asn); (bc == nil) != (tw == nil) || bc != nil && bc.tag != tw.tag {
		t.Fatalf("AS %d: shared client cache %+v, twin cache %+v", asn, bc, tw)
	}
	if got, want := c.Counters().Snapshot(), twin.Counters().Snapshot(); !maps.Equal(got, want) {
		t.Fatalf("AS %d: shared client counters %v, twin counters %v", asn, got, want)
	}
}

// TestSharedListsMatchUnshared is the differential test of list sharing:
// clients that share a table sync at random instants of a seeded random
// report stream over two ASes, each beside a twin that decodes every answer
// itself, and after every sync each holds exactly what its twin holds. The
// run must adopt both kinds of answer, or it proves nothing.
func TestSharedListsMatchUnshared(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			sn := newShareNet()
			srv := sn.server(t, "globaldb", "40.0.0.1")
			var table ListTable
			const clients = 6
			var shared, twins []*Client
			for i := range clients {
				shared = append(shared, sn.client(fmt.Sprint("c", i), fmt.Sprintf("10.0.1.%d", i+1), &table, "40.0.0.1:80"))
				twins = append(twins, sn.client(fmt.Sprint("t", i), fmt.Sprintf("10.0.2.%d", i+1), nil, "40.0.0.1:80"))
			}
			reporters := []string{"rep", "r1", "r2", "r3"}
			for _, r := range reporters[1:] {
				srv.store.addUser(r)
			}
			asns := []int{100, 200}
			rng := rand.New(rand.NewSource(seed))
			adopted := map[string]int{}
			for step := 0; step < 400; step++ {
				if rng.Intn(3) == 0 {
					var reports []Report
					for range 1 + rng.Intn(3) {
						reports = append(reports, Report{
							URL:    fmt.Sprintf("site%d.example/", rng.Intn(12)),
							ASN:    asns[rng.Intn(len(asns))],
							Stages: []WireStage{{Type: 1 + rng.Intn(3), Detail: fmt.Sprint("d", rng.Intn(2))}},
							Tm:     utc.Add(time.Duration(step) * time.Second),
						})
					}
					if _, ok := srv.store.ingest(reporters[rng.Intn(len(reporters))], utc.Add(time.Duration(step)*time.Second), reports); !ok {
						t.Fatal("ingest rejected")
					}
					continue
				}
				i, asn := rng.Intn(clients), asns[rng.Intn(len(asns))]
				before := table.get("40.0.0.1:80", asn).cache
				counts := shared[i].Counters().Snapshot()
				syncTwins(t, shared[i], twins[i], asn)
				if before != nil && cacheOf(shared[i], asn) == before {
					for _, k := range []string{"fetch-full", "fetch-delta"} {
						if shared[i].Counters().Get(k) > counts[k] {
							adopted[k]++
						}
					}
				}
			}
			if adopted["fetch-full"] == 0 || adopted["fetch-delta"] == 0 {
				t.Fatalf("adopted %v: the run never took the adopt path for both answer kinds", adopted)
			}
		})
	}
}

// TestSharedListsKeyOnAnsweringEndpoint: two backends that issue the same
// tags for different lists never share one, even when each client reached
// its backend by failing over from the same dead first endpoint. Keyed on
// the tag alone, or on the first endpoint tried, the second client would
// adopt the first one's list for its delta; a client that moved between
// them would adopt a list its own delta never made.
func TestSharedListsKeyOnAnsweringEndpoint(t *testing.T) {
	sn := newShareNet()
	backends := []*Server{sn.server(t, "b1", "40.0.0.1"), sn.server(t, "b2", "40.0.0.2")}
	sn.n.MustAddHost("dead", "40.0.0.9", "us", sn.cloud) // listens on nothing
	// A wide first round, then one URL a round from a new reporter: the
	// first round's entries never change again, so later rounds are deltas.
	post := func(round int) {
		t.Helper()
		for b, srv := range backends {
			uuid, urls := "rep", 5
			if round > 0 {
				uuid, urls = fmt.Sprint("rep", round), 1
				srv.store.addUser(uuid)
			}
			var reports []Report
			for k := range urls {
				reports = append(reports, Report{URL: fmt.Sprintf("backend%d-round%d-%d.example/", b, round, k), ASN: 100, Tm: utc})
			}
			if _, ok := srv.store.ingest(uuid, utc, reports); !ok {
				t.Fatal("ingest rejected")
			}
		}
		if t1, t2 := backends[0].store.fetchResponse(100, "").tag, backends[1].store.fetchResponse(100, "").tag; t1 != t2 {
			t.Fatalf("round %d: backend tags %q and %q differ; the test needs them to collide", round, t1, t2)
		}
	}
	var table ListTable
	a := sn.client("a", "10.0.0.1", &table, "40.0.0.9:80", "40.0.0.1:80")
	b := sn.client("b", "10.0.0.2", &table, "40.0.0.9:80", "40.0.0.2:80")
	aTwin := sn.client("a-twin", "10.0.0.3", nil, "40.0.0.9:80", "40.0.0.1:80")
	bTwin := sn.client("b-twin", "10.0.0.4", nil, "40.0.0.9:80", "40.0.0.2:80")
	// c moves from the first backend to the second after round 0: its next
	// deltas are the second's, spliced onto the first's list, which is
	// neither backend's state — c must keep decoding them, like its twin.
	c := sn.client("c", "10.0.0.5", &table, "40.0.0.1:80")
	cTwin := sn.client("c-twin", "10.0.0.6", nil, "40.0.0.1:80")
	for round := range 3 {
		post(round)
		syncTwins(t, a, aTwin, 100)
		syncTwins(t, b, bTwin, 100)
		syncTwins(t, c, cTwin, 100)
		c.Endpoints, cTwin.Endpoints = []string{"40.0.0.2:80"}, []string{"40.0.0.2:80"}
		if cacheOf(a, 100) == cacheOf(b, 100) {
			t.Fatalf("round %d: clients of different backends share a list", round)
		}
		if got := b.Counters().Get("failovers"); got != round+1 {
			t.Fatalf("round %d: %d failovers, want every fetch served by the second endpoint", round, got)
		}
	}
	if b.Counters().Get("fetch-delta") == 0 || c.Counters().Get("fetch-delta") != 2 {
		t.Fatal("too few deltas were served: the collision was never put to one")
	}
}

// TestSharedListsDecodeDifferingFullBody: a full answer whose tag is the
// table's but whose bytes are not is decoded, not adopted.
func TestSharedListsDecodeDifferingFullBody(t *testing.T) {
	mk, _ := stubListServer(t,
		stubAnswer{tag: "1.0", body: `{"asn":100,"entries":[` + line(t, "a/", 1) + `]}`},
		stubAnswer{tag: "1.0", body: `{"asn":100,"entries":[` + line(t, "b/", 1) + `]}`},
	)
	var table ListTable
	first, second := mk("first", "10.0.0.1"), mk("second", "10.0.0.2")
	first.Lists, second.Lists = &table, &table
	for _, c := range []*Client{first, second} {
		if _, err := c.FetchBlocked(context.Background(), 100); err != nil {
			t.Fatal(err)
		}
	}
	if got := second.Blocked(100); len(got) != 1 || got[0].URL != "b/" {
		t.Fatalf("second client holds %+v, want its own answer's b/", got)
	}
	if got := first.Blocked(100); len(got) != 1 || got[0].URL != "a/" {
		t.Fatalf("first client holds %+v, want a/", got)
	}
}

// TestSharedListsAdoptedDeltaChecksSince: a delta whose ETag the table
// holds, but taken against another tag than the client's, fails as it does
// on the decode path and drops the client's tag — the adopt path skips the
// entries, not the checks.
func TestSharedListsAdoptedDeltaChecksSince(t *testing.T) {
	full := stubAnswer{tag: "1.0", body: `{"asn":100,"entries":[` + line(t, "a/", 1) + `,` + line(t, "b/", 1) + `]}`}
	mk, inms := stubListServer(t,
		full, full, // both clients: the second adopts the first's list
		stubAnswer{tag: "2.0", delta: true, body: `{"asn":100,"since":"1.0","changed":[` + line(t, "a/", 2) + `]}`},
		stubAnswer{tag: "2.0", delta: true, body: `{"asn":100,"since":"0.9","changed":[` + line(t, "a/", 2) + `]}`},
		full,
	)
	var table ListTable
	first, second := mk("first", "10.0.0.1"), mk("second", "10.0.0.2")
	first.Lists, second.Lists = &table, &table
	fetch := func(c *Client) error {
		_, err := c.FetchBlocked(context.Background(), 100)
		return err
	}
	if err := errors.Join(fetch(first), fetch(second)); err != nil {
		t.Fatal(err)
	}
	if cacheOf(first, 100) != cacheOf(second, 100) {
		t.Fatal("the second client decoded a full answer the table held")
	}
	if err := fetch(first); err != nil {
		t.Fatal(err)
	}
	if err := fetch(second); err == nil {
		t.Fatal("a delta against another base was adopted")
	}
	if e, ok := second.Lookup(100, "a/"); !ok || e.Reporters != 1 {
		t.Fatalf("after the bad delta Lookup(a/) = %+v, %v; want the list kept", e, ok)
	}
	if err := fetch(second); err != nil {
		t.Fatal(err)
	}
	if got, want := inms(), []string{"", "", "1.0", "1.0", ""}; !slices.Equal(got, want) {
		t.Fatalf("If-None-Match per fetch = %q, want %q", got, want)
	}
}

// TestSharedListsConcurrentFetchLookup: clients that share a table fetch
// and search the shared lists concurrently while the list changes under
// them — for the race detector, which would see a shared slice written.
func TestSharedListsConcurrentFetchLookup(t *testing.T) {
	sn := newShareNet()
	srv := sn.server(t, "globaldb", "40.0.0.1")
	var table ListTable
	const clients, rounds = 4, 30
	var wg sync.WaitGroup
	for i := range clients {
		c := sn.client(fmt.Sprint("c", i), fmt.Sprintf("10.0.1.%d", i+1), &table, "40.0.0.1:80")
		wg.Add(2)
		go func() {
			defer wg.Done()
			for range rounds {
				if _, err := c.FetchBlocked(context.Background(), 100); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for k := range rounds * 4 {
				c.Lookup(100, fmt.Sprintf("site%d.example/", k%8))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := range rounds {
			url := fmt.Sprintf("site%d.example/", k%8)
			if _, ok := srv.store.ingest("rep", utc.Add(time.Duration(k)*time.Second), []Report{{URL: url, ASN: 100, Tm: utc}}); !ok {
				t.Error("ingest rejected")
				return
			}
		}
	}()
	wg.Wait()
}
