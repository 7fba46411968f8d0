package globaldb

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"csaw/internal/httpx"
	"csaw/internal/localdb"
	"csaw/internal/netem"
	"csaw/internal/vtime"
)

func TestDiffEntries(t *testing.T) {
	e := func(url string, n int) Entry { return Entry{URL: url, ASN: 1, Reporters: n} }
	old := []Entry{e("a/", 1), e("b/", 1), e("c/", 1)}
	new := []Entry{e("a/", 1), e("b/", 2), e("d/", 1)}
	changed, removed := diffEntries(old, new)
	if !reflect.DeepEqual(changed, []Entry{e("b/", 2), e("d/", 1)}) {
		t.Fatalf("changed = %+v", changed)
	}
	if !reflect.DeepEqual(removed, []string{"c/"}) {
		t.Fatalf("removed = %+v", removed)
	}
	if c, r := diffEntries(old, old); c != nil || r != nil {
		t.Fatalf("self diff: %+v %+v", c, r)
	}
}

func TestMergeDeltaReconstructsFullList(t *testing.T) {
	e := func(url string, n int) Entry { return Entry{URL: url, ASN: 1, Reporters: n} }
	base := []Entry{e("a/", 1), e("b/", 1), e("c/", 1)}
	got := mergeDelta(base, []Entry{e("b/", 2), e("d/", 1)}, []string{"c/"})
	want := []Entry{e("a/", 1), e("b/", 2), e("d/", 1)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge = %+v, want %+v", got, want)
	}
	// Base must be untouched and the result freshly allocated.
	if !reflect.DeepEqual(base, []Entry{e("a/", 1), e("b/", 1), e("c/", 1)}) {
		t.Fatal("mergeDelta mutated its base")
	}
	if got := mergeDelta(nil, []Entry{e("x/", 1)}, nil); len(got) != 1 {
		t.Fatalf("merge into empty base: %+v", got)
	}
}

// TestShardedDeltaServing pins the store-level delta contract: a stale tag
// still in the edit history gets a DeltaResponse whose application to the
// cached entries reproduces the current full list exactly; unknown tags
// fall back to the full body.
func TestShardedDeltaServing(t *testing.T) {
	s := mustOpenStore(t, StoreOptions{})
	s.addUser("u1")
	s.addUser("u2")
	s.addUser("u3")
	stage := []WireStage{{Type: 1, Detail: "nxdomain"}}
	// A wide baseline from u1 in one batch: u1's per-client d never changes
	// again, so these entries' votes stay fixed and only genuine drift lands
	// in the edit history. (A lone reporter adding URLs one at a time would
	// change its d — and with it every entry's vote — making each "delta" as
	// large as the full list; the size guard then rightly serves full bodies.)
	base := make([]Report, 0, 10)
	for i := 0; i < 10; i++ {
		base = append(base, Report{URL: fmt.Sprintf("base%02d.example/", i), ASN: 100, Stages: stage, Tm: utc})
	}
	if _, ok := s.ingest("u1", utc, base); !ok {
		t.Fatal("ingest rejected")
	}
	first := s.fetchResponse(100, "")
	if first.delta || first.tag == "" {
		t.Fatalf("first fetch: %+v", first)
	}
	var firstList FetchResponse
	if err := json.Unmarshal(first.body, &firstList); err != nil {
		t.Fatal(err)
	}

	// Drift across two observed snapshots: u2 adds an entry (observed), then
	// u3 adds another while u2's entry is revoked away. The delta from
	// first.tag must fold both edits: u2's URL appears only in removed,
	// u3's only in changed.
	s.ingest("u2", utc.Add(time.Minute), []Report{{URL: "added-u2.example/", ASN: 100, Stages: stage, Tm: utc}})
	if mid := s.fetchResponse(100, ""); mid.tag == first.tag {
		t.Fatal("tag did not move after u2's report")
	}
	s.ingest("u3", utc.Add(2*time.Minute), []Report{{URL: "added-u3.example/", ASN: 100, Stages: stage, Tm: utc}})
	s.revoke("u2")

	cur := s.fetchResponse(100, "")
	if cur.tag == first.tag {
		t.Fatal("tag did not move")
	}
	var full FetchResponse
	if err := json.Unmarshal(cur.body, &full); err != nil {
		t.Fatal(err)
	}

	res := s.fetchResponse(100, first.tag)
	if !res.delta {
		t.Fatalf("stale in-history tag %q not served a delta: %+v", first.tag, res)
	}
	if res.tag != cur.tag {
		t.Fatalf("delta tag %q != current %q", res.tag, cur.tag)
	}
	if len(res.body) >= len(cur.body) {
		t.Fatalf("delta body %dB not smaller than full %dB", len(res.body), len(cur.body))
	}
	var dr DeltaResponse
	if err := json.Unmarshal(res.body, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Since != first.tag || dr.ASN != 100 {
		t.Fatalf("delta envelope: %+v", dr)
	}
	merged := mergeDelta(firstList.Entries, dr.Changed, dr.Removed)
	if !entriesEqual(merged, full.Entries) {
		t.Fatalf("delta merge diverges from full list:\n got %+v\nwant %+v", merged, full.Entries)
	}
	if len(dr.Removed) != 1 || dr.Removed[0] != "added-u2.example/" {
		t.Fatalf("delta removed = %v, want the revoked u2 URL", dr.Removed)
	}
	if len(dr.Changed) != 1 || dr.Changed[0].URL != "added-u3.example/" {
		t.Fatalf("delta changed = %+v, want only u3's addition", dr.Changed)
	}

	// Unknown tag (e.g. from before this store's history): full body.
	if res := s.fetchResponse(100, "999.0"); res.delta || res.notModified {
		t.Fatalf("unknown tag answered %+v", res)
	}
	// Current tag: 304, not a delta.
	if res := s.fetchResponse(100, cur.tag); !res.notModified {
		t.Fatalf("current tag answered %+v", res)
	}
}

func entriesEqual(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !entryEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestDeltaHistoryCap pins that the history stays bounded and that a tag
// older than the cap falls back to the full body.
func TestDeltaHistoryCap(t *testing.T) {
	s := mustOpenStore(t, StoreOptions{})
	s.addUser("u")
	s.ingest("u", utc, []Report{{URL: "seed.example/", ASN: 100, Tm: utc}})
	oldest := s.fetchResponse(100, "")
	for i := 0; i < deltaHistoryMax+10; i++ {
		s.ingest("u", utc.Add(time.Duration(i+1)*time.Minute), []Report{
			{URL: fmt.Sprintf("u%d.example/", i), ASN: 100, Tm: utc},
		})
		s.fetchResponse(100, "") // observe every snapshot so each edit is recorded
	}
	idx := s.asIndexFor(100, false)
	idx.snapMu.Lock()
	hist := len(idx.history)
	idx.snapMu.Unlock()
	if hist > deltaHistoryMax {
		t.Fatalf("history grew to %d, cap is %d", hist, deltaHistoryMax)
	}
	res := s.fetchResponse(100, oldest.tag)
	if res.delta || res.notModified {
		t.Fatalf("evicted tag must fall back to full body, got %+v", res)
	}
}

// deltaWorld is gdbWorld plus a second client in the same AS, used to
// cross-check that a delta-synced client sees exactly what a full-fetch
// client sees.
func TestClientDeltaSync(t *testing.T) {
	_, _, mk := gdbWorld(t)
	reporter := mk("rep", "10.0.0.1")
	register(t, reporter)
	syncer := mk("sync", "10.0.0.2")
	fresh := mk("fresh", "10.0.0.3")

	post := func(c *Client, urls ...string) {
		t.Helper()
		recs := make([]localdb.Record, 0, len(urls))
		for _, u := range urls {
			recs = append(recs, blockedRec(u, 100, localdb.BlockDNS, "nxdomain"))
		}
		if _, err := c.Report(context.Background(), recs); err != nil {
			t.Fatal(err)
		}
	}
	// A wide baseline in one batch: the reporter's d is fixed afterwards, so
	// the baseline entries never change again and the later drift is a small
	// delta rather than a full rewrite.
	post(reporter, "one.example/", "two.example/", "three.example/", "four.example/", "five.example/")
	if _, ok := syncer.Lookup(100, "one.example/"); ok {
		t.Fatal("Lookup answered before any fetch")
	}
	if _, err := syncer.FetchBlocked(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	// Converged: next sync is a 304, and the list it leaves alone still answers.
	if _, err := syncer.FetchBlocked(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	if e, ok := syncer.Lookup(100, "one.example/"); !ok || e.URL != "one.example/" {
		t.Fatalf("Lookup after a 304 = %+v, %v", e, ok)
	}

	// Drift from a different client so the baseline votes stay untouched.
	reporter2 := mk("rep2", "10.0.0.4")
	register(t, reporter2)
	post(reporter2, "six.example/")
	got, err := syncer.FetchBlocked(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.FetchBlocked(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if !entriesEqual(got, want) {
		t.Fatalf("delta-synced list diverges from full fetch:\n got %+v\nwant %+v", got, want)
	}
	// Lookup reads the merged list: every URL of it, no other, no other AS.
	for _, w := range want {
		if e, ok := syncer.Lookup(100, w.URL); !ok || !entryEqual(e, w) {
			t.Fatalf("Lookup(%q) after a delta = %+v, %v; want %+v", w.URL, e, ok, w)
		}
	}
	if _, ok := syncer.Lookup(100, "seven.example/"); ok {
		t.Fatal("Lookup found a URL nobody reported")
	}
	if _, ok := syncer.Lookup(200, "six.example/"); ok {
		t.Fatal("Lookup answered for an AS never fetched")
	}
	st := syncer.Stats()
	if st.FetchFull != 1 || st.Fetch304 != 1 || st.FetchDelta != 1 {
		t.Fatalf("syncer stats = %+v, want 1 full + 1 304 + 1 delta", st)
	}
	if fs := fresh.Stats(); fs.FetchDelta != 0 || fs.FetchFull != 1 {
		t.Fatalf("fresh stats = %+v", fs)
	}
	if st.ListBytes <= fresh.Stats().ListBytes {
		// The syncer transferred a full body AND a delta; the fresh client
		// one larger full body. The delta must have cost less than a second
		// full fetch.
		t.Logf("syncer bytes %d, fresh bytes %d", st.ListBytes, fresh.Stats().ListBytes)
	}
}

// TestClientTagDowngrade pins the client against outside input: the server
// always sends an ETag, but a client that is then handed a 200 without one
// (a foreign implementation, a middlebox rewriting the response) must drop
// its cached tag — never re-sending the stale tag where it could spuriously
// match another backend's unrelated tag.
func TestClientTagDowngrade(t *testing.T) {
	clock := vtime.New(1000)
	n := netem.New(clock, netem.WithSeed(41), netem.WithJitter(0))
	pk := n.AddAS(100, "ISP", "PK")
	cloud := n.AddAS(900, "Cloud", "US")
	n.SetRTT("pk", "us", 100*time.Millisecond)

	// Two backends at different addresses with different content for the
	// same AS: a real server, and a stub answering every request with an
	// ETag-less 200.
	tagged := NewServer(clock, nil)
	if err := tagged.Attach(n.MustAddHost("tagged", "40.0.0.1", "us", cloud), 80); err != nil {
		t.Fatal(err)
	}
	tagged.store.addUser("seed")
	if _, ok := tagged.store.ingest("seed", clock.Now(), []Report{
		{URL: "backend0.example/", ASN: 100, Tm: clock.Now()},
	}); !ok {
		t.Fatal("seed ingest rejected")
	}
	// The foreign backend does not sort its list either.
	taglessBody, err := json.Marshal(FetchResponse{ASN: 100, Entries: []Entry{
		{URL: "backend1.example/", ASN: 100, Votes: 1, Reporters: 1},
		{URL: "backend1.example/a", ASN: 100, Votes: 1, Reporters: 1},
		{URL: "backend1-b.example/", ASN: 100, Votes: 1, Reporters: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	l, err := n.MustAddHost("tagless", "40.0.0.2", "us", cloud).Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	httpx.Serve(l, httpx.HandlerFunc(func(*httpx.Request, netem.Flow) *httpx.Response {
		return httpx.NewResponse(200, taglessBody)
	}))

	h := n.MustAddHost("client", "10.0.0.1", "pk", pk)
	c := &Client{Endpoints: []string{"40.0.0.1:80"}, Host: "globaldb.example", Clock: clock,
		ReportDial: h.Dial, FetchDial: h.Dial}

	if _, err := c.FetchBlocked(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	tag := c.blocked[100].tag
	c.mu.Unlock()
	if tag == "" {
		t.Fatal("tagged backend served no tag")
	}

	// "Failover": the client now talks to the tagless backend.
	c.Endpoints = []string{"40.0.0.2:80"}
	entries, err := c.FetchBlocked(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("tagless backend served %+v, want its own content", entries)
	}
	for _, e := range entries {
		if _, ok := c.Lookup(100, e.URL); !ok {
			t.Fatalf("Lookup misses %q in a list that arrived unsorted", e.URL)
		}
	}
	c.mu.Lock()
	tag = c.blocked[100].tag
	c.mu.Unlock()
	if tag != "" {
		t.Fatalf("cached tag %q survived a tagless 200; must downgrade to \"\"", tag)
	}

	// Back on a tagged backend whose current tag happens to equal the
	// original stale one: the client must not send a stale If-None-Match
	// (it has none), so it gets the real full body, not a spurious 304.
	c.Endpoints = []string{"40.0.0.1:80"}
	entries, err = c.FetchBlocked(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].URL != "backend0.example/" {
		t.Fatalf("re-fetch from tagged backend served %+v", entries)
	}
	if st := c.Stats(); st.Fetch304 != 0 {
		t.Fatalf("spurious 304 across backends: %+v", st)
	}
}
