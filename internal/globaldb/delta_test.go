package globaldb

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"csaw/internal/globaldb/storage"
	"csaw/internal/httpx"
	"csaw/internal/localdb"
	"csaw/internal/netem"
	"csaw/internal/vtime"
)

// diffEntries is the reference diff the differential tests hold the store's
// stamps to: it walks two URL-sorted entry slices and returns the entries of
// new that are absent-or-different in old, plus the URLs of old absent from
// new.
func diffEntries(old, new []Entry) (changed []Entry, removed []string) {
	i, j := 0, 0
	for i < len(old) || j < len(new) {
		switch {
		case j >= len(new) || (i < len(old) && old[i].URL < new[j].URL):
			removed = append(removed, old[i].URL)
			i++
		case i >= len(old) || new[j].URL < old[i].URL:
			changed = append(changed, new[j])
			j++
		default:
			if !entryEqual(old[i], new[j]) {
				changed = append(changed, new[j])
			}
			i++
			j++
		}
	}
	return changed, removed
}

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

func TestSpliceReconstructsFullList(t *testing.T) {
	e := func(url string, n int) Entry { return Entry{URL: url, ASN: 1, Reporters: n} }
	base := []Entry{e("a/", 1), e("b/", 1), e("c/", 1)}
	got := splice(base, []Entry{e("b/", 2), e("d/", 1)}, []string{"c/"})
	want := []Entry{e("a/", 1), e("b/", 2), e("d/", 1)}
	if !reflect.DeepEqual(got, want) || cap(got) != len(want) {
		t.Fatalf("splice = %+v (cap %d), want %+v", got, cap(got), want)
	}
	// Base must be untouched and the result freshly allocated.
	if !reflect.DeepEqual(base, []Entry{e("a/", 1), e("b/", 1), e("c/", 1)}) {
		t.Fatal("splice mutated its base")
	}
	if got := splice(nil, []Entry{e("x/", 1)}, nil); len(got) != 1 {
		t.Fatalf("splice into empty base: %+v", got)
	}
	// The common delta removes nothing and brings no new URL: one allocation,
	// the result, sized to the base.
	if got := splice(base, []Entry{e("b/", 2)}, nil); cap(got) != len(base) {
		t.Fatalf("splice changing one entry has room for %d, base holds %d", cap(got), len(base))
	}
	if n := testing.AllocsPerRun(20, func() { splice(base, []Entry{e("b/", 2)}, nil) }); n != 1 {
		t.Fatalf("splice with nothing removed allocates %v times, want 1", n)
	}
	if got := splice(base, []Entry{e("b/", 2), e("bb/", 1), e("d/", 1)}, nil); cap(got) != len(base)+2 || len(got) != len(base)+2 {
		t.Fatalf("splice bringing two new URLs: len %d cap %d, base holds %d", len(got), cap(got), len(base))
	}
	// A removed URL the delta also changes keeps the change; one base lacks
	// removes nothing; removals at both ends and in a run between changes go.
	got = splice(base, []Entry{e("b/", 2)}, []string{"0/", "b/", "bb/"})
	if want := []Entry{e("a/", 1), e("b/", 2), e("c/", 1)}; !reflect.DeepEqual(got, want) || cap(got) != len(want) {
		t.Fatalf("splice = %+v (cap %d), want %+v", got, cap(got), want)
	}
	got = splice(base, []Entry{e("b/", 2)}, []string{"a/", "c/"})
	if want := []Entry{e("b/", 2)}; !reflect.DeepEqual(got, want) || cap(got) != len(want) {
		t.Fatalf("splice = %+v (cap %d), want %+v", got, cap(got), want)
	}
	// A URL removed more than once goes once: the copies outnumbering the
	// base's entries must not size the result below zero.
	got = splice([]Entry{e("a/", 1)}, nil, []string{"a/", "a/"})
	if len(got) != 0 {
		t.Fatalf("splice removing a/ twice from [a/] = %+v", got)
	}
	got = splice(base, []Entry{e("b/", 2)}, []string{"a/", "a/", "a/", "c/", "c/"})
	if want := []Entry{e("b/", 2)}; !reflect.DeepEqual(got, want) || cap(got) != len(want) {
		t.Fatalf("splice = %+v (cap %d), want %+v", got, cap(got), want)
	}
}

// TestShardedDeltaServing pins the store-level delta contract: a stale tag
// still among the marks gets a DeltaResponse whose application to the
// cached entries reproduces the current full list exactly; unknown tags
// fall back to the full body.
func TestShardedDeltaServing(t *testing.T) {
	s := mustOpenStore(t, StoreOptions{})
	s.addUser("u1")
	s.addUser("u2")
	s.addUser("u3")
	stage := []WireStage{{Type: 1, Detail: "nxdomain"}}
	// A wide baseline from u1 in one batch: u1's per-client d never changes
	// again, so these entries' votes stay fixed and only genuine drift is
	// stamped. (A lone reporter adding URLs one at a time would
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

	// Drift across three records: u2 adds an entry, then u3 adds another and
	// u2's entry is revoked away. The delta from first.tag must carry each
	// slot's last word: u2's URL appears only in removed, u3's only in
	// changed.
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
	merged := splice(firstList.Entries, dr.Changed, dr.Removed)
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

// TestDeltaHistoryCap pins that the history is bounded in marks — states
// the AS has left, whether or not anybody read them — that a tag older than
// the cap falls back to the full body, and that a tombstone goes once no
// mark predates it.
func TestDeltaHistoryCap(t *testing.T) {
	s := mustOpenStore(t, StoreOptions{})
	user := func(i int) string { return fmt.Sprintf("u%03d", i) }
	// Every client reports once, so its d never moves and a delta is the
	// handful of entries added since, not the whole list.
	add := func(i int) {
		s.addUser(user(i))
		s.ingest(user(i), utc, []Report{{URL: fmt.Sprintf("%s.example/", user(i)), ASN: 100, Tm: utc}})
	}
	tags := []string{}
	for i := 0; i < 10; i++ {
		add(i)
		tags = append(tags, s.fetchResponse(100, "").tag)
	}
	s.revoke(user(3)) // u003.example/ becomes a tombstone
	tags = append(tags, s.fetchResponse(100, "").tag)
	idx := s.asIndexFor(100)
	tombstones := func() (n int) {
		idx.mu.Lock()
		defer idx.mu.Unlock()
		for _, sl := range idx.order {
			if sl.entry.Reporters == 0 {
				n++
			}
		}
		if _, filed := idx.byURL["u003.example/"]; filed != (n == 1) || n > 1 {
			t.Fatalf("%d tombstones in the order, u003.example/ filed = %v", n, filed)
		}
		return n
	}
	if res := s.fetchResponse(100, tags[5]); !res.delta || !bytes.Contains(res.body, []byte(`"removed":["u003.example/"]`)) {
		t.Fatalf("a tag from before the revocation is owed the removal, got %+v %s", res, res.body)
	}
	if tombstones() != 1 {
		t.Fatal("the tombstone went while marks still predate it")
	}

	// Nobody reads while the next states go by: the cap counts them all the same.
	for i := 10; i < 10+deltaHistoryMax; i++ {
		add(i)
	}
	idx.mu.Lock()
	marks, oldest := len(idx.marks), snapTag(idx.marks[0].ver, idx.marks[0].rev)
	idx.mu.Unlock()
	if marks != deltaHistoryMax {
		t.Fatalf("history holds %d marks, cap is %d", marks, deltaHistoryMax)
	}
	if oldest != tags[10] {
		t.Fatalf("oldest mark is %q, want the tag %d states back, %q", oldest, deltaHistoryMax, tags[10])
	}
	if res := s.fetchResponse(100, tags[10]); !res.delta {
		t.Fatalf("the oldest marked tag, never served, answered %+v", res)
	}
	if res := s.fetchResponse(100, tags[9]); res.delta || res.notModified {
		t.Fatalf("evicted tag must fall back to full body, got %+v", res)
	}
	if tombstones() != 0 {
		t.Fatal("a tombstone older than the oldest mark was kept")
	}

	// At the cap, leaving a mark must not copy the history: the fleet runs
	// a cap of 4,096, where a copy per write is 100 KiB.
	const fleetCap, appends = 4096, 4 * 4096
	idx.mu.Lock()
	defer idx.mu.Unlock()
	leave := func() {
		idx.marks = append(idx.marks, mark{})
		idx.trimMarks(fleetCap)
	}
	for i := 0; i < fleetCap; i++ {
		leave()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < appends; i++ {
		leave()
	}
	runtime.ReadMemStats(&after)
	if len(idx.marks) != fleetCap {
		t.Fatalf("history holds %d marks at a cap of %d", len(idx.marks), fleetCap)
	}
	perMark := (after.TotalAlloc - before.TotalAlloc) / appends
	if limit := uint64(8 * unsafe.Sizeof(mark{})); perMark > limit {
		t.Fatalf("leaving a mark at the cap allocates %d bytes, want at most %d: the history is copied per write", perMark, limit)
	}
}

// TestFetchIsAFunctionOfTheStream: what a fetch answers depends on the
// records folded and the request, never on who read what before. One record
// sequence — d changes, re-reports, a stage change, a revocation, a URL
// removed and re-added — goes to stores read after every record, after every
// fifth, only at the end, and all the while by eight concurrent fetchers;
// then every tag the stream ever put an AS at gets the same tag, kind and
// bytes from all four. (While the first reader after a write did the
// aggregating, the unread store had no history and served full bodies.)
func TestFetchIsAFunctionOfTheStream(t *testing.T) {
	stage := []WireStage{{Type: 1, Detail: "nxdomain"}}
	rst := []WireStage{{Type: 4, Detail: "rst"}}
	at := func(min int) time.Time { return utc.Add(time.Duration(min) * time.Minute) }
	one := func(url string, asn int, st []WireStage) []Report {
		return []Report{{URL: url, ASN: asn, Stages: st, Tm: utc}}
	}
	var base []Report
	for i := 0; i < 8; i++ {
		base = append(base, Report{URL: fmt.Sprintf("base%d.example/", i), ASN: 100, Stages: stage, Tm: utc})
	}
	stream := []*storage.Record{
		{Kind: storage.KindAddUser, UUID: "a"}, {Kind: storage.KindAddUser, UUID: "b"},
		{Kind: storage.KindAddUser, UUID: "c"}, {Kind: storage.KindAddUser, UUID: "d"},
		ingestRecord("a", at(0), base),
		ingestRecord("b", at(1), one("b1.example/", 100, stage)),
		ingestRecord("b", at(2), one("b2.example/", 200, stage)),  // b's d moves: b1's vote halves
		ingestRecord("a", at(3), base[:2]),                        // re-report: LastTp moves on two entries
		ingestRecord("c", at(4), one("base0.example/", 100, rst)), // a later post with other stages represents base0
		ingestRecord("d", at(5), one("gone.example/", 100, stage)),
		ingestRecord("nobody", at(5), one("x.example/", 100, stage)), // unknown uuid: folds to nothing
		{Kind: storage.KindRevoke, UUID: "d"},                        // gone.example/ leaves AS 100; AS 200 only changes epoch
		ingestRecord("a", at(3), base[:2]),                           // vote refresh: the tag moves, no entry does
		ingestRecord("c", at(6), one("gone.example/", 100, rst)),     // re-added by another client; c's d moves
		ingestRecord("b", at(7), one("b3.example/", 200, stage)),
		{Kind: storage.KindRevoke, UUID: "d"}, // again: the epoch moves, nothing else
		ingestRecord("c", at(8), one("c1.example/", 200, stage)),
	}
	asns := []int{100, 200, 300}
	read := func(s *store, tags map[int]string) {
		for _, asn := range asns {
			tags[asn] = s.fetchResponse(asn, tags[asn]).tag
			s.fetchResponse(asn, "")
			s.blockedForAS(asn)
		}
	}
	known := map[int][]string{}
	for _, asn := range asns {
		known[asn] = []string{"", "1.1", "x.y"}
	}
	var stores []*store
	for _, every := range []int{1, 5, 0} {
		s := mustOpenStore(t, StoreOptions{})
		tags := map[int]string{}
		for i, rec := range stream {
			if _, err := s.apply(rec); err != nil {
				t.Fatal(err)
			}
			if every > 0 && (i+1)%every == 0 {
				read(s, tags)
			}
			for _, asn := range asns {
				if tag := tags[asn]; every == 1 && !slices.Contains(known[asn], tag) {
					known[asn] = append(known[asn], tag)
				}
			}
		}
		stores = append(stores, s)
	}
	contended := mustOpenStore(t, StoreOptions{})
	stop := make(chan struct{})
	var fetchers sync.WaitGroup
	for g := 0; g < 8; g++ {
		fetchers.Add(1)
		go func() {
			defer fetchers.Done()
			tags := map[int]string{}
			for {
				select {
				case <-stop:
					return
				default:
					read(contended, tags)
				}
			}
		}()
	}
	for _, rec := range stream {
		if _, err := contended.apply(rec); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	fetchers.Wait()
	stores = append(stores, contended)

	deltas := 0
	for _, asn := range asns {
		if asn != 300 && len(known[asn]) < 8 {
			t.Fatalf("AS %d went through only %d tags: %q", asn, len(known[asn]), known[asn])
		}
		for _, inm := range known[asn] {
			want := stores[0].fetchResponse(asn, inm)
			if want.delta {
				deltas++
			}
			for i, s := range stores[1:] {
				got := s.fetchResponse(asn, inm)
				if got.tag != want.tag || got.notModified != want.notModified || got.delta != want.delta || !bytes.Equal(got.body, want.body) {
					t.Errorf("fetch(%d, %q): store %d diverges from the store read after every record:\n got %q 304=%v delta=%v %s\nwant %q 304=%v delta=%v %s",
						asn, inm, i+1, got.tag, got.notModified, got.delta, got.body, want.tag, want.notModified, want.delta, want.body)
				}
			}
		}
	}
	if deltas < 8 {
		t.Fatalf("only %d of the stream's tags were answered by delta", deltas)
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
	st, fs := syncer.Counters().Snapshot(), fresh.Counters().Snapshot()
	if st["fetch-full"] != 1 || st["fetch-304"] != 1 || st["fetch-delta"] != 1 {
		t.Fatalf("syncer counters = %v, want 1 full + 1 304 + 1 delta", st)
	}
	if fs["fetch-delta"] != 0 || fs["fetch-full"] != 1 {
		t.Fatalf("fresh counters = %v", fs)
	}
	if st["list-bytes"] <= fs["list-bytes"] {
		// The syncer transferred a full body AND a delta; the fresh client
		// one larger full body. The delta must have cost less than a second
		// full fetch.
		t.Logf("syncer bytes %d, fresh bytes %d", st["list-bytes"], fs["list-bytes"])
	}
}

// TestClientTagDowngrade pins the client against outside input: the server
// always sends an ETag, but a client that is then handed a 200 without one
// (a foreign implementation, a middlebox rewriting the response) must drop
// its cached tag — never re-sending the stale tag where it could spuriously
// match another backend's unrelated tag.
func TestClientTagDowngrade(t *testing.T) {
	clock := vtime.New(1000)
	n := netem.New(clock, netem.WithSeed(41))
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
	tag := c.cacheLocked(100).tag
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
	tag = c.cacheLocked(100).tag
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
	if n := c.Counters().Get("fetch-304"); n != 0 {
		t.Fatalf("spurious 304 across backends: %d", n)
	}
}

// --- differential wire test -----------------------------------------------------
//
// The store joins list bodies from cached per-entry fragments and finds a
// delta by its stamps; the reference below builds the same bodies the way the
// store used to — json.Marshal of a FetchResponse over the sequential model's
// list (legacy_test.go), and for a delta diffEntries between consecutive
// states, a last-wins map fold of the edit suffix and json.Marshal of the
// DeltaResponse — and names the states itself, from the record stream. runFetchOps drives one store through an op sequence
// decoded from bytes and holds every served answer to the reference byte for
// byte, which pins the tags, field order, both omitempty lists, JSON
// escaping, the 304/delta/full choice, and catches a fragment carried over
// stale.

// refEdit is one state transition, as the reference keeps it.
type refEdit struct {
	from    string
	changed []Entry
	removed []string
}

// refAS is the reference's view of one AS: the state the last write left it
// in and the transitions between states, capped like the store's.
type refAS struct {
	seen    bool
	tag     string
	entries []Entry
	history []refEdit
}

// observe records the state (tag, entries) a write left the AS in.
func (r *refAS) observe(tag string, entries []Entry, max int) {
	if r.seen && tag != r.tag {
		changed, removed := diffEntries(r.entries, entries)
		r.history = append(r.history, refEdit{from: r.tag, changed: changed, removed: removed})
		if len(r.history) > max {
			r.history = r.history[len(r.history)-max:]
		}
	}
	r.seen, r.tag, r.entries = true, tag, entries
}

// deltaBody is the DeltaResponse owed to a client at tag inm, or nil when
// inm is not in the history.
func (r *refAS) deltaBody(t *testing.T, asn int, inm string) []byte {
	start := -1
	for i := range r.history {
		if r.history[i].from == inm {
			start = i
			break
		}
	}
	if start < 0 {
		return nil
	}
	changed := make(map[string]Entry)
	removed := make(map[string]bool)
	for _, e := range r.history[start:] {
		for _, c := range e.changed {
			changed[c.URL] = c
			delete(removed, c.URL)
		}
		for _, u := range e.removed {
			removed[u] = true
			delete(changed, u)
		}
	}
	dr := DeltaResponse{ASN: asn, Since: inm}
	for _, u := range sortedKeys(changed) {
		dr.Changed = append(dr.Changed, changed[u])
	}
	dr.Removed = sortedKeys(removed)
	if len(dr.Removed) == 0 {
		dr.Removed = nil
	}
	return mustMarshal(t, dr)
}

// refTags names every AS's state from the record stream alone: an AS's
// version counts the accepted ingests that reported on it or moved the d of
// a client that has, and the epoch counts revocations.
type refTags struct {
	ver     map[int]int64
	rev     int64
	keys    map[string]map[string]bool // uuid → "url|asn"
	asns    map[string]map[int]bool    // uuid → ASes reported on
	revoked map[string]bool
}

func (r *refTags) ingest(uuid string, reports []Report) {
	if r.revoked[uuid] {
		return
	}
	if r.keys[uuid] == nil {
		r.keys[uuid], r.asns[uuid] = map[string]bool{}, map[int]bool{}
	}
	moved, affected := false, map[int]bool{}
	for _, rep := range reports {
		key := reportKey(rep.URL, rep.ASN)
		moved = moved || !r.keys[uuid][key]
		r.keys[uuid][key], r.asns[uuid][rep.ASN], affected[rep.ASN] = true, true, true
	}
	if moved {
		affected = r.asns[uuid]
	}
	for asn := range affected {
		r.ver[asn]++
	}
}

func (r *refTags) tag(asn int) string { return snapTag(r.ver[asn], r.rev) }

// repeatsURL reports whether two of a URL-sorted list's entries share a URL.
func repeatsURL(entries []Entry) bool {
	for i := 1; i < len(entries); i++ {
		if entries[i].URL == entries[i-1].URL {
			return true
		}
	}
	return false
}

// decoded is entries as encoding/json hands them to a client.
func decoded(t *testing.T, entries []Entry) []Entry {
	var fr FetchResponse
	if err := json.Unmarshal(mustMarshal(t, FetchResponse{Entries: entries}), &fr); err != nil {
		t.Fatal(err)
	}
	return fr.Entries
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The op decoder's vocabulary: URLs and stage details that need every kind
// of JSON escaping (HTML-unsafe characters, quote and backslash, U+2028,
// invalid UTF-8), an empty detail, and nil, empty and multi-stage lists.
var (
	fuzzURLs = []string{
		"plain.example/", "plain.example/path", `<script>&"q"\.example/`, "line\u2028sep.example/",
		"bad\xffutf8.example/", "bad\xfeutf8.example/", "a.example/", "b.example/", "c.example/?x=1&y=<2>",
		"d.example/", "e.example/", "f.example/", "g.example/", "h.example/", "i.example/", "j.example/",
	}
	fuzzStages = [][]WireStage{
		nil, {}, {{Type: 1, Detail: "nxdomain"}}, {{Type: 2}}, {{Type: 3, Detail: `<&>"\`}, {Type: 4, Detail: "\u2028\xff"}},
	}
	fuzzASNs  = []int{100, 200}
	fuzzUsers = []string{"u0", "u1", "u2", "u3", "u4", "u5", "u6", "u7"}
)

// runFetchOps decodes data into ingests, revocations and conditional
// fetches against a fresh store and checks every fetch against the
// reference, which observes every write: any tag naming a state the AS was
// in within the cap is owed a delta, whether or not a reader was ever served
// it. With decode set, a client holding the list of the fetch's tag also
// decodes every body served: by the fast path, to the model's list.
func runFetchOps(t *testing.T, data []byte, decode bool) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	s := mustOpenStore(t, StoreOptions{})
	histMax := deltaHistoryMax
	if n := next() % 8; n > 0 {
		histMax = n // small caps put eviction within reach of a short sequence
		s.histMax.Store(int64(n))
	}
	model := newLegacyStore() // the lists come from it, not from the store
	for _, u := range fuzzUsers {
		s.addUser(u)
		model.addUser(u)
	}
	allASNs := append([]int{300}, fuzzASNs...) // AS 300 is never reported on
	names := refTags{ver: map[int]int64{}, keys: map[string]map[string]bool{}, asns: map[string]map[int]bool{}, revoked: map[string]bool{}}
	refs := map[int]*refAS{}
	known := map[int][]string{}           // every tag an AS was ever at, after tags none ever had
	lists := map[int]map[string][]Entry{} // the list each tag the AS was at names
	for _, asn := range allASNs {
		refs[asn] = &refAS{}
		known[asn] = []string{"", "07.0", "7", "1.0", "x.y", "2.9"}
		lists[asn] = map[string][]Entry{}
	}
	wrote := func() {
		for _, asn := range allASNs {
			tag := names.tag(asn)
			if names.ver[asn] > 0 { // the store keeps no history for an AS without reports
				refs[asn].observe(tag, model.blockedForAS(asn), histMax)
			}
			if !slices.Contains(known[asn], tag) {
				known[asn] = append(known[asn], tag)
			}
			if _, ok := lists[asn][tag]; !ok {
				lists[asn][tag] = model.blockedForAS(asn)
			}
		}
	}
	wrote()
	now := utc
	for len(data) > 0 {
		switch op := next() % 8; {
		case op < 3: // ingest: re-reports, new keys (which change the user's d), stage changes
			reports := make([]Report, 1+next()%3)
			for i := range reports {
				reports[i] = Report{URL: fuzzURLs[next()%len(fuzzURLs)], ASN: fuzzASNs[next()%len(fuzzASNs)],
					Stages: fuzzStages[next()%len(fuzzStages)], Tm: utc}
			}
			// Equal post times break on uuid, and a post may land earlier than
			// the one it replaces: after a failover the new primary's clock does.
			now = now.Add(time.Duration((next()+1)%3-1) * time.Minute)
			user := fuzzUsers[next()%len(fuzzUsers)]
			s.ingest(user, now, reports)
			model.ingest(user, now, reports)
			names.ingest(user, reports)
			wrote()
		case op == 3: // revocation is for good, so it is the rarest op
			if u := next(); u%4 == 0 {
				s.revoke(fuzzUsers[u/4%len(fuzzUsers)])
				model.revoke(fuzzUsers[u/4%len(fuzzUsers)])
				names.revoked[fuzzUsers[u/4%len(fuzzUsers)]] = true
				names.rev++
				wrote()
			}
		default: // fetch
			asn := allASNs[next()%3]
			// Any tag the AS was ever at, or (odd draws) one of the latest few.
			tags := known[asn]
			if n := next(); n%2 == 1 {
				tags = tags[max(len(tags)-4, 0):]
			}
			inm := tags[next()%len(tags)]
			got := s.fetchResponse(asn, inm)
			full := mustMarshal(t, FetchResponse{ASN: asn, Entries: model.blockedForAS(asn)})
			if decode && !got.notModified {
				// The lists as a client holds them: through JSON, which makes
				// invalid UTF-8 U+FFFD — and so can make two URLs one, a list
				// no client can hold, which the fast path rightly refuses.
				base, list := decoded(t, lists[asn][inm]), decoded(t, model.blockedForAS(asn))
				l, ok := scanList(got.body, base, got.delta)
				if !repeatsURL(base) && !repeatsURL(list) && (!ok || !entriesEqual(l.entries, list) || (got.delta && l.since != inm)) {
					t.Fatalf("a client at %q decoding fetch(%d): fast path %v, since %q, list\n %+v\nwant %+v\nbody %s",
						inm, asn, ok, l.since, l.entries, list, got.body)
				}
			}
			if got := mustMarshal(t, FetchResponse{ASN: asn, Entries: s.blockedForAS(asn)}); !bytes.Equal(got, full) {
				t.Fatalf("BlockedForAS(%d) diverges from the model:\n got %s\nwant %s", asn, got, full)
			}
			tag := names.tag(asn)
			want := fetchResult{tag: tag, body: full}
			if delta := refs[asn].deltaBody(t, asn, inm); inm == tag {
				want = fetchResult{tag: tag, notModified: true}
			} else if delta != nil && len(delta) < len(full) {
				want = fetchResult{tag: tag, body: delta, delta: true}
			}
			if got.tag != want.tag || got.notModified != want.notModified || got.delta != want.delta || !bytes.Equal(got.body, want.body) {
				t.Fatalf("fetch(%d, %q) diverges from encoding/json:\n got %+v %s\nwant %+v %s",
					asn, inm, got, got.body, want, want.body)
			}
			if unconditional := s.fetchResponse(asn, ""); !bytes.Equal(unconditional.body, full) || unconditional.tag != tag {
				t.Fatalf("full body of AS %d at %q diverges from encoding/json:\n got %s\nwant %s",
					asn, tag, unconditional.body, full)
			}
		}
	}
}

// TestFetchBodiesMatchEncodingJSON runs the differential check over seeded
// random op sequences, and over one written by hand for the case a random
// walk reaches rarely: a URL revoked away and re-added by another client
// while readers still hold tags from before (fuzzSeedReadd).
func TestFetchBodiesMatchEncodingJSON(t *testing.T) {
	t.Run("removed-then-readded", func(t *testing.T) { runFetchOps(t, fuzzSeedReadd, false) })
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint("seed-", seed), func(t *testing.T) {
			data := make([]byte, 600)
			rand.New(rand.NewSource(seed)).Read(data)
			runFetchOps(t, data, false)
		})
	}
}

// fuzzSeedReadd encodes, in runFetchOps' op format (ingest: op, reports-1,
// {url, asn, stages}…, minutes, user; revoke: 3, 4·user; fetch: op, asn,
// even to draw from every tag, tag — known[6] is "0.0", and "1.0" is known
// from the start):
var fuzzSeedReadd = []byte{
	0,                            // default history cap
	0, 1, 6, 0, 2, 0, 0, 0, 0, 0, // u0 reports a.example/ and plain.example/ on AS 100: "1.0"
	0, 2, 7, 0, 2, 8, 0, 2, 1, 0, 2, 0, 3, // u3 reports three more, which never change again: "2.0" (known[7])
	5, 1, 0, 0, // fetch: full
	0, 0, 6, 0, 3, 1, 2, // u2 re-reports a.example/ a minute later with other stages: "3.0" (known[8]), which no reader is served
	3, 0, // revoke u0: plain.example/ leaves the list; "3.1" (known[9])
	5, 1, 0, 0, // fetch: full
	3, 8, // revoke u2: a.example/ leaves the list; "3.2" (known[10])
	5, 1, 0, 9, // fetch at "3.1": delta removing a.example/
	0, 0, 6, 0, 4, 1, 1, // u1 re-adds a.example/: "4.2" (known[11])
	5, 1, 0, 7, // fetch at "2.0": a.example/ changed, plain.example/ removed
	5, 1, 0, 10, // fetch at "3.2": a.example/ changed
	5, 1, 0, 9, // fetch at "3.1": a.example/ removed then re-added folds to changed
	5, 1, 0, 8, // fetch at "3.0", never served: the same two lines as at "2.0"
	5, 1, 0, 11, // fetch at "4.2": 304
	5, 0, 0, 0, 5, 0, 0, 8, // AS 300, never reported on: empty full body, then 304 at "0.2"
}

func FuzzFetchBodies(f *testing.F) {
	f.Add(fuzzSeedReadd)
	f.Fuzz(func(t *testing.T, data []byte) { runFetchOps(t, data, true) })
}
