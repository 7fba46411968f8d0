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
	"testing"
	"time"
	"unsafe"

	"csaw/internal/httpx"
	"csaw/internal/localdb"
	"csaw/internal/netem"
	"csaw/internal/vtime"
)

// diffEntries is the reference diff the differential tests hold the store's
// one-pass walk (encodeLocked) to: it walks two URL-sorted entry slices and
// returns the entries of new that are absent-or-different in old, plus the
// URLs of old absent from new.
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

	// At the cap, recording an edit must not copy the history: the fleet
	// runs a cap of 4,096, where a copy per rebuild is 200 KiB.
	const fleetCap, appends = 4096, 4 * 4096
	idx.snapMu.Lock()
	defer idx.snapMu.Unlock()
	for i := 0; i < fleetCap; i++ {
		idx.recordEditLocked(deltaEdit{}, fleetCap)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < appends; i++ {
		idx.recordEditLocked(deltaEdit{}, fleetCap)
	}
	runtime.ReadMemStats(&after)
	if len(idx.history) != fleetCap {
		t.Fatalf("history holds %d edits at a cap of %d", len(idx.history), fleetCap)
	}
	perEdit := (after.TotalAlloc - before.TotalAlloc) / appends
	if limit := uint64(8 * unsafe.Sizeof(deltaEdit{})); perEdit > limit {
		t.Fatalf("recording an edit at the cap allocates %d bytes, want at most %d: the history is copied per rebuild", perEdit, limit)
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

// --- differential wire test -----------------------------------------------------
//
// The store joins list bodies from cached per-entry fragments; the reference
// below builds the same bodies the way the store used to — json.Marshal of a
// FetchResponse, and for a delta diffEntries between consecutive observed
// snapshots, a last-wins map fold of the edit suffix and json.Marshal of the
// DeltaResponse. runFetchOps drives one store through an op sequence decoded
// from bytes and holds every served answer to the reference byte for byte,
// which pins field order, both omitempty lists, JSON escaping, the
// 304/delta/full choice, and catches a fragment carried over stale.

// refEdit is one recorded snapshot transition, as the reference keeps it.
type refEdit struct {
	from    string
	changed []Entry
	removed []string
}

// refAS is the reference's view of one AS: the last snapshot observed and
// the transitions between observed snapshots, capped like the store's.
type refAS struct {
	seen    bool
	tag     string
	entries []Entry
	history []refEdit
}

// observe records the snapshot (tag, entries) the store just served from.
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
// reference. Writes are not observed: several may land between two fetches
// of an AS, so an edit can span many of them.
func runFetchOps(t *testing.T, data []byte) {
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
	for _, u := range fuzzUsers {
		s.addUser(u)
	}
	refs := map[int]*refAS{}
	served := map[int][]string{} // every tag served per AS, plus tags no snapshot ever had
	for _, asn := range append([]int{300}, fuzzASNs...) {
		refs[asn] = &refAS{}
		served[asn] = []string{"", "07.0", "7", "1.0", "x.y"}
	}
	now := utc
	for len(data) > 0 {
		switch op := next() % 8; {
		case op < 3: // ingest: re-reports, new keys (which change the user's d), stage changes
			reports := make([]Report, 1+next()%3)
			for i := range reports {
				reports[i] = Report{URL: fuzzURLs[next()%len(fuzzURLs)], ASN: fuzzASNs[next()%len(fuzzASNs)],
					Stages: fuzzStages[next()%len(fuzzStages)], Tm: utc}
			}
			now = now.Add(time.Duration(next()%2) * time.Minute) // equal post times break on uuid
			s.ingest(fuzzUsers[next()%len(fuzzUsers)], now, reports)
		case op == 3: // revocation is for good, so it is the rarest op
			if u := next(); u%4 == 0 {
				s.revoke(fuzzUsers[u/4%len(fuzzUsers)])
			}
		default: // fetch; AS 300 is never reported on
			asn := append([]int{300}, fuzzASNs...)[next()%3]
			// Any tag ever served, or (odd draws) one of the latest few.
			tags := served[asn]
			if n := next(); n%2 == 1 {
				tags = tags[max(len(tags)-4, 0):]
			}
			inm := tags[next()%len(tags)]
			got := s.fetchResponse(asn, inm)
			entries := s.blockedForAS(asn)
			full := mustMarshal(t, FetchResponse{ASN: asn, Entries: entries})
			ref := refs[asn]
			if s.asIndexFor(asn, false) != nil { // the store keeps no history for an AS without reports
				ref.observe(got.tag, entries, histMax)
			}
			want := fetchResult{tag: got.tag, body: full}
			if delta := ref.deltaBody(t, asn, inm); inm == got.tag {
				want = fetchResult{tag: got.tag, notModified: true}
			} else if delta != nil && len(delta) < len(full) {
				want = fetchResult{tag: got.tag, body: delta, delta: true}
			}
			if got.notModified != want.notModified || got.delta != want.delta || !bytes.Equal(got.body, want.body) {
				t.Fatalf("fetch(%d, %q) diverges from encoding/json:\n got %+v %s\nwant %+v %s",
					asn, inm, got, got.body, want, want.body)
			}
			if unconditional := s.fetchResponse(asn, ""); !bytes.Equal(unconditional.body, full) || unconditional.tag != got.tag {
				t.Fatalf("full body of AS %d at %q diverges from encoding/json:\n got %s\nwant %s",
					asn, got.tag, unconditional.body, full)
			}
			if !slices.Contains(served[asn], got.tag) {
				served[asn] = append(served[asn], got.tag)
			}
		}
	}
}

// TestFetchBodiesMatchEncodingJSON runs the differential check over seeded
// random op sequences, and over one written by hand for the case a random
// walk reaches rarely: a URL revoked away and re-added by another client
// while readers still hold tags from before (fuzzSeedReadd).
func TestFetchBodiesMatchEncodingJSON(t *testing.T) {
	t.Run("removed-then-readded", func(t *testing.T) { runFetchOps(t, fuzzSeedReadd) })
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint("seed-", seed), func(t *testing.T) {
			data := make([]byte, 600)
			rand.New(rand.NewSource(seed)).Read(data)
			runFetchOps(t, data)
		})
	}
}

// fuzzSeedReadd encodes, in runFetchOps' op format (ingest: op, reports-1,
// {url, asn, stages}…, minutes, user; revoke: 3, 4·user; fetch: op, asn,
// even to draw from every tag, tag):
var fuzzSeedReadd = []byte{
	0,                            // default history cap
	0, 1, 6, 0, 2, 0, 0, 0, 0, 0, // u0 reports a.example/ and plain.example/ on AS 100
	0, 2, 7, 0, 2, 8, 0, 2, 1, 0, 2, 0, 3, // u3 reports three more, which never change again
	5, 1, 0, 0, // fetch: full, tag "2.0" (served[5])
	0, 0, 6, 0, 3, 1, 2, // u2 re-reports a.example/ a minute later with other stages
	3, 0, // revoke u0: plain.example/ leaves the list
	5, 1, 0, 0, // fetch: full, tag "3.1" (served[6])
	3, 8, // revoke u2: a.example/ leaves the list
	5, 1, 0, 6, // fetch at "3.1": delta removing a.example/; tag "3.2" (served[7])
	0, 0, 6, 0, 4, 1, 1, // u1 re-adds a.example/
	5, 1, 0, 5, // fetch at "2.0": a.example/ changed, plain.example/ removed; tag "4.2" (served[8])
	5, 1, 0, 7, // fetch at "3.2": a.example/ changed
	5, 1, 0, 6, // fetch at "3.1": a.example/ removed then re-added folds to changed
	5, 1, 0, 8, // fetch at "4.2": 304
	5, 0, 0, 0, 5, 0, 0, 5, // AS 300, never reported on: empty full body, then 304
}

func FuzzFetchBodies(f *testing.F) {
	f.Add(fuzzSeedReadd)
	f.Fuzz(runFetchOps)
}
