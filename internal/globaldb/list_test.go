package globaldb

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"csaw/internal/httpx"
	"csaw/internal/netem"
	"csaw/internal/vtime"
)

// listBase is the cached list the list-decoder seeds decode against: nil,
// empty and escaped stage lists, and a URL json.Marshal escapes.
var listBase = []Entry{
	{URL: "a.example/", ASN: 100, Stages: []WireStage{{Type: 1, Detail: "nxdomain"}}, LastTp: utc, Votes: 0.5, Reporters: 1},
	{URL: "b.example/", ASN: 100, Stages: []WireStage{}, LastTp: utc, Votes: 1, Reporters: 2},
	{URL: "c.example/?x=1&y=<2>", ASN: 100, LastTp: utc, Votes: 1, Reporters: 1},
	{URL: "d.example/", ASN: 100, Stages: []WireStage{{Type: 3, Detail: "<&>"}}, LastTp: utc, Votes: 0.25, Reporters: 1},
}

// refApply is a delta's meaning, by map: base's entries by URL, less the
// removed ones, with each changed entry — the first line for a URL the
// delta names twice — in place of base's or beside them.
func refApply(base, changed []Entry, removed []string) []Entry {
	m := make(map[string]Entry, len(base))
	for _, e := range base {
		m[e.URL] = e
	}
	for _, u := range removed {
		delete(m, u)
	}
	for i := len(changed) - 1; i >= 0; i-- {
		m[changed[i].URL] = changed[i]
	}
	out := make([]Entry, 0, len(m))
	for _, u := range sortedKeys(m) {
		out = append(out, m[u])
	}
	return out
}

// sameListBody compares two decoded bodies value for value; a full list's
// nil (null or absent) and empty ([]) are told apart, as encoding/json does.
func sameListBody(a, b listBody, full bool) bool {
	if a.asn != b.asn || a.since != b.since || len(a.entries) != len(b.entries) ||
		(full && (a.entries == nil) != (b.entries == nil)) {
		return false
	}
	for i := range a.entries {
		if !reflect.DeepEqual(a.entries[i], b.entries[i]) {
			return false
		}
	}
	return true
}

// checkListDecode is the list decoder's contract on one body against one
// base: whatever the fast path accepts, json.Unmarshal accepts, and the fast
// path's value is encoding/json's — a full body's list as decoded, a delta
// spliced into base as refApply does. decodeList answers as json.Unmarshal
// does, a full list sorted by URL. It reports whether the fast path took
// the body.
func checkListDecode(t *testing.T, body []byte, base []Entry, delta bool) bool {
	t.Helper()
	var (
		want    listBody
		wantErr error
	)
	if delta {
		var dr DeltaResponse
		wantErr = json.Unmarshal(body, &dr)
		want = listBody{asn: dr.ASN, since: dr.Since, entries: refApply(base, dr.Changed, dr.Removed)}
	} else {
		var fr FetchResponse
		wantErr = json.Unmarshal(body, &fr)
		want = listBody{asn: fr.ASN, entries: fr.Entries}
	}
	got, fast := scanList(body, base, delta)
	if fast && (wantErr != nil || !sameListBody(got, want, !delta)) {
		t.Fatalf("fast path decoded %q (delta %v) to\n %+v\nencoding/json: %+v, %v", body, delta, got, want, wantErr)
	}
	got, err := decodeList(body, base, delta)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("decodeList(%q) error %v; encoding/json %v", body, err, wantErr)
	}
	if err == nil {
		slices.SortStableFunc(want.entries, byURL)
		if !sameListBody(got, want, !delta) {
			t.Fatalf("decodeList(%q, delta %v) =\n %+v\nwant %+v", body, delta, got, want)
		}
	}
	return fast
}

// listBase's third URL and fourth detail as json.Marshal escapes them.
const (
	escapedC = "c.example/?x=1\\u0026y=\\u003c2\\u003e"
	escapedD = "\\u003c\\u0026\\u003e"
)

// listSeeds are bodies around every rule of the list fast path, each marked
// with whether it takes it.
var listSeeds = []struct {
	body        string
	delta, fast bool
}{
	{`{"asn":100,"entries":[{"url":"a.example/","asn":100,"stages":[{"type":1,"detail":"nxdomain"}],"last_tp":"2001-09-09T01:46:40Z","s":0.5,"n":1},{"url":"b.example/","asn":100,"stages":[],"last_tp":"2001-09-09T01:46:40Z","s":1,"n":3}]}`, false, true},
	{" {\n\t\"entries\" : [ ] , \"asn\" : 100 }\r\n", false, true}, // any order, whitespace
	{`{"asn":100,"entries":null}`, false, true},
	{`{}`, false, true},
	// New URLs: the second shares the first's stage list.
	{`{"entries":[{"url":"n1.example/","stages":[{"type":1,"detail":"nxdomain"}]},{"url":"n2.example/","stages":[{"type":1,"detail":"nxdomain"}]}]}`, false, true},
	{`{"entries":[{"url":"c.example/?x=1&y=<2>","stages":null}]}`, false, true},                           // unescaped, found in base
	{`{"entries":[{"url":"` + escapedC + `","stages":null}]}`, false, true},                               // escaped URL found in base
	{`{"entries":[{"url":"d.example/","stages":[{"type":3,"detail":"<&>"}]}]}`, false, true},              // shared
	{`{"entries":[{"url":"d.example/","stages":[{"type":3,"detail":"` + escapedD + `"}]}]}`, false, true}, // escaped detail: built, not shared
	{`{"entries":[{"url":"d.example/","stages":[{"type":3,"detail":"\x"}]}]}`, false, false},              // bad escape
	{`{"entries":[{"url":"a.example/","stages":[{"type":1},{"type":2,"detail":""},{"type":3},{"type":4,"detail":"x"},{"type":5}]}]}`, false, true},
	{`{"entries":[{"url":"a.example/","stages":[{"detail":"nxdomain","type":1}]},{"url":"b.example/","stages":[{"type":0,"detail":""}]}]}`, false, true},
	{`{"entries":[{"url":"a/","s":1e-7},{"url":"b/","s":1E+21},{"url":"c/","s":-0},{"url":"d/","s":0.1},{"url":"e/","s":123456789012345678901234567890},{"url":"f/","s":2.5e-3}]}`, false, true},
	{"{\"entries\":[{\"url\":\"bad\xffutf8/\"}]}", false, true},                                                 // invalid UTF-8 unquoted by token
	{`{"entries":[{"url":"a.example/","last_tp":"2001-09-09T07:16:40.5+05:30","n":-1,"asn":-7}]}`, false, true}, // zone, fraction
	{`{"entries":[{"url":"a/","s":1e400}]}`, false, false},                                                      // out of range: an error
	{`{"entries":[{"url":"a/","s":01}]}`, false, false},                                                         // leading zero
	{`{"entries":[{"url":"a/","s":.5}]}`, false, false},                                                         // no integer part
	{`{"entries":[{"url":"a/","s":1.}]}`, false, false},                                                         // empty fraction
	{`{"entries":[{"url":"a/","s":1e}]}`, false, false},                                                         // empty exponent
	{`{"entries":[{"url":"a/","s":-}]}`, false, false},                                                          // sign alone
	{`{"entries":[{"url":"a/","s":+1}]}`, false, false},                                                         // plus sign
	{`{"entries":[{"url":"a/","s":0x10}]}`, false, false},                                                       // hex
	{`{"entries":[{"url":"a/","s":"1"}]}`, false, false},                                                        // wrong type
	{`{"entries":[{"url":"a/","s":null}]}`, false, false},                                                       // null number
	{`{"entries":[{"url":"a/","n":1.0}]}`, false, false},                                                        // fraction in an int
	{`{"entries":[{"stages":[],"url":"a.example/"}]}`, false, false},                                            // stages before the URL
	{`{"entries":[{"URL":"a.example/"}]}`, false, false},                                                        // case-variant key
	{`{"asn":100,"since":"1.0","entries":[]}`, false, false},                                                    // a delta's key in a full body
	{`{"asn":1,"asn":2}`, false, false},                                                                         // repeated key
	{`{"entries":[{"url":"b.example/"},{"url":"a.example/"}]}`, false, false},                                   // out of order
	{`{"entries":[{"url":"a.example/"},{"url":"a.example/"}]}`, false, false},                                   // a URL twice
	{`{"entries":[{"url":"a/","last_tp":"yesterday"}]}`, false, false},                                          // bad time
	{`{"entries":[{"url":"a/","stages":[{"type":1,"detail":null}]}]}`, false, false},
	{`{"entries":[{"url":"a/","stages":[null]}]}`, false, false},
	{`{"entries":[null]}`, false, false},
	{`{"asn":100,"entries":[`, false, false}, // torn
	{`{"asn":100} x`, false, false},          // trailing bytes
	{`null`, false, false},
	{`{"asn":100,"since":"3.0","changed":[{"url":"a.example/","asn":100,"stages":[{"type":1,"detail":"nxdomain"}],"last_tp":"2001-09-09T01:46:40Z","s":0.5,"n":2},{"url":"e.example/","asn":100,"stages":null,"last_tp":"2001-09-09T01:46:40Z","s":1,"n":1}],"removed":["b.example/"]}`, true, true},
	{`{"asn":100,"since":"3.0"}`, true, true},
	{`{"removed":["d.example/"],"since":"3.0","changed":[{"url":"a.example/","n":2}],"asn":100}`, true, true}, // any order
	{`{"since":"3.0","removed":["zz.example/"]}`, true, true},                                                 // removes nothing
	{`{"since":"3.0","changed":[{"url":"b.example/","n":5}],"removed":["b.example/"]}`, true, true},           // the change stays
	{`{"since":"3.0","changed":null,"removed":null}`, true, true},
	{`{"since":"3.0","removed":["a.example/","c.example/?x=1&y=<2>","d.example/"]}`, true, true},
	{`{"since":"3.0","removed":["` + escapedC + `"]}`, true, true},
	{`{"since":"3.0","changed":[{"url":"b.example/","n":2},{"url":"a.example/","n":2}]}`, true, false}, // out of order
	{`{"since":"3.0","changed":[{"url":"a.example/","n":2},{"url":"a.example/","n":3}]}`, true, false}, // a URL twice
	{`{"since":"3.0","removed":["d.example/","a.example/"]}`, true, false},                             // out of order
	{`{"since":"3.0","removed":["a.example/","a.example/"]}`, true, false},                             // a URL twice
	// A URL more times than listBase has entries.
	{`{"since":"3.0","removed":["a.example/","a.example/","a.example/","a.example/","a.example/"]}`, true, false},
	{`{"since":"3.0","removed":[1]}`, true, false},
	{`{"since":"3.0","entries":[]}`, true, false}, // a full body's key in a delta
	{`{"since":3}`, true, false},
	{`{"since":"3.0","changed":[{"url":"a.example/"}],"changed":[]}`, true, false},
	{`{"since":"3.0","changed":[`, true, false},
}

func TestListDecodeSeeds(t *testing.T) {
	for _, seed := range listSeeds {
		for _, base := range [][]Entry{listBase, nil} {
			if fast := checkListDecode(t, []byte(seed.body), base, seed.delta); fast != seed.fast {
				t.Errorf("fast path took %q (delta %v, base %d entries): %v, want %v", seed.body, seed.delta, len(base), fast, seed.fast)
			}
		}
	}
}

func FuzzListDecode(f *testing.F) {
	for _, seed := range listSeeds {
		f.Add([]byte(seed.body), seed.delta, true)
		f.Add([]byte(seed.body), seed.delta, false)
	}
	f.Fuzz(func(t *testing.T, body []byte, delta, withBase bool) {
		var base []Entry
		if withBase {
			base = listBase
		}
		checkListDecode(t, body, base, delta)
	})
}

// TestListDecodeTakesServedBodies runs the op streams of
// TestFetchBodiesMatchEncodingJSON with a client beside the store: every
// full and delta body the store serves takes the fast path, decoded against
// the list of the tag it was asked with, and yields the model's list.
func TestListDecodeTakesServedBodies(t *testing.T) {
	runFetchOps(t, fuzzSeedReadd, true)
	for seed := int64(1); seed <= 40; seed++ {
		data := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(data)
		runFetchOps(t, data, true)
	}
}

// TestListDecodeAllocs pins what a sync round's decode allocates: a delta
// whose entries are all in the base with their stages unchanged costs the
// spliced list and the since string, whatever its length, and a refetched
// full list only the list; new URLs cost their strings, and share one stage
// list (two allocations, with its detail) between them.
func TestListDecodeAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are not exact under the race detector")
	}
	for _, n := range []int{4, 256} {
		base := make([]Entry, n)
		changed := make([]Entry, n)
		fresh := make([]Entry, 8)
		for i := range base {
			base[i] = Entry{URL: fmt.Sprintf("site-%04d.example/", i), ASN: 100, Stages: []WireStage{{Type: 1, Detail: "nxdomain"}}, LastTp: utc, Votes: 0.5, Reporters: 1}
			changed[i] = base[i]
			changed[i].Stages = []WireStage{{Type: 1, Detail: "nxdomain"}} // equal, not the same
			changed[i].Votes, changed[i].Reporters = 1, 2
		}
		for i := range fresh {
			fresh[i] = Entry{URL: fmt.Sprintf("zz-new-%d.example/", i), ASN: 100, Stages: []WireStage{{Type: 4, Detail: "rst"}}, LastTp: utc, Votes: 1, Reporters: 1}
		}
		delta := mustMarshal(t, DeltaResponse{ASN: 100, Since: "7.0", Changed: changed})
		full := mustMarshal(t, FetchResponse{ASN: 100, Entries: changed})
		news := mustMarshal(t, DeltaResponse{ASN: 100, Since: "7.0", Changed: fresh})
		for _, c := range []struct {
			body  []byte
			delta bool
			max   float64
		}{{delta, true, 2}, {full, false, 1}, {news, true, 2 + float64(len(fresh)) + 2}} {
			scanList(c.body, base, c.delta) // fills the scratch pool
			if allocs := testing.AllocsPerRun(50, func() {
				if _, ok := scanList(c.body, base, c.delta); !ok {
					t.Fatalf("fast path refused %s", c.body)
				}
			}); allocs > c.max {
				t.Errorf("decoding %d bytes (delta %v) against %d entries allocates %v times, want ≤ %v", len(c.body), c.delta, n, allocs, c.max)
			}
		}
		l, _ := scanList(delta, base, true)
		for i, e := range l.entries {
			if unsafe.StringData(e.URL) != unsafe.StringData(base[i].URL) || &e.Stages[0] != &base[i].Stages[0] {
				t.Fatalf("entry %d does not share the base's URL and stages", i)
			}
		}
	}
}

// TestAppendEntryMatchesMarshal holds the list line encoder to json.Marshal
// on random entries: strings with HTML characters, control bytes, U+2028 and
// invalid UTF-8; votes around the 'e'-notation bounds 1e-6 and 1e21; zero,
// UTC and non-UTC times; nil, empty and multi-stage lists with omitted
// details.
func TestAppendEntryMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	votes := []float64{0, 1, 0.5, 1.0 / 3, 1e-6, math.Nextafter(1e-6, 0), 1e-7, 1.5e-9, 1e-10,
		1e21, math.Nextafter(1e21, 0), 1e22, 123456789.125, 5e-324, math.MaxFloat64, -1e-7, -2.5}
	zones := []*time.Location{time.UTC, time.FixedZone("", 5*3600+1800), time.FixedZone("", -8*3600),
		time.FixedZone("", 3661), time.FixedZone("", -(23*3600 + 59*60))}
	for i := 0; i < 5000; i++ {
		e := Entry{URL: randText(rng), ASN: rng.Intn(1<<20) - 1<<19, Votes: votes[rng.Intn(len(votes))], Reporters: rng.Intn(100)}
		if rng.Intn(3) == 0 {
			e.Votes = rng.Float64() * math.Pow(10, float64(rng.Intn(60)-30))
		}
		switch rng.Intn(4) {
		case 0: // the zero time
		case 1:
			e.LastTp = timeOf(rng.Int63())
		default:
			e.LastTp = time.Unix(rng.Int63n(1<<35)-1<<34, rng.Int63n(1e9)).In(zones[rng.Intn(len(zones))])
		}
		switch rng.Intn(4) {
		case 0: // nil stages
		case 1:
			e.Stages = []WireStage{}
		default:
			for n := 1 + rng.Intn(3); n > 0; n-- {
				st := WireStage{Type: rng.Intn(7)}
				if rng.Intn(2) == 0 {
					st.Detail = randText(rng)
				}
				e.Stages = append(e.Stages, st)
			}
		}
		if got, want := appendEntry(nil, &e), mustMarshal(t, &e); !bytes.Equal(got, want) {
			t.Fatalf("appendEntry(%+v) =\n %s\njson.Marshal:\n %s", e, got, want)
		}
		if got, want := appendJSONString(nil, e.URL), mustMarshal(t, e.URL); !bytes.Equal(got, want) {
			t.Fatalf("appendJSONString(%q) = %s, json.Marshal: %s", e.URL, got, want)
		}
	}
	for _, e := range []Entry{
		{LastTp: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)},
		{LastTp: time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC)},
		{LastTp: utc.In(time.FixedZone("", 24*3600))},
		{Votes: math.Inf(1)},
		{Votes: math.NaN()},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("appendEntry(%+v) encoded what json.Marshal refuses", e)
				}
			}()
			appendEntry(nil, &e)
		}()
	}
}

// stubAnswer is one /v1/blocked answer of stubListClient's server.
type stubAnswer struct {
	tag, body string
	delta     bool
}

// stubListClient returns a client of a server that answers its nth list
// fetch with answers[n] (the last one from then on), and a function listing
// the If-None-Match of every fetch so far.
func stubListClient(t *testing.T, answers ...stubAnswer) (*Client, func() []string) {
	t.Helper()
	mk, inms := stubListServer(t, answers...)
	return mk("client", "10.0.0.1"), inms
}

// stubListServer is stubListClient's server, with a factory of clients of
// it: the nth list fetch of any of them gets answers[n].
func stubListServer(t *testing.T, answers ...stubAnswer) (mk func(name, ip string) *Client, sent func() []string) {
	t.Helper()
	clock := vtime.New(1000)
	n := netem.New(clock, netem.WithSeed(41))
	pk := n.AddAS(100, "ISP", "PK")
	cloud := n.AddAS(900, "Cloud", "US")
	n.SetRTT("pk", "us", 100*time.Millisecond)
	l, err := n.MustAddHost("stub", "40.0.0.1", "us", cloud).Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu   sync.Mutex
		inms []string
	)
	httpx.Serve(l, httpx.HandlerFunc(func(req *httpx.Request, _ netem.Flow) *httpx.Response {
		mu.Lock()
		defer mu.Unlock()
		a := answers[min(len(inms), len(answers)-1)]
		inms = append(inms, req.Header.Get("If-None-Match"))
		resp := httpx.NewResponse(200, []byte(a.body))
		resp.Header.Set("ETag", a.tag)
		if a.delta {
			resp.Header.Set(DeltaHeader, DeltaEncoding)
		}
		return resp
	}))
	mk = func(name, ip string) *Client {
		h := n.MustAddHost(name, ip, "pk", pk)
		return &Client{Endpoints: []string{"40.0.0.1:80"}, Host: "globaldb.example", Clock: clock,
			ReportDial: h.Dial, FetchDial: h.Dial}
	}
	return mk, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(inms)
	}
}

// line is an entry's JSON with n reporters.
func line(t *testing.T, url string, n int) string {
	return string(mustMarshal(t, Entry{URL: url, ASN: 100, LastTp: utc, Votes: 1, Reporters: n}))
}

// TestFetchBlockedSortsOutOfOrderDelta: a delta that lists its changes out
// of URL order still replaces each URL's entry. (Merged in the order given,
// base [a/ b/] and changes [b/ a/] left a/ cached twice, the stale copy
// among them.)
func TestFetchBlockedSortsOutOfOrderDelta(t *testing.T) {
	c, _ := stubListClient(t,
		stubAnswer{tag: "1.0", body: `{"asn":100,"entries":[` + line(t, "a/", 1) + `,` + line(t, "b/", 1) + `]}`},
		stubAnswer{tag: "2.0", delta: true, body: `{"asn":100,"since":"1.0","changed":[` + line(t, "b/", 2) + `,` + line(t, "a/", 2) + `]}`},
	)
	for i := 0; i < 2; i++ {
		if _, err := c.FetchBlocked(context.Background(), 100); err != nil {
			t.Fatal(err)
		}
	}
	got := c.Blocked(100)
	if len(got) != 2 || got[0].URL != "a/" || got[0].Reporters != 2 || got[1].URL != "b/" || got[1].Reporters != 2 {
		t.Fatalf("after an out-of-order delta the list is %+v, want a/ and b/ at n=2", got)
	}
	if e, ok := c.Lookup(100, "a/"); !ok || e.Reporters != 2 {
		t.Fatalf("Lookup(a/) = %+v, %v", e, ok)
	}
}

// TestFetchBlockedDropsTagOfUnusableDelta: a delta the client cannot apply
// leaves the list as it was but not its tag, so the next fetch asks for the
// full list instead of the same delta again.
func TestFetchBlockedDropsTagOfUnusableDelta(t *testing.T) {
	full := stubAnswer{tag: "1.0", body: `{"asn":100,"entries":[` + line(t, "a/", 1) + `,` + line(t, "b/", 1) + `]}`}
	for _, bad := range []struct{ name, body string }{
		{"another base", `{"asn":100,"since":"0.9","changed":[` + line(t, "a/", 2) + `]}`},
		{"torn", `{"asn":100,"since":"1.0","changed":[`},
	} {
		t.Run(bad.name, func(t *testing.T) {
			c, inms := stubListClient(t, full, stubAnswer{tag: "3.0", delta: true, body: bad.body}, full)
			if _, err := c.FetchBlocked(context.Background(), 100); err != nil {
				t.Fatal(err)
			}
			if _, err := c.FetchBlocked(context.Background(), 100); err == nil {
				t.Fatal("an unusable delta was applied")
			}
			if e, ok := c.Lookup(100, "a/"); !ok || e.Reporters != 1 {
				t.Fatalf("after the bad delta Lookup(a/) = %+v, %v; want the list kept", e, ok)
			}
			if _, err := c.FetchBlocked(context.Background(), 100); err != nil {
				t.Fatal(err)
			}
			if got, want := inms(), []string{"", "1.0", ""}; !slices.Equal(got, want) {
				t.Fatalf("If-None-Match per fetch = %q, want %q", got, want)
			}
		})
	}
}
