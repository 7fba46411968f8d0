package localdb

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"csaw/internal/vtime"
)

func newDB(aggregate bool) (*DB, *vtime.Clock) {
	clock := vtime.New(10000)
	return New(clock, time.Hour, aggregate), clock
}

func TestSplitJoinURL(t *testing.T) {
	cases := []struct{ in, host, path string }{
		{"WWW.Foo.com/A.html", "www.foo.com", "/A.html"},
		{"foo.com", "foo.com", "/"},
		{"http://foo.com/x", "foo.com", "/x"},
		{"https://foo.com", "foo.com", "/"},
	}
	for _, c := range cases {
		h, p := SplitURL(c.in)
		if h != c.host || p != c.path {
			t.Errorf("SplitURL(%q) = %q %q", c.in, h, p)
		}
	}
	if JoinURL("Foo.com", "") != "foo.com/" {
		t.Error("JoinURL default path wrong")
	}
	if BaseURL("foo.com/a/b") != "foo.com/" {
		t.Error("BaseURL wrong")
	}
}

func TestLookupNotMeasured(t *testing.T) {
	db, _ := newDB(true)
	if _, s := db.Lookup("foo.com/"); s != NotMeasured {
		t.Fatalf("status = %v", s)
	}
}

func TestBlockedBaseCoversDerived(t *testing.T) {
	// §4.4 HTTP case (a): base blocked → derived considered blocked.
	db, _ := newDB(true)
	db.Put("foo.com/", 100, Blocked, []Stage{{Type: BlockHTTP, Detail: "blockpage"}})
	if _, s := db.Lookup("foo.com/a.html"); s != Blocked {
		t.Fatalf("derived status = %v, want Blocked", s)
	}
	if db.Len() != 1 {
		t.Fatalf("records = %d, want 1", db.Len())
	}
}

func TestBlockedDerivedKeepsOwnRecord(t *testing.T) {
	// §4.4 HTTP case (b): a derived block does not condemn the base.
	db, _ := newDB(true)
	db.Put("foo.com/banned/x.html", 100, Blocked, []Stage{{Type: BlockHTTP}})
	if _, s := db.Lookup("foo.com/"); s != NotMeasured {
		t.Fatalf("base status = %v, want NotMeasured", s)
	}
	if _, s := db.Lookup("foo.com/banned/x.html"); s != Blocked {
		t.Fatal("derived not blocked")
	}
	// Children of the blocked path inherit via prefix matching.
	if _, s := db.Lookup("foo.com/banned/x.html?lang=ur"); s != Blocked {
		t.Fatal("query variant not covered")
	}
}

func TestUnblockedCollapsesToBase(t *testing.T) {
	// §4.4 case (c): unblocked measurements keep one base record.
	db, _ := newDB(true)
	db.Put("foo.com/a.html", 100, NotBlocked, nil)
	db.Put("foo.com/b.html", 100, NotBlocked, nil)
	db.Put("foo.com/c/d.html", 100, NotBlocked, nil)
	if db.Len() != 1 {
		t.Fatalf("records = %d, want 1 (collapsed)", db.Len())
	}
	if _, s := db.Lookup("foo.com/zzz.html"); s != NotBlocked {
		t.Fatalf("derived of unblocked base = %v", s)
	}
}

func TestLongestPrefixPrefersDerivedBlock(t *testing.T) {
	// Cases (b)+(c) together need longest-prefix matching (§4.4).
	db, _ := newDB(true)
	db.Put("foo.com/ok.html", 100, NotBlocked, nil)
	db.Put("foo.com/banned/x.html", 100, Blocked, []Stage{{Type: BlockHTTP}})
	if _, s := db.Lookup("foo.com/other.html"); s != NotBlocked {
		t.Fatal("base unblocked record lost")
	}
	if _, s := db.Lookup("foo.com/banned/x.html"); s != Blocked {
		t.Fatal("blocked derived record lost after unblocked collapse")
	}
}

func TestHostLevelBlockingAggregatesToBase(t *testing.T) {
	// IP/DNS/HTTPS blocking → single base record even for derived URL.
	for _, bt := range []BlockType{BlockDNS, BlockIP, BlockSNI, BlockTCPTimeout} {
		db, _ := newDB(true)
		db.Put("foo.com/deep/page.html", 100, Blocked, []Stage{{Type: bt}})
		if db.Len() != 1 {
			t.Fatalf("%v: records = %d", bt, db.Len())
		}
		if _, s := db.Lookup("foo.com/completely/other"); s != Blocked {
			t.Fatalf("%v: host-level block not covering host", bt)
		}
	}
}

func TestNoAggregationKeepsEveryRecord(t *testing.T) {
	db, _ := newDB(false)
	for i := 0; i < 10; i++ {
		db.Put(fmt.Sprintf("foo.com/p%d.html", i), 100, NotBlocked, nil)
	}
	if db.Len() != 10 {
		t.Fatalf("records = %d, want 10", db.Len())
	}
	// And a base record does not vouch for unmeasured URLs.
	db.Put("bar.com/", 100, NotBlocked, nil)
	if _, s := db.Lookup("bar.com/x.html"); s != NotMeasured {
		t.Fatalf("unaggregated base vouched for derived: %v", s)
	}
}

func TestAggregationSavesRecords(t *testing.T) {
	// The Figure 6b claim, as an invariant: aggregated count ≤ raw count.
	agg, _ := newDB(true)
	raw, _ := newDB(false)
	urls := []string{}
	for site := 0; site < 15; site++ {
		for p := 0; p < 6; p++ {
			urls = append(urls, fmt.Sprintf("site%d.example/p%d.html", site, p))
		}
	}
	for _, u := range urls {
		agg.Put(u, 1, NotBlocked, nil)
		raw.Put(u, 1, NotBlocked, nil)
	}
	if agg.Len() >= raw.Len() {
		t.Fatalf("aggregated %d >= raw %d", agg.Len(), raw.Len())
	}
	if agg.Len() != 15 {
		t.Fatalf("aggregated = %d, want 15 (one per site)", agg.Len())
	}
}

func TestExpiryChurnsToNotMeasured(t *testing.T) {
	// §4.4 scenario A: Blocked→Unblocked discovered after record expiry.
	clock := vtime.New(10000)
	db := New(clock, 2*time.Second, true)
	db.Put("foo.com/", 1, Blocked, []Stage{{Type: BlockHTTP}})
	if _, s := db.Lookup("foo.com/"); s != Blocked {
		t.Fatal("fresh record not blocked")
	}
	clock.Sleep(3 * time.Second)
	if _, s := db.Lookup("foo.com/"); s != NotMeasured {
		t.Fatalf("expired record status = %v, want NotMeasured", s)
	}
}

func TestPendingGlobalAndMarkPosted(t *testing.T) {
	db, _ := newDB(true)
	db.Put("a.com/", 1, Blocked, []Stage{{Type: BlockDNS, Detail: "nxdomain"}})
	db.Put("b.com/", 1, NotBlocked, nil)
	db.Put("c.com/x", 1, Blocked, []Stage{{Type: BlockHTTP}})
	pending := db.PendingGlobal()
	if len(pending) != 2 {
		t.Fatalf("pending = %v", pending)
	}
	if pending[0].URL != "a.com/" || pending[1].URL != "c.com/x" {
		t.Fatalf("pending order = %v", pending)
	}
	db.MarkPosted("a.com/")
	if p := db.PendingGlobal(); len(p) != 1 || p[0].URL != "c.com/x" {
		t.Fatalf("after mark: %v", p)
	}
}

func TestPathCovers(t *testing.T) {
	cases := []struct {
		stored, query string
		want          bool
	}{
		{"/", "/anything", true},
		{"/a", "/a", true},
		{"/a", "/a/b", true},
		{"/a", "/ab", false},
		{"/a/", "/a/b", true},
		{"/a", "/a?x=1", true},
	}
	for _, c := range cases {
		if got := pathCovers(c.stored, c.query); got != c.want {
			t.Errorf("pathCovers(%q, %q) = %v", c.stored, c.query, got)
		}
	}
}

func TestStatusAndBlockTypeStrings(t *testing.T) {
	if Blocked.String() != "blocked" || NotMeasured.String() != "not-measured" {
		t.Error("status names")
	}
	if BlockDNS.String() != "dns" || BlockTCPTimeout.String() != "tcp-timeout" {
		t.Error("block type names")
	}
	if !BlockDNS.HostLevel() || BlockHTTP.HostLevel() {
		t.Error("HostLevel wrong")
	}
}

// TestQuickAggregationInvariants property-tests the DB: (1) the aggregated
// record count never exceeds the unaggregated count by more than one
// synthesized base record per host, (2) a URL recorded blocked (with
// nothing newer covering it) never reads back NotBlocked.
func TestQuickAggregationInvariants(t *testing.T) {
	type op struct {
		Site    uint8
		Page    uint8
		Blocked bool
		Host    bool // host-level mechanism
	}
	f := func(ops []op) bool {
		agg, _ := newDB(true)
		raw, _ := newDB(false)
		for _, o := range ops {
			url := fmt.Sprintf("s%d.example/p%d", o.Site%5, o.Page%8)
			st := NotBlocked
			var stages []Stage
			if o.Blocked {
				st = Blocked
				bt := BlockHTTP
				if o.Host {
					bt = BlockDNS
				}
				stages = []Stage{{Type: bt}}
			}
			agg.Put(url, 1, st, stages)
			raw.Put(url, 1, st, stages)
		}
		hosts := map[string]bool{}
		for _, o := range ops {
			hosts[fmt.Sprintf("s%d.example", o.Site%5)] = true
		}
		if agg.Len() > raw.Len()+len(hosts) {
			return false
		}
		// Replay: final write per URL must dominate the readback unless a
		// newer, more specific blocked record covers it — conservatively
		// check only URLs whose final write was Blocked.
		final := map[string]bool{}
		for _, o := range ops {
			url := fmt.Sprintf("s%d.example/p%d", o.Site%5, o.Page%8)
			final[url] = o.Blocked
		}
		for url, blocked := range final {
			if blocked {
				if _, s := agg.Lookup(url); s == NotBlocked {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
