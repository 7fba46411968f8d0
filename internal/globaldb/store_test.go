package globaldb

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"csaw/internal/globaldb/storage"
	"csaw/internal/httpx"
	"csaw/internal/netem"
	"csaw/internal/vtime"
)

// scriptedHistory drives one fixed history through a server's public
// mutation surface (plus the store shorthands for the two mutations that are
// otherwise only reachable over HTTP) and returns every observable: bodies,
// tags, stats, and the lineage at each stream position.
func scriptedHistory(t *testing.T, srv *Server) string {
	t.Helper()
	stages := []WireStage{{Type: 1, Detail: "nxdomain"}}
	srv.store.addUser("a")
	srv.store.addUser("b")
	srv.store.ingest("a", utc, []Report{
		{URL: "x.example/", ASN: 100, Stages: stages, Tm: utc},
		{URL: "y.example/", ASN: 100, Stages: stages, Tm: utc},
	})
	if err := srv.StartTerm(1, "30.0.0.1:80"); err != nil {
		t.Fatal(err)
	}
	srv.store.ingest("b", utc.Add(time.Minute), []Report{
		{URL: "x.example/", ASN: 100, Stages: stages, Tm: utc},
		{URL: "z.example/", ASN: 200, Tm: utc},
	})
	// A follower learns of the next term by absorbing its record.
	if err := srv.Absorb(&storage.Record{Kind: storage.KindTerm, UUID: "30.0.0.2:80", Now: 2}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Revoke("b"); err != nil {
		t.Fatal(err)
	}
	srv.store.ingest("a", utc.Add(2*time.Minute), []Report{{URL: "x.example/", ASN: 100, Stages: stages, Tm: utc}})
	return observeServer(srv)
}

func observeServer(srv *Server) string {
	var out bytes.Buffer
	out.WriteString(observeStore(srv.store))
	term, leader, base := srv.TermState()
	fmt.Fprintf(&out, "lineage %d %q %d\n", term, leader, base)
	for pos := uint64(0); pos <= 9; pos++ {
		term, leader := srv.TermAt(pos)
		fmt.Fprintf(&out, "at %d: %d %q\n", pos, term, leader)
	}
	return out.String()
}

// TestNewServerIsLoglessDurable pins that NewServer is not a second
// implementation but NewDurableServer with nothing attached. The same
// history yields the same observables — including the lineage, with an
// absorbed term record stamped at its own stream position — with or without
// a log, before and after recovery; and with a feed attached, the same
// stream bytes with or without a log.
func TestNewServerIsLoglessDurable(t *testing.T) {
	clock := vtime.New(1000)
	want := scriptedHistory(t, NewServer(clock, nil))
	if !bytes.Contains([]byte(want), []byte(`lineage 2 "30.0.0.2:80" 5`)) {
		t.Fatalf("absorbed term record not stamped with its stream position:\n%s", want)
	}

	var feeds [][]byte
	for _, o := range []StoreOptions{
		{Dir: t.TempDir(), SnapshotEvery: -1},
		{Replicated: true},
		{Dir: t.TempDir(), SnapshotEvery: -1, Replicated: true},
	} {
		srv, err := NewDurableServer(clock, nil, o)
		if err != nil {
			t.Fatal(err)
		}
		if got := scriptedHistory(t, srv); got != want {
			t.Fatalf("%+v diverges from NewServer:\n--- got ---\n%s--- want ---\n%s", o, got, want)
		}
		if feed := srv.ReplicationFeed(); feed != nil {
			data, next := feed.ReadFrom(0, 1<<20)
			if next != 8 {
				t.Fatalf("%+v: feed holds %d records, want 8", o, next)
			}
			feeds = append(feeds, data)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if o.Dir == "" {
			continue
		}
		re, err := NewDurableServer(clock, nil, o)
		if err != nil {
			t.Fatal(err)
		}
		if got := observeServer(re); got != want {
			t.Fatalf("%+v diverges after recovery:\n--- got ---\n%s--- want ---\n%s", o, got, want)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(feeds[0], feeds[1]) {
		t.Fatal("feed bytes differ between the logless and the logged store")
	}
}

// TestMutationErrorsAreTheirOwn pins the durability contract at every
// mutation entry point, for a replica-set node and a plain durable server
// alike: the caller learns the fate of its own record. A rejected register
// answers 503 and stores nothing; a rejected revoke returns the error and
// leaves the uuid voting; and every report the server answered 200 is still
// served once the directory is reopened.
func TestMutationErrorsAreTheirOwn(t *testing.T) {
	t.Run("replica-node", func(t *testing.T) { mutationErrorsAreTheirOwn(t, promoOptions(t.TempDir())) })
	t.Run("plain-durable", func(t *testing.T) { mutationErrorsAreTheirOwn(t, StoreOptions{Dir: t.TempDir()}) })
}

func mutationErrorsAreTheirOwn(t *testing.T, opts StoreOptions) {
	clock := vtime.New(1000)
	srv, err := NewDurableServer(clock, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv.store.addUser("u")
	srv.store.ingest("u", utc, []Report{{URL: "a.example/", ASN: 100, Tm: utc}})
	register := func() *httpx.Response {
		req := postJSON("POST", "globaldb.example", PathRegister, nil)
		req.Header.Set(CaptchaHeader, "human-1")
		return srv.Handler().ServeHTTP(req, netem.Flow{})
	}
	resp := register()
	if resp.StatusCode != 200 {
		t.Fatalf("healthy register: %d", resp.StatusCode)
	}
	var reg RegisterResponse
	if err := json.Unmarshal(resp.Body, &reg); err != nil {
		t.Fatal(err)
	}
	var acked []string
	report := func(url string) int {
		body, _ := json.Marshal(ReportRequest{UUID: reg.UUID, Reports: []Report{{URL: url, ASN: 200, Tm: utc}}})
		code := srv.Handler().ServeHTTP(postJSON("POST", "globaldb.example", PathReport, body), netem.Flow{}).StatusCode
		if code == 200 {
			acked = append(acked, url)
		}
		return code
	}
	if code := report("before.example/"); code != 200 {
		t.Fatalf("healthy report: %d", code)
	}
	users := srv.StatsSnapshot().Users

	srv.InjectTornWrite(3)
	if err := srv.Revoke("u"); !errors.Is(err, errNotDurable) {
		t.Errorf("revoke over a torn WAL: err = %v, want errNotDurable", err)
	}
	if e := srv.BlockedForAS(100); len(e) != 1 {
		t.Errorf("rejected revoke was applied anyway: %+v", e)
	}
	if code := register().StatusCode; code != 503 {
		t.Errorf("register after durability loss: %d, want 503", code)
	}
	if got := srv.StatsSnapshot().Users; got != users {
		t.Errorf("rejected register stored a user: %d -> %d", users, got)
	}
	if code := report("after.example/"); code != 503 {
		t.Errorf("report after durability loss: %d, want 503", code)
	}
	if err := srv.StartTerm(9, "30.0.0.9:80"); !errors.Is(err, errNotDurable) {
		t.Errorf("StartTerm after durability loss: %v", err)
	}
	if err := srv.Close(); !errors.Is(err, storage.ErrInjectedTear) {
		t.Errorf("close: %v, want the latched tear", err)
	}

	// Restart: whatever was acknowledged survived.
	re, err := NewDurableServer(clock, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := re.Close(); err != nil {
			t.Error(err)
		}
	}()
	served := map[string]bool{}
	for _, e := range re.BlockedForAS(200) {
		served[e.URL] = true
	}
	for _, url := range acked {
		if !served[url] {
			t.Errorf("report of %s answered 200 but is gone after restart (served: %v)", url, served)
		}
	}
}

// TestConcurrentIngestFetchStats runs writers, fetchers (full, conditional
// and aggregate reads) and stats readers against the logless store at once.
// Under -race it checks the lock layout: one write lock, atomics and per-AS
// read locks on the fetch path. Afterwards the state must equal the
// reference model fed the same reports (ingest order across clients does
// not matter: each client writes only its own keys, at one fixed time).
func TestConcurrentIngestFetchStats(t *testing.T) {
	const writers, rounds, ases = 8, 60, 3
	s := mustOpenStore(t, StoreOptions{})
	model := newLegacyStore()
	batch := func(w, r int) []Report {
		return []Report{
			{URL: fmt.Sprintf("site%d.example/", (w+r)%11), ASN: 100 + r%ases, Tm: utc},
			{URL: fmt.Sprintf("own%d-%d.example/", w, r%5), ASN: 100 + w%ases, Tm: utc},
		}
	}
	for w := 0; w < writers; w++ {
		s.addUser(fmt.Sprintf("w%d", w))
		model.addUser(fmt.Sprintf("w%d", w))
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, ok := s.ingest(fmt.Sprintf("w%d", w), utc, batch(w, r)); !ok {
					t.Errorf("writer %d round %d rejected", w, r)
				}
			}
		}(w)
	}
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			tag := ""
			for {
				select {
				case <-stop:
					return
				default:
				}
				asn := 100 + g%ases
				fr := s.fetchResponse(asn, tag)
				tag = fr.tag
				s.blockedForAS(asn)
				if st := s.stats(); st.Users != writers {
					t.Errorf("stats saw %d users mid-run", st.Users)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	for w := 0; w < writers; w++ {
		for r := 0; r < rounds; r++ {
			model.ingest(fmt.Sprintf("w%d", w), utc, batch(w, r))
		}
	}
	for asn := 100; asn < 100+ases; asn++ {
		if got, want := s.fetchResponse(asn, "").body, model.fetchResponse(asn, "").body; !bytes.Equal(got, want) {
			t.Fatalf("asn %d diverges from the model:\n got %s\nwant %s", asn, got, want)
		}
	}
	if got, want := fmt.Sprintf("%+v", s.stats()), fmt.Sprintf("%+v", model.stats()); got != want {
		t.Fatalf("stats diverge from the model:\n got %s\nwant %s", got, want)
	}
}

// TestQueryParamBoundaries pins whole-key matching on every endpoint that
// takes query parameters: a key that is a suffix or prefix of another key
// must not read the other key's value.
func TestQueryParamBoundaries(t *testing.T) {
	for _, tc := range []struct{ target, key, want string }{
		{PathFetch + "?basn=5&asn=7", "asn", "7"},
		{PathFetch + "?asn=7&asnx=9", "asn", "7"},
		{PathFetch + "?basn=5", "asn", ""},
		{PathFetch + "?asn=", "asn", ""},
		{PathFetch, "asn", ""},
		{PathRepl + "?from=3&follower=from=9&max=10", "from", "3"},
		{PathRepl + "?xfrom=1&from=3", "from", "3"},
		{PathRepl + "?from=3&max=10&follower=r1", "max", "10"},
		{PathRepl + "?maxx=1&from=3&follower=max", "max", ""},
		{PathRepl + "?from=3&follower=r1&max=10", "follower", "r1"},
		{PathRepl + "?nofollower=r9&follower=r1", "follower", "r1"},
		{PathReplDemote + "?term=4&leader=1.2.3.4:80&have=9", "term", "4"},
		{PathReplDemote + "?midterm=2&term=4", "term", "4"},
		{PathReplDemote + "?term=4&leader=1.2.3.4:80&have=9", "leader", "1.2.3.4:80"},
		{PathReplDemote + "?coleader=x&term=4", "leader", ""},
		{PathReplDemote + "?term=4&leader=1.2.3.4:80&have=9", "have", "9"},
		{PathReplDemote + "?behave=1&have=9", "have", "9"},
	} {
		if got := QueryParam(tc.target, tc.key); got != tc.want {
			t.Errorf("QueryParam(%q, %q) = %q, want %q", tc.target, tc.key, got, tc.want)
		}
	}
}
