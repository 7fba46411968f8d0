package globaldb

import (
	"context"
	"encoding/json"
	"math"
	"testing"
	"time"

	"csaw/internal/globaldb/storage"
	"csaw/internal/httpx"
	"csaw/internal/localdb"
	"csaw/internal/netem"
	"csaw/internal/vtime"
)

// gdbWorld runs a global DB on an emulated host and returns a client
// factory.
func gdbWorld(t *testing.T) (*netem.Network, *Server, func(name, ip string) *Client) {
	t.Helper()
	clock := vtime.New(1000)
	n := netem.New(clock, netem.WithSeed(41))
	pk := n.AddAS(100, "ISP", "PK")
	cloud := n.AddAS(900, "Cloud", "US")
	srvHost := n.MustAddHost("globaldb", "40.0.0.1", "us", cloud)
	n.SetRTT("pk", "us", 120*time.Millisecond)

	srv := NewServer(clock, nil)
	if err := srv.Attach(srvHost, 80); err != nil {
		t.Fatal(err)
	}
	mk := func(name, ip string) *Client {
		h := n.MustAddHost(name, ip, "pk", pk)
		return &Client{
			Endpoints: []string{"40.0.0.1:80"}, Host: "globaldb.example",
			Clock: clock, ReportDial: h.Dial, FetchDial: h.Dial,
		}
	}
	return n, srv, mk
}

func register(t *testing.T, c *Client) {
	t.Helper()
	if err := c.Register(context.Background(), "human-ok"); err != nil {
		t.Fatal(err)
	}
}

func blockedRec(url string, asn int, bt localdb.BlockType, detail string) localdb.Record {
	return localdb.Record{
		URL: url, ASN: asn, Status: localdb.Blocked,
		Stages: []localdb.Stage{{Type: bt, Detail: detail}},
	}
}

func TestRegisterReportFetch(t *testing.T) {
	_, _, mk := gdbWorld(t)
	c := mk("u1", "10.0.0.1")
	register(t, c)
	if c.UUID() == "" {
		t.Fatal("no uuid assigned")
	}
	n, err := c.Report(context.Background(), []localdb.Record{
		blockedRec("www.youtube.com/", 100, localdb.BlockDNS, "nxdomain"),
		blockedRec("porn.example.net/", 100, localdb.BlockHTTP, "blockpage"),
		{URL: "fine.example.com/", ASN: 100, Status: localdb.NotBlocked}, // must be skipped
	})
	if err != nil || n != 2 {
		t.Fatalf("report = %d, %v", n, err)
	}
	entries, err := c.FetchBlocked(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("entries = %+v", entries)
	}
	if entries[0].URL != "porn.example.net/" || entries[1].URL != "www.youtube.com/" {
		t.Fatalf("order = %+v", entries)
	}
	if entries[0].Reporters != 1 || math.Abs(entries[0].Votes-0.5) > 1e-9 {
		t.Fatalf("votes = %+v (want 1/d = 0.5)", entries[0])
	}
}

func TestFetchScopedToAS(t *testing.T) {
	_, _, mk := gdbWorld(t)
	c := mk("u1", "10.0.0.1")
	register(t, c)
	if _, err := c.Report(context.Background(), []localdb.Record{
		blockedRec("a.example/", 100, localdb.BlockDNS, ""),
		blockedRec("b.example/", 200, localdb.BlockHTTP, "blockpage"),
	}); err != nil {
		t.Fatal(err)
	}
	entries, err := c.FetchBlocked(context.Background(), 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].URL != "b.example/" {
		t.Fatalf("AS-200 list = %+v", entries)
	}
}

func TestCaptchaRejected(t *testing.T) {
	_, _, mk := gdbWorld(t)
	c := mk("bot", "10.0.0.9")
	if err := c.Register(context.Background(), "bot-token"); err == nil {
		t.Fatal("bot registration accepted")
	}
}

func TestRegistrationRateLimit(t *testing.T) {
	_, _, mk := gdbWorld(t)
	c := mk("greedy", "10.0.0.7")
	for i := 0; i < RegistrationRateLimit; i++ {
		if err := c.Register(context.Background(), "human-ok"); err != nil {
			t.Fatalf("registration %d: %v", i, err)
		}
	}
	if err := c.Register(context.Background(), "human-ok"); err == nil {
		t.Fatal("rate limit not enforced")
	}
}

func TestUnregisteredReportRejected(t *testing.T) {
	_, _, mk := gdbWorld(t)
	c := mk("u1", "10.0.0.1")
	if _, err := c.Report(context.Background(), []localdb.Record{blockedRec("x/", 1, localdb.BlockDNS, "")}); err == nil {
		t.Fatal("unregistered report accepted")
	}
	c.SetUUID("deadbeefdeadbeef")
	if _, err := c.Report(context.Background(), []localdb.Record{blockedRec("x.example/", 100, localdb.BlockDNS, "")}); err == nil {
		t.Fatal("forged uuid accepted")
	}
}

func TestVotingDilutesSpammers(t *testing.T) {
	// §5: one honest user reports 2 URLs (vote ½ each); a malicious user
	// sprays 100 URLs (vote 1/100 each). The honest URL keeps a high
	// per-reporter vote; the spam entries get s/n = 0.01 and fail the
	// trust filter.
	_, _, mk := gdbWorld(t)
	honest := mk("honest", "10.0.0.1")
	spammer := mk("spammer", "10.0.0.2")
	register(t, honest)
	register(t, spammer)

	if _, err := honest.Report(context.Background(), []localdb.Record{
		blockedRec("real-blocked.example/", 100, localdb.BlockDNS, "nxdomain"),
		blockedRec("also-blocked.example/", 100, localdb.BlockHTTP, "blockpage"),
	}); err != nil {
		t.Fatal(err)
	}
	var spam []localdb.Record
	for i := 0; i < 100; i++ {
		spam = append(spam, blockedRec(
			"fake-"+string(rune('a'+i%26))+string(rune('a'+(i/26)%26))+".example/",
			100, localdb.BlockHTTP, "blockpage"))
	}
	if _, err := spammer.Report(context.Background(), spam); err != nil {
		t.Fatal(err)
	}

	entries, err := honest.FetchBlocked(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	filter := TrustFilter{}
	trusted, distrusted := 0, 0
	for _, e := range entries {
		if filter.Trusted(e) {
			trusted++
		} else {
			distrusted++
		}
	}
	if trusted != 2 {
		t.Errorf("trusted = %d, want the 2 honest URLs", trusted)
	}
	if distrusted < 90 {
		t.Errorf("distrusted = %d, want the spam sprayed entries", distrusted)
	}
}

func TestRevokeSilencesUser(t *testing.T) {
	_, srv, mk := gdbWorld(t)
	c := mk("u1", "10.0.0.1")
	register(t, c)
	if _, err := c.Report(context.Background(), []localdb.Record{blockedRec("x.example/", 100, localdb.BlockDNS, "")}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Revoke(c.UUID()); err != nil {
		t.Fatal(err)
	}
	entries, err := c.FetchBlocked(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("revoked user's reports still served: %+v", entries)
	}
	if _, err := c.Report(context.Background(), []localdb.Record{blockedRec("y.example/", 100, localdb.BlockDNS, "")}); err == nil {
		t.Fatal("revoked uuid can still report")
	}
}

func TestReportIdempotentPerURL(t *testing.T) {
	// Re-reporting the same URL updates rather than double-counts votes.
	_, _, mk := gdbWorld(t)
	c := mk("u1", "10.0.0.1")
	register(t, c)
	rec := blockedRec("x.example/", 100, localdb.BlockDNS, "nxdomain")
	for i := 0; i < 3; i++ {
		if _, err := c.Report(context.Background(), []localdb.Record{rec}); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := c.FetchBlocked(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Reporters != 1 || math.Abs(entries[0].Votes-1.0) > 1e-9 {
		t.Fatalf("entries = %+v, want single full-vote entry", entries)
	}
}

func TestStatsSnapshot(t *testing.T) {
	_, srv, mk := gdbWorld(t)
	u1, u2 := mk("u1", "10.0.0.1"), mk("u2", "10.0.0.2")
	register(t, u1)
	register(t, u2)
	if _, err := u1.Report(context.Background(), []localdb.Record{
		blockedRec("a.example/page1", 100, localdb.BlockDNS, "nxdomain"),
		blockedRec("a.example/page2", 100, localdb.BlockDNS, "nxdomain"),
		blockedRec("b.example/", 200, localdb.BlockHTTP, "blockpage"),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := u2.Report(context.Background(), []localdb.Record{
		blockedRec("c.example/", 300, localdb.BlockTCPTimeout, "connect-timeout"),
	}); err != nil {
		t.Fatal(err)
	}
	st := srv.StatsSnapshot()
	if st.Users != 2 || st.BlockedURLs != 4 || st.BlockedDomains != 3 || st.ASes != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ByType["dns"] != 2 || st.ByType["blockpage"] != 1 || st.ByType["tcp-timeout"] != 1 {
		t.Fatalf("by-type = %+v", st.ByType)
	}
	if st.Updates != 4 {
		t.Fatalf("updates = %d", st.Updates)
	}

	// And over the API.
	resp := srv.Handler().ServeHTTP(httpx.NewRequest("GET", "", PathStats), netem.Flow{})
	var st2 Stats
	if err := json.Unmarshal(resp.Body, &st2); err != nil || st2.Users != 2 {
		t.Fatalf("stats via API = %+v, %v", st2, err)
	}
}

func TestTrustFilterDefaults(t *testing.T) {
	f := TrustFilter{}
	if f.Trusted(Entry{Votes: 0.001, Reporters: 1}) {
		t.Error("spam-grade entry trusted")
	}
	if !f.Trusted(Entry{Votes: 0.5, Reporters: 1}) {
		t.Error("honest entry distrusted")
	}
	if f.Trusted(Entry{Votes: 0, Reporters: 0}) {
		t.Error("empty entry trusted")
	}
}

func TestConditionalFetchReusesCache(t *testing.T) {
	_, _, mk := gdbWorld(t)
	c := mk("u1", "10.0.0.1")
	register(t, c)
	if _, err := c.Report(context.Background(), []localdb.Record{
		blockedRec("a.example/", 100, localdb.BlockDNS, "nxdomain"),
	}); err != nil {
		t.Fatal(err)
	}

	first, err := c.FetchBlocked(context.Background(), 100)
	if err != nil || len(first) != 1 {
		t.Fatalf("first fetch = %+v, %v", first, err)
	}
	tag := c.cacheLocked(100).tag
	if tag == "" {
		t.Fatal("no validator tag cached after a 200 fetch")
	}

	// Unchanged list: the refetch must come back 304 and hand out the cached
	// slice itself — no new decode.
	second, err := c.FetchBlocked(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if &second[0] != &first[0] {
		t.Fatal("unchanged refetch did not reuse the cached entries")
	}
	if c.cacheLocked(100).tag != tag {
		t.Fatalf("tag moved on an unchanged list: %q → %q", tag, c.cacheLocked(100).tag)
	}

	// New report: the tag must turn over and the next fetch must see the
	// update (a stale 304 here would freeze the client's list).
	if _, err := c.Report(context.Background(), []localdb.Record{
		blockedRec("b.example/", 100, localdb.BlockHTTP, "blockpage"),
	}); err != nil {
		t.Fatal(err)
	}
	third, err := c.FetchBlocked(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(third) != 2 {
		t.Fatalf("post-update fetch = %+v, want 2 entries", third)
	}
	if c.cacheLocked(100).tag == tag {
		t.Fatal("validator tag did not change after a write")
	}
}

func TestConditionalFetchRevocationInvalidates(t *testing.T) {
	_, srv, mk := gdbWorld(t)
	c := mk("u1", "10.0.0.1")
	register(t, c)
	if _, err := c.Report(context.Background(), []localdb.Record{
		blockedRec("a.example/", 100, localdb.BlockDNS, "nxdomain"),
	}); err != nil {
		t.Fatal(err)
	}
	if entries, err := c.FetchBlocked(context.Background(), 100); err != nil || len(entries) != 1 {
		t.Fatalf("fetch = %+v, %v", entries, err)
	}
	// Revocation bumps the epoch: the cached tag must stop validating even
	// though the AS index version did not move.
	if err := srv.Revoke(c.UUID()); err != nil {
		t.Fatal(err)
	}
	entries, err := c.FetchBlocked(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("revoked reports still served from client cache: %+v", entries)
	}
}

func TestWireRoundTrip(t *testing.T) {
	stages := []localdb.Stage{{Type: localdb.BlockDNS, Detail: "nxdomain"}, {Type: localdb.BlockHTTP}}
	back := FromWire(ToWire(stages))
	if len(back) != 2 || back[0] != stages[0] || back[1] != stages[1] {
		t.Fatalf("round trip = %+v", back)
	}
}

// NewServer creates an in-memory server: NewDurableServer with the zero
// StoreOptions, which cannot fail. A nil verifier selects DefaultCaptcha.
func NewServer(clock *vtime.Clock, captcha CaptchaVerifier) *Server {
	s, err := NewDurableServer(clock, captcha, StoreOptions{})
	if err != nil {
		panic(err) // unreachable: only opening o.Dir can fail
	}
	return s
}

// Revoke invalidates a UUID (§5: revoking identified malicious users [54]).
// An error means the store's log has failed and rejected the revocation: it
// did not happen and must be retried once the node is healthy.
func (s *Server) Revoke(uuid string) error {
	_, err := s.store.apply(&storage.Record{Kind: storage.KindRevoke, UUID: uuid})
	return err
}
