package globaldb

import (
	"bytes"
	"csaw/internal/httpx"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"csaw/internal/globaldb/storage"
	"csaw/internal/netem"
	"csaw/internal/vtime"
)

// promoOptions is the store shape every replica-set node uses: full history
// kept (no compaction) and a replication feed.
func promoOptions(dir string) StoreOptions {
	return StoreOptions{Dir: dir, SnapshotEvery: -1, Replicated: true}
}

// TestTermMarksAndRecovery pins the lineage machinery end to end: StartTerm
// persists a KindTerm record through the WAL, TermAt reports the lineage in
// effect at every stream offset, and a restart re-derives the same lineage
// from the log alone.
func TestTermMarksAndRecovery(t *testing.T) {
	dir := t.TempDir()
	clock := vtime.New(1000)
	srv, err := NewDurableServer(clock, nil, promoOptions(dir))
	if err != nil {
		t.Fatal(err)
	}

	// Stream: [0] addUser, [1] ingest under the founding lineage, [2] term 1
	// record, [3] ingest under term 1, [4] term 2 record.
	srv.store.addUser("u")
	if _, ok := srv.store.ingest("u", clock.Now(), []Report{{URL: "a.example/", ASN: 7, Tm: clock.Now()}}); !ok {
		t.Fatal("ingest rejected")
	}
	if err := srv.StartTerm(1, "30.0.0.1:80"); err != nil {
		t.Fatal(err)
	}
	if _, ok := srv.store.ingest("u", clock.Now(), []Report{{URL: "b.example/", ASN: 7, Tm: clock.Now()}}); !ok {
		t.Fatal("ingest under term 1 rejected")
	}
	if err := srv.StartTerm(2, "30.0.0.2:80"); err != nil {
		t.Fatal(err)
	}

	if term, leader, base := srv.TermState(); term != 2 || leader != "30.0.0.2:80" || base != 4 {
		t.Fatalf("TermState = (%d, %q, %d), want (2, 30.0.0.2:80, 4)", term, leader, base)
	}
	wantAt := []struct {
		pos    uint64
		term   int64
		leader string
	}{
		{0, 0, ""}, {2, 0, ""}, // the term record at its own base is not yet in the prefix
		{3, 1, "30.0.0.1:80"}, {4, 1, "30.0.0.1:80"},
		{5, 2, "30.0.0.2:80"}, {99, 2, "30.0.0.2:80"},
	}
	check := func(stage string) {
		for _, w := range wantAt {
			if term, leader := srv.TermAt(w.pos); term != w.term || leader != w.leader {
				t.Fatalf("%s: TermAt(%d) = (%d, %q), want (%d, %q)", stage, w.pos, term, leader, w.term, w.leader)
			}
		}
	}
	check("live")

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv, err = NewDurableServer(clock, nil, promoOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	if term, leader, _ := srv.TermState(); term != 2 || leader != "30.0.0.2:80" {
		t.Fatalf("recovered TermState = (%d, %q), want (2, 30.0.0.2:80)", term, leader)
	}
	check("recovered")
	if head := srv.ReplicationFeed().Head(); head != 5 {
		t.Fatalf("recovered feed head = %d, want 5", head)
	}
}

// TestFenceLeavesLineageAlone is the lineage/fence separation: a fence hint
// rejects writes and repoints writers, but must not make the node claim a
// stream it never pulled.
func TestFenceLeavesLineageAlone(t *testing.T) {
	clock := vtime.New(1000)
	srv := NewServer(clock, nil)
	srv.Fence(7, "30.0.0.3:80")
	if !srv.Fenced() {
		t.Fatal("Fence did not fence")
	}
	if term, leader, _ := srv.TermState(); term != 0 || leader != "" {
		t.Fatalf("fence polluted lineage: (%d, %q)", term, leader)
	}
	// The hint ratchets: a stale lower-term fence cannot downgrade it.
	srv.Fence(5, "30.0.0.9:80")

	body, _ := json.Marshal(ReportRequest{UUID: "u", Reports: []Report{{URL: "x.example/", ASN: 1, Tm: clock.Now()}}})
	req := postJSON("POST", "globaldb.example", PathReport, body)
	resp := srv.Handler().ServeHTTP(req, netem.Flow{})
	if resp.StatusCode != StatusFenced {
		t.Fatalf("fenced report: status %d, want %d", resp.StatusCode, StatusFenced)
	}
	if got := resp.Header.Get(TermHeader); got != "7" {
		t.Fatalf("fenced term hint = %q, want 7", got)
	}
	if got := resp.Header.Get(LeaderHeader); got != "30.0.0.3:80" {
		t.Fatalf("fenced leader hint = %q, want 30.0.0.3:80", got)
	}

	// StartTerm lifts the fence and installs the lineage.
	if err := srv.StartTerm(8, "30.0.0.4:80"); err != nil {
		t.Fatal(err)
	}
	if srv.Fenced() {
		t.Fatal("StartTerm did not lift the fence")
	}
	if term, leader, _ := srv.TermState(); term != 8 || leader != "30.0.0.4:80" {
		t.Fatalf("post-promotion lineage = (%d, %q)", term, leader)
	}
}

// TestStrictTornWriteRejects pins strict durability: a torn WAL append
// rejects the mutation (no ack, no feed entry), latches the durability
// error, and turns the client-facing rejection into a 503.
func TestStrictTornWriteRejects(t *testing.T) {
	clock := vtime.New(1000)
	srv, err := NewDurableServer(clock, nil, promoOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Close(); err == nil || !errors.Is(err, storage.ErrInjectedTear) {
			t.Errorf("close after torn write: %v, want the latched tear", err)
		}
	}()
	srv.store.addUser("u")
	headBefore := srv.ReplicationFeed().Head()

	if !srv.InjectTornWrite(5) {
		t.Fatal("InjectTornWrite found no WAL")
	}
	if _, ok := srv.store.ingest("u", clock.Now(), []Report{{URL: "t.example/", ASN: 2, Tm: clock.Now()}}); ok {
		t.Fatal("strict store acked a torn write")
	}
	if head := srv.ReplicationFeed().Head(); head != headBefore {
		t.Fatalf("torn write leaked into the feed: head %d -> %d", headBefore, head)
	}
	if err := srv.DurabilityErr(); !errors.Is(err, storage.ErrInjectedTear) {
		t.Fatalf("DurabilityErr = %v, want ErrInjectedTear", err)
	}

	body, _ := json.Marshal(ReportRequest{UUID: "u", Reports: []Report{{URL: "y.example/", ASN: 2, Tm: clock.Now()}}})
	resp := srv.Handler().ServeHTTP(postJSON("POST", "globaldb.example", PathReport, body), netem.Flow{})
	if resp.StatusCode != 503 {
		t.Fatalf("strict-degraded report: status %d, want 503", resp.StatusCode)
	}
}

// TestResetForResyncKeepsDurablePath is the regression pin for the chaos
// harness's worst bug: after ResetForResync the server's mutation path must
// still run through the WAL, the feed, and the durability latch. (An
// earlier version rebound s.store to the bare inner store on reset, so
// every post-resync write was acked from memory only — never logged, never
// replicated.)
func TestResetForResyncKeepsDurablePath(t *testing.T) {
	dir := t.TempDir()
	clock := vtime.New(1000)
	srv, err := NewDurableServer(clock, nil, promoOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	srv.store.addUser("old")
	if err := srv.StartTerm(3, "30.0.0.1:80"); err != nil {
		t.Fatal(err)
	}
	if err := srv.ResetForResync(); err != nil {
		t.Fatal(err)
	}
	if head := srv.ReplicationFeed().Head(); head != 0 {
		t.Fatalf("feed head %d after reset, want 0", head)
	}
	if term, leader, _ := srv.TermState(); term != 0 || leader != "" {
		t.Fatalf("lineage survived reset: (%d, %q)", term, leader)
	}

	// Post-reset writes must be durable and streamed.
	srv.store.addUser("new")
	if _, ok := srv.store.ingest("new", clock.Now(), []Report{{URL: "n.example/", ASN: 9, Tm: clock.Now()}}); !ok {
		t.Fatal("post-reset ingest rejected")
	}
	if head := srv.ReplicationFeed().Head(); head != 2 {
		t.Fatalf("post-reset feed head = %d, want 2 (writes bypassed the feed)", head)
	}
	if b, err := os.ReadFile(filepath.Join(dir, walFileName)); err != nil || len(b) == 0 {
		t.Fatalf("post-reset WAL empty (err %v): writes bypassed the log", err)
	}
	before := srv.store.fetchResponse(9, "")
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, err := NewDurableServer(clock, nil, promoOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		// The test's last act is a torn write, so the latched error rides out
		// through Close.
		if err := srv2.Close(); err == nil || !errors.Is(err, storage.ErrInjectedTear) {
			t.Errorf("close after torn write: %v, want the latched tear", err)
		}
	}()
	after := srv2.store.fetchResponse(9, "")
	if !bytes.Equal(before.body, after.body) || !bytes.Contains(after.body, []byte("n.example/")) {
		t.Fatalf("post-reset write lost across restart: %q vs %q", before.body, after.body)
	}

	// The durability latch still bites after a reset.
	srv2.InjectTornWrite(3)
	if _, ok := srv2.store.ingest("new", clock.Now(), []Report{{URL: "z.example/", ASN: 9, Tm: clock.Now()}}); ok {
		t.Fatal("durability latch lost across reset: torn write acked")
	}
}

// TestDurableRecoveryHistoryLoss pins that mid-history WAL corruption —
// damage with intact committed records behind it — aborts recovery with
// ErrHistoryLoss instead of silently truncating the valid suffix away.
func TestDurableRecoveryHistoryLoss(t *testing.T) {
	dir := t.TempDir()
	d, err := openStore(StoreOptions{Dir: dir, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	walWorkload(t, d, 3, 2)
	if err := d.close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, walFileName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte early in the file: many intact frames follow.
	b[20] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openStore(StoreOptions{Dir: dir, SnapshotEvery: -1}); !errors.Is(err, storage.ErrHistoryLoss) {
		t.Fatalf("mid-history corruption: err = %v, want ErrHistoryLoss", err)
	}
}

// postJSON builds the httpx request the way client code does; a tiny helper
// so handler-level tests read like the wire exchange.
func postJSON(method, host, target string, body []byte) *httpx.Request {
	req := httpx.NewRequest(method, host, target)
	req.Body = body
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req
}

// TestChaseLeader pins the one reader of a fencing answer: which hints it
// follows, how far, and what it returns when a hop fails.
func TestChaseLeader(t *testing.T) {
	fenced := func(hint string) *httpx.Response {
		resp := httpx.NewResponse(StatusFenced, nil)
		resp.Header.Set(TermHeader, "7")
		if hint != "" {
			resp.Header.Set(LeaderHeader, hint)
		}
		return resp
	}
	ok := httpx.NewResponse(200, nil)
	cases := []struct {
		name     string
		first    *httpx.Response
		hops     int
		answers  map[string]*httpx.Response // what re-issuing at an address yields; missing = transport error
		wantHops []string
		wantCode int
		wantAt   string
	}{
		{name: "an answer that is not a fence is returned untouched", first: ok, hops: 2, wantCode: 200, wantAt: "a"},
		{name: "empty hint", first: fenced(""), hops: 2, wantCode: StatusFenced, wantAt: "a"},
		{name: "hint naming the endpoint that answered", first: fenced("a"), hops: 2, wantCode: StatusFenced, wantAt: "a"},
		{name: "hint naming the chaser itself", first: fenced("me"), hops: 2, wantCode: StatusFenced, wantAt: "a"},
		{name: "one hop to the leader", first: fenced("b"), hops: 2,
			answers: map[string]*httpx.Response{"b": ok}, wantHops: []string{"b"}, wantCode: 200, wantAt: "b"},
		{name: "the hop bound ends a chain of fences", first: fenced("b"), hops: 2,
			answers:  map[string]*httpx.Response{"b": fenced("c"), "c": fenced("d"), "d": ok},
			wantHops: []string{"b", "c"}, wantCode: StatusFenced, wantAt: "c"},
		{name: "a transport error keeps the fenced answer", first: fenced("b"), hops: 2,
			wantHops: []string{"b"}, wantCode: StatusFenced, wantAt: "a"},
		{name: "a hop that re-issues nothing keeps the fenced answer", first: fenced("b"), hops: 2,
			answers: map[string]*httpx.Response{"b": nil}, wantHops: []string{"b"}, wantCode: StatusFenced, wantAt: "a"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var hopped []string
			resp, at := ChaseLeader(tc.first, "a", "me", tc.hops, func(term int64, leader string) (*httpx.Response, error) {
				if term != 7 {
					t.Errorf("hop saw term %d, want the fencing answer's 7", term)
				}
				hopped = append(hopped, leader)
				next, reachable := tc.answers[leader]
				if !reachable {
					return nil, errors.New("unreachable")
				}
				return next, nil
			})
			if fmt.Sprint(hopped) != fmt.Sprint(tc.wantHops) {
				t.Fatalf("hopped to %v, want %v", hopped, tc.wantHops)
			}
			if resp.StatusCode != tc.wantCode || at != tc.wantAt {
				t.Fatalf("ended with %d from %q, want %d from %q", resp.StatusCode, at, tc.wantCode, tc.wantAt)
			}
		})
	}
}
