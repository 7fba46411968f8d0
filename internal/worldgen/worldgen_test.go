package worldgen

import (
	"context"
	"fmt"
	"testing"
	"time"

	"csaw/internal/blockpage"
	"csaw/internal/detect"
	"csaw/internal/localdb"
	"csaw/internal/netem"
)

func newWorld(t *testing.T) *World {
	t.Helper()
	w, err := New(Options{Scale: 400, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestInfrastructureUp(t *testing.T) {
	w := newWorld(t)
	if w.PublicDNSAddr == "" || len(w.GlobalDBEndpoints) != 1 || w.ASNEchoAddr == "" {
		t.Fatal("infrastructure addresses missing")
	}
	if len(w.StaticProxies) != len(StaticProxyLatencies) {
		t.Fatalf("static proxies = %d, want %d", len(w.StaticProxies), len(StaticProxyLatencies))
	}
	if got := len(w.TorDir.PublicRelays()); got != 2*len(TorExitCountries) {
		t.Fatalf("tor relays = %d", got)
	}
}

func TestCaseStudyMatchesTable1(t *testing.T) {
	w := newWorld(t)
	ispA, ispB, err := w.CaseStudy()
	if err != nil {
		t.Fatal(err)
	}
	det := func(isp *ISP, name string) *detect.Detector {
		host := w.NewClientHost(name, isp)
		ldns, gdns := w.Resolvers(host)
		return &detect.Detector{
			Clock: w.Clock, Dial: host.Dial, LDNS: ldns, GDNS: gdns,
			Classifier: blockpage.NewClassifier(),
		}
	}
	// ISP-A: YouTube HTTP-blocked with a redirect to a block page.
	outA := det(ispA, "t1-a").Measure(context.Background(), YouTubeHost+"/", detect.HTTP)
	if !outA.Blocked() || outA.Stages[0].Type != localdb.BlockHTTP {
		t.Fatalf("ISP-A youtube: %s", outA.StageSummary())
	}
	// ISP-B: multi-stage — HTTP failure plus DNS redirect evidence.
	outB := det(ispB, "t1-b").Measure(context.Background(), YouTubeHost+"/", detect.HTTP)
	if !outB.Blocked() || len(outB.Stages) < 2 {
		t.Fatalf("ISP-B youtube: %s", outB.StageSummary())
	}
	// Clean site clean on both.
	for _, isp := range []*ISP{ispA, ispB} {
		out := det(isp, "t1-clean-"+isp.AS.Name).Measure(context.Background(), NewsHost+"/", detect.HTTP)
		if out.Blocked() {
			t.Fatalf("%s blocks the news site: %s", isp.AS.Name, out.StageSummary())
		}
	}
}

// TestTable2LatenciesSeeded runs on the event clock: a ping is one serial
// sleep there, so it reads the path RTT exactly, where on the scaled clock
// a loaded machine stretched it past any slack.
func TestTable2LatenciesSeeded(t *testing.T) {
	w, err := New(Options{EventDriven: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.StandardSites(); err != nil {
		t.Fatal(err)
	}
	isp, err := w.AddISP(1, "probe-isp", nil)
	if err != nil {
		t.Fatal(err)
	}
	client := w.NewClientHost("pinger", isp)
	for name, want := range StaticProxyLatencies {
		ip, _, err := netem.SplitAddr(w.StaticProxies[name])
		if err != nil {
			t.Fatal(err)
		}
		rtt, err := w.Net.Ping(client, ip)
		if err != nil {
			t.Fatal(err)
		}
		if rtt != want {
			t.Errorf("%s ping = %v, want %v", name, rtt, want)
		}
	}
}

func TestFrontServesFrontableSites(t *testing.T) {
	w := newWorld(t)
	if err := w.StandardSites(); err != nil {
		t.Fatal(err)
	}
	if !w.Frontable(YouTubeHost) {
		t.Fatal("youtube not frontable")
	}
	if w.Frontable(CDNHost) {
		t.Fatal("cdn host should not be frontable")
	}
}

func TestFigure2ASesSumToOne(t *testing.T) {
	for _, spec := range Figure2ASes() {
		sum := 0.0
		for _, f := range spec.Mix {
			sum += f
		}
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("AS%d mix sums to %.2f", spec.ASN, sum)
		}
	}
}

func TestBuildFigure2ISPAssignsAll(t *testing.T) {
	w := newWorld(t)
	blocked := []string{"a.example", "b.example", "c.example", "d.example", "e.example"}
	for _, h := range blocked {
		w.Registry.Set(h, "203.0.113.77")
	}
	_, assigned, err := w.BuildFigure2ISP(Figure2ASes()[0], blocked, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(assigned) != len(blocked) {
		t.Fatalf("assigned %d/%d", len(assigned), len(blocked))
	}
}

func TestClientConfigComplete(t *testing.T) {
	w := newWorld(t)
	if _, _, err := w.CaseStudy(); err != nil {
		t.Fatal(err)
	}
	host := w.NewClientHost("cfg-check", w.ISPs["ISP-A"])
	cfg := w.ClientConfig(host, 1)
	if len(cfg.Approaches) < 6 {
		t.Fatalf("approaches = %d, want the full toolbox", len(cfg.Approaches))
	}
	if cfg.GlobalDB == nil || cfg.ASNProbeAddr == "" || len(cfg.LDNS) == 0 || len(cfg.GDNS) == 0 {
		t.Fatal("config missing wiring")
	}
	names := map[string]bool{}
	for _, a := range cfg.Approaches {
		names[a.Name] = true
	}
	for _, want := range []string{"public-dns", "https", "domain-fronting", "ip-as-hostname", "tor", "lantern"} {
		if !names[want] {
			t.Errorf("approach %q missing", want)
		}
	}
}

func TestMultihomedClientHost(t *testing.T) {
	w := newWorld(t)
	ispA, ispB, err := w.CaseStudy()
	if err != nil {
		t.Fatal(err)
	}
	h := w.NewClientHost("mh", ispA, ispB)
	if len(h.ASes()) < 2 {
		t.Fatal("host not multihomed")
	}
	single := w.NewClientHost("sh", ispA)
	if len(single.ASes()) != 1 {
		t.Fatal("single-homed host claims multihoming")
	}
}

func TestBlockPageHostAnswersEverything(t *testing.T) {
	w := newWorld(t)
	isp, err := w.AddISP(99, "bp-isp", nil)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := w.AddBlockPageHost(isp, "block.test.pk")
	if err != nil {
		t.Fatal(err)
	}
	client := w.NewClientHost("bp-client", isp)
	det := &detect.Detector{
		Clock: w.Clock, Dial: client.Dial,
		LDNS:       nil,
		GDNS:       nil,
		Classifier: blockpage.NewClassifier(),
	}
	_ = det
	ctx, cancel := w.Clock.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	conn, err := client.Dial(ctx, bp.IP()+":80")
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
}

// TestReplicaSetPrimaryRestartsWithFullHistory pins the derived compaction
// rule: a replica set's WAL is the full history whatever
// GlobalDBSnapshotEvery says, so a primary reopened from its directory
// rebuilds the very feed its follower's pull offset indexes into. Had the
// primary compacted, its reopened feed would restart short of that offset
// and the follower's next pull would read as a fork.
func TestReplicaSetPrimaryRestartsWithFullHistory(t *testing.T) {
	w, err := New(Options{
		Scale: 400, Seed: 2,
		GlobalDBReplicas:      1,
		GlobalDBWALDir:        t.TempDir(),
		GlobalDBSnapshotEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	isp, err := w.AddISP(99, "restart-isp", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	gdb := w.LightClientConfig(w.NewClientHost("restart-client", isp), 1).GlobalDB
	if err := gdb.Register(ctx, "human-restart"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ { // three compaction cadences' worth of records
		rec := localdb.Record{
			URL: fmt.Sprintf("blocked-%02d.example/", i), ASN: 99, Status: localdb.Blocked,
			Stages: []localdb.Stage{{Type: localdb.BlockHTTP, Detail: "blockpage"}},
		}
		if n, err := gdb.Report(ctx, []localdb.Record{rec}); err != nil || n != 1 {
			t.Fatalf("report %d = %d, %v", i, n, err)
		}
	}
	set := w.ReplicaSet
	if err := set.SyncAll(ctx); err != nil {
		t.Fatal(err)
	}
	head := w.GlobalDB.ReplicationFeed().Head()
	if head != 13 || set.Offsets()[0] != head {
		t.Fatalf("before the restart: primary head %d, follower offset %d, want both 13", head, set.Offsets()[0])
	}

	if err := set.Kill(0); err != nil {
		t.Fatal(err)
	}
	if wiped, err := set.Restart(0); err != nil || wiped {
		t.Fatalf("restart = wiped %v, %v", wiped, err)
	}
	reopened := set.Nodes[0]
	if got := reopened.Server.ReplicationFeed().Head(); got != head {
		t.Fatalf("reopened primary's feed holds %d records, want all %d: the WAL was compacted", got, head)
	}
	if got := reopened.Offset(); got != head {
		t.Fatalf("reopened primary resumes at offset %d, want its own head %d", got, head)
	}
	if applied, caughtUp, err := set.Nodes[1].SyncOnce(ctx); err != nil || !caughtUp || applied != 0 {
		t.Fatalf("follower's pull from the reopened primary = %d applied, caught up %v, %v", applied, caughtUp, err)
	}
	if err := set.CheckIdentical(99); err != nil {
		t.Fatal(err)
	}
}
