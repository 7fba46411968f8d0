// csaw-globaldb runs a standalone global-DB server inside a minimal world
// and exercises its API end to end: registration (CAPTCHA-gated), report
// ingestion with the §5 voting mechanism, per-AS list downloads, and the
// aggregate statistics endpoint — then prints the resulting state. It is a
// demonstration-and-diagnostics binary for the crowdsourcing backend.
//
// With -wal the server write-ahead-logs every mutation into the given
// directory, and the run ends with a kill-and-recover check: the store is
// reopened from snapshot+log and must serve a byte-identical blocked list.
// With -replicas N the server is instead the founding primary of a replica
// set with N more nodes pulling its log stream, and the run demonstrates a
// censor blackholing the primary: a replica-set client behind the censoring
// ISP sends SYNs to the primary that never come back, times out, fails
// over, and is answered 304 by a follower. (A replica set never compacts, so
// -snapshot-every applies to the single server only.) Everything runs on
// the discrete-event clock: the demo counts bytes and failovers, and its
// virtual times are a function of the flags alone.
//
// With -chaos the binary instead runs the deterministic chaos harness's
// fixed primary-loss schedule against a 3-node self-healing replica set:
// the founding primary is killed permanently mid-run, a follower promotes
// itself by minting the next term, and the run ends with the post-heal
// invariant checks (no acked report lost, monotonic terms, byte-identical
// replicas). -chaos-seed N runs a randomized fault schedule instead.
//
// Usage:
//
//	csaw-globaldb [-reporters N] [-spam N] [-wal DIR] [-snapshot-every N] [-replicas N]
//	csaw-globaldb -chaos [-chaos-seed N]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"csaw/internal/chaos"
	"csaw/internal/globaldb"
	"csaw/internal/globaldb/replica"
	"csaw/internal/httpx"
	"csaw/internal/localdb"
	"csaw/internal/metrics"
	"csaw/internal/netem"
	"csaw/internal/vtime"
)

func main() {
	var (
		reporters = flag.Int("reporters", 5, "honest reporters to simulate")
		spam      = flag.Int("spam", 40, "URLs sprayed by one malicious reporter")
		walDir    = flag.String("wal", "", "directory for the WAL+snapshot store (empty: in-memory)")
		snapEvery = flag.Int("snapshot-every", 0, "WAL compaction cadence in records (0: default, negative: never)")
		replicas  = flag.Int("replicas", 0, "follower replicas pulling the primary's log stream")
		chaosRun  = flag.Bool("chaos", false, "run the chaos harness's fixed primary-loss schedule and exit")
		chaosSeed = flag.Int64("chaos-seed", 0, "with -chaos: run the randomized schedule for this seed instead")
	)
	flag.Parse()

	if *chaosRun {
		demoChaos(*chaosSeed)
		return
	}

	clock := vtime.NewEventDriven()
	n := netem.New(clock, netem.WithSeed(1))
	cloud := n.AddAS(900, "Cloud", "US")
	asn := 17557

	// The other replica-set nodes sit on their own cloud hosts, as worldgen
	// places them: distinct IPs the censor must blackhole separately.
	hosts := []*netem.Host{n.MustAddHost("globaldb", "40.0.0.1", "us", cloud)}
	for i := 0; i < *replicas; i++ {
		hosts = append(hosts, n.MustAddHost(fmt.Sprintf("globaldb-replica-%d", i),
			fmt.Sprintf("40.0.1.%d", i+1), "us", cloud))
	}
	mode := "in-memory store"
	if *walDir != "" {
		mode = fmt.Sprintf("WAL+snapshot store in %s", *walDir)
	}
	var (
		srv *globaldb.Server
		set *replica.Set
		err error
	)
	if *replicas > 0 {
		set, err = replica.NewSet(replica.Config{Clock: clock, Hosts: hosts, Dir: *walDir, HostHeader: "globaldb.example"})
		if err != nil {
			fatal(err)
		}
		srv = set.Nodes[0].Server
	} else {
		srv, err = globaldb.NewDurableServer(clock, nil, globaldb.StoreOptions{Dir: *walDir, SnapshotEvery: *snapEvery})
		if err != nil {
			fatal(err)
		}
		if err := srv.Attach(hosts[0], 80); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("global DB serving on 40.0.0.1:80 (emulated, %s)\n", mode)
	if set != nil {
		fmt.Printf("replication: %d followers at %v\n", *replicas, set.Addrs[1:])
	}

	mkClient := func(i int) *globaldb.Client {
		h := n.MustAddHost(fmt.Sprintf("reporter-%d", i), fmt.Sprintf("10.0.%d.%d", i/200, 1+i%200), "pk", cloud)
		return &globaldb.Client{
			Endpoints: []string{"40.0.0.1:80"}, Host: "globaldb.example",
			Clock: clock, ReportDial: h.Dial, FetchDial: h.Dial,
		}
	}

	ctx := context.Background()
	var clients []*globaldb.Client
	for i := 0; i < *reporters; i++ {
		c := mkClient(i)
		clients = append(clients, c)
		if err := c.Register(ctx, fmt.Sprintf("human-%d", i)); err != nil {
			fatal(err)
		}
		if _, err := c.Report(ctx, []localdb.Record{
			{URL: "www.youtube.com/", ASN: asn, Status: localdb.Blocked,
				Stages: []localdb.Stage{{Type: localdb.BlockDNS, Detail: "redirect"}}},
			{URL: "hot.example.net/", ASN: asn, Status: localdb.Blocked,
				Stages: []localdb.Stage{{Type: localdb.BlockHTTP, Detail: "blockpage"}}},
		}); err != nil {
			fatal(err)
		}
	}

	// One attacker sprays bogus URLs; the voting statistics dilute it.
	atk := mkClient(999)
	if err := atk.Register(ctx, "human-but-malicious"); err != nil {
		fatal(err)
	}
	var fakes []localdb.Record
	for i := 0; i < *spam; i++ {
		fakes = append(fakes, localdb.Record{
			URL: fmt.Sprintf("innocent-%03d.example/", i), ASN: asn, Status: localdb.Blocked,
			Stages: []localdb.Stage{{Type: localdb.BlockHTTP, Detail: "blockpage"}},
		})
	}
	if _, err := atk.Report(ctx, fakes); err != nil {
		fatal(err)
	}

	entries, err := clients[0].FetchBlocked(ctx, asn)
	if err != nil {
		fatal(err)
	}
	fullBytes := clients[0].Counters().Get("list-bytes")
	lax := globaldb.TrustFilter{}
	strict := globaldb.TrustFilter{MinReporters: 2, MinAvgVote: 0.1}
	tbl := metrics.Table{
		Title:   fmt.Sprintf("Blocked list for AS%d (%d honest reporters, %d-URL spray)", asn, *reporters, *spam),
		Headers: []string{"URL", "s (votes)", "n (reporters)", "default filter", "strict filter"},
	}
	laxN, strictN := 0, 0
	for _, e := range entries {
		lOK, sOK := lax.Trusted(e), strict.Trusted(e)
		if lOK {
			laxN++
		}
		if sOK {
			strictN++
		}
		if sOK || len(tbl.Rows) < 12 {
			tbl.AddRow(e.URL, fmt.Sprintf("%.3f", e.Votes), fmt.Sprintf("%d", e.Reporters),
				fmt.Sprintf("%v", lOK), fmt.Sprintf("%v", sOK))
		}
	}
	fmt.Println(tbl.String())
	fmt.Printf("default filter trusts %d/%d; strict (n≥2, s/n≥0.1) trusts %d/%d — §5's consumers pick the tradeoff\n\n",
		laxN, len(entries), strictN, len(entries))

	st := srv.StatsSnapshot()
	fmt.Printf("server stats: users=%d blocked_urls=%d domains=%d ases=%d updates=%d by_type=%v\n",
		st.Users, st.BlockedURLs, st.BlockedDomains, st.ASes, st.Updates, st.ByType)

	if set != nil {
		demoFailover(ctx, n, clock, srv, set, asn, fullBytes)
	}
	if *walDir != "" {
		dir, every := *walDir, *snapEvery
		if set != nil {
			dir, every = filepath.Join(dir, set.Nodes[0].Name), -1
		}
		demoRecovery(clock, srv, dir, every, asn, fullBytes, len(entries))
	}
}

// demoFailover quiesces replication, then plays the §5 scenario: the
// failover user's ISP blackholes the primary's IP and the user's replica-set
// client fails over to a follower within the same sync call — answered 304,
// because converged replicas share validator tags.
func demoFailover(ctx context.Context, n *netem.Network, clock *vtime.Clock,
	srv *globaldb.Server, set *replica.Set, asn, fullBytes int) {
	// Twice: the first pass ships the log, the second carries the acks.
	for i := 0; i < 2; i++ {
		if err := set.SyncAll(ctx); err != nil {
			fatal(fmt.Errorf("replication sync: %w", err))
		}
	}
	lag := srv.ReplicationFeed().Stats()
	fmt.Printf("\nreplication quiesced: head=%d, followers=%d, max lag=%d\n",
		lag.Head, len(lag.Followers), lag.MaxLag)

	// The user's ISP drops SYNs toward the primary once the censor acts.
	censor := netem.NewFaultInjector(nil)
	censor.Target("40.0.0.1")
	isp := n.AddAS(asn, "failover-isp", "PK")
	isp.SetInterceptor(censor)
	h := n.MustAddHost("failover-user", "10.0.9.1", "pk", isp)
	c := &globaldb.Client{
		Endpoints: set.Addrs, Host: "globaldb.example", Clock: clock,
		ReportDial: h.Dial, FetchDial: h.Dial,
	}
	if err := c.Register(ctx, "human-failover"); err != nil {
		fatal(err)
	}
	if _, err := c.FetchBlocked(ctx, asn); err != nil {
		fatal(err)
	}
	fmt.Printf("replica-set client synced from %s (%d list bytes)\n", c.LastServed(), c.Counters().Get("list-bytes"))

	censor.SetDown(true) // the censor blackholes 40.0.0.1: SYNs vanish
	start := clock.Now()
	if _, err := c.FetchBlocked(ctx, asn); err != nil {
		fatal(fmt.Errorf("failover fetch: %w", err))
	}
	elapsed := clock.Now().Sub(start)
	cs := c.Counters()
	fmt.Printf("primary blackholed: failed over to %s in %.1fs virtual (failovers=%d, 304s=%d, list bytes moved=%d)\n",
		c.LastServed(), elapsed.Seconds(), cs.Get("failovers"), cs.Get("fetch-304"), cs.Get("list-bytes")-fullBytes)
	censor.SetDown(false)
}

// demoRecovery kills the durable server and reopens its directory: recovery
// replays snapshot + log tail and must serve the exact pre-kill body.
func demoRecovery(clock *vtime.Clock, srv *globaldb.Server, dir string, snapEvery, asn, fullBytes, nEntries int) {
	if err := srv.Close(); err != nil {
		fatal(fmt.Errorf("close durable server: %w", err))
	}
	re, err := globaldb.NewDurableServer(clock, nil, globaldb.StoreOptions{Dir: dir, SnapshotEvery: snapEvery})
	if err != nil {
		fatal(fmt.Errorf("recover store: %w", err))
	}
	target := fmt.Sprintf("%s?asn=%d", globaldb.PathFetch, asn)
	body := re.Handler().ServeHTTP(httpx.NewRequest("GET", "globaldb.example", target), netem.Flow{}).Body
	entries := re.BlockedForAS(asn)
	fmt.Printf("\nkill-and-recover from %s: blocked list is %d bytes (pre-kill %d), %d entries (pre-kill %d)\n",
		dir, len(body), fullBytes, len(entries), nEntries)
	if len(body) != fullBytes || len(entries) != nEntries {
		fatal(fmt.Errorf("recovered state diverges from the pre-kill state"))
	}
	if err := re.Close(); err != nil {
		fatal(fmt.Errorf("close recovered store: %w", err))
	}
	fmt.Println("recovered state matches byte-for-byte")
}

// demoChaos runs one chaos schedule — the fixed primary-loss plan, or the
// seed's randomized one — and prints the fault log, the promotion outcome,
// and the post-heal invariant checks.
func demoChaos(seed int64) {
	dir, err := os.MkdirTemp("", "csaw-chaos-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)

	s := chaos.PrimaryLoss()
	runSeed := int64(1)
	if seed != 0 {
		s = chaos.Generate(seed)
		runSeed = seed
	}
	fmt.Printf("chaos schedule %q: %d rounds, %d fault injections\n", s.Name, s.Rounds, len(s.Events))
	for _, ev := range s.Events {
		fmt.Printf("  round %2d: %v node=%d dur=%d\n", ev.Round, ev.Kind, ev.Node, ev.Dur)
	}

	c, checked, ticks, err := chaos.Run(context.Background(), runSeed, dir, s)
	if err != nil {
		fatal(fmt.Errorf("chaos run: %w", err))
	}
	li := c.Set.Leader()
	term, leader, _ := c.Set.Nodes[li].Server.TermState()
	fmt.Printf("\nconverged %d ticks after the last fault: leader node-%d, term %d led from %s\n",
		ticks, li, term, leader)
	fmt.Printf("acked reports: %d, all present on every replica\n", len(c.Acked))
	if counts := c.Counts.Snapshot(); len(counts) > 0 {
		fmt.Printf("fault counters: %v\n", counts)
	}
	fmt.Println("invariants verified:")
	for _, inv := range checked {
		fmt.Printf("  ✓ %s\n", inv)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "csaw-globaldb:", err)
	os.Exit(1)
}
