// csaw-client runs one interactive C-Saw client against the case-study
// world: it reads URLs from stdin (one per line), fetches each through the
// proxy, and reports which path served it, the measured blocking stages,
// and the local-DB state. "!sync" forces a global-DB round, "!db" dumps the
// local database, "!stats" prints client counters.
//
// Usage:
//
//	echo "www.youtube.com/" | csaw-client [-isp A|B] [-anon] [-scale S]
//	                                      [-churn] [-trace trace.jsonl]
//
// -churn swaps the case-study world for the adversarial churn scenario:
// the client sits behind an ISP whose censor walks the escalating
// three-epoch schedule (clean → HTTP block pages with residual censorship
// → IP/SNI escalation) on virtual time, with stale-verdict re-detection
// armed. Browse worldgen.ChurnHost and watch !stats as the policy flips.
//
// -trace streams one flight-recorder span per fetch as JSONL, in the
// human-facing timing profile (durations quantized to 100ms of virtual
// time): every DNS attempt, dial verdict, TLS hello, selection decision,
// and the PLT phase breakdown. A per-source phase summary prints at exit.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"csaw/internal/core"
	"csaw/internal/trace"
	"csaw/internal/worldgen"
)

func main() {
	var (
		ispName  = flag.String("isp", "A", "which case-study ISP to sit behind: A or B")
		anon     = flag.Bool("anon", false, "prefer anonymity (Tor-only circumvention)")
		scale    = flag.Float64("scale", 300, "virtual clock scale")
		seed     = flag.Int64("seed", 1, "random seed")
		churn    = flag.Bool("churn", false, "sit behind the adversarial churn ISP (escalating policy epochs on virtual time)")
		traceOut = flag.String("trace", "", "write flight-recorder spans as JSONL to this file (timing profile)")
	)
	flag.Parse()

	w, err := worldgen.New(worldgen.Options{Scale: *scale, Seed: *seed})
	if err != nil {
		fatal(err)
	}
	var isp *worldgen.ISP
	if *churn {
		originIP, err := w.AddChurnSite()
		if err != nil {
			fatal(err)
		}
		churnISP, schedule, err := w.BuildChurnISP(*seed, originIP)
		if err != nil {
			fatal(err)
		}
		isp = churnISP
		fmt.Println("censor epoch schedule (virtual time from now):")
		for i, ep := range schedule {
			fmt.Printf("  epoch %d  +%-6s %s\n", i, ep.Start.Sub(schedule[0].Start), ep.Policy.Name)
		}
		fmt.Printf("blocked site: %s (origin %s)\n", worldgen.ChurnHost, originIP)
	} else {
		ispA, ispB, err := w.CaseStudy()
		if err != nil {
			fatal(err)
		}
		isp = ispA
		if strings.EqualFold(*ispName, "B") {
			isp = ispB
		}
	}
	host := w.NewClientHost("interactive", isp)
	cfg := w.ClientConfig(host, *seed)
	if *churn {
		// Track the censor's flips so stale verdicts re-detect (the same
		// wiring the censor-churn experiment uses).
		cfg.CensorEpoch = isp.Censor.EpochStart
	}
	if *anon {
		cfg.Pref = core.PreferAnonymity
	}
	var tracer *trace.Tracer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		tracer = trace.New(w.Clock, trace.NewStreamSink(f), trace.WithTiming(trace.DefaultTick))
		cfg.Trace = tracer
		fmt.Fprintf(os.Stderr, "tracing every fetch to %s\n", *traceOut)
	}
	client, err := core.New(cfg)
	if err != nil {
		fatal(err)
	}
	defer client.Close()
	if err := client.Start(context.Background()); err != nil {
		fatal(err)
	}
	fmt.Printf("C-Saw client up behind %s (AS%d); registered with the global DB.\n",
		isp.AS.Name, isp.AS.Number)
	fmt.Println("Enter URLs (host/path) to browse; !db, !stats, !sync for introspection.")

	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == "!db":
			for _, rec := range client.DB().Snapshot() {
				fmt.Printf("  %-40s %-12s stages=%v posted=%v\n", rec.URL, rec.Status, rec.Stages, rec.GlobalPosted)
			}
		case line == "!stats":
			printCounters(client.CountersSnapshot())
			if client.Degraded() {
				fmt.Println("  MODE: local-only (sync circuit open)")
			}
		case line == "!sync":
			client.WaitIdle() // let in-flight measurements land first
			if err := client.SyncNow(context.Background()); err != nil {
				fmt.Println("  sync failed:", err)
			} else {
				fmt.Printf("  synced; %d globally-known blocked URLs for this AS\n", client.GlobalCacheLen())
			}
			c := client.CountersSnapshot()
			fmt.Printf("  rounds ok=%d failed=%d retried=%d skipped=%d partial=%d posted=%d deferred=%d degraded=%v\n",
				c["sync-ok"], c["sync-failures"], c["sync-retries"], c["sync-skipped"], c["sync-partial"],
				c["reports-posted"], c["sync-report-deferred"], client.Degraded())
			if err := client.LastSyncError(); err != nil {
				fmt.Printf("  last error: %s\n", err)
			}
		default:
			res := client.FetchURL(context.Background(), line)
			if !res.OK() {
				fmt.Printf("  ERROR status=%s err=%v\n", res.Status, res.Err)
				continue
			}
			fmt.Printf("  %d bytes via %-16s status=%-12s took=%.2fs stages=%v\n",
				len(res.Resp.Body), res.Source, res.Status, res.Took.Seconds(), res.Stages)
		}
	}
	client.WaitIdle()
	if tracer != nil {
		if b := tracer.Breakdown(); b != "" {
			fmt.Print(b)
		}
	}
}

// printCounters prints every nonzero counter, sorted by name.
func printCounters(c map[string]int) {
	names := make([]string, 0, len(c))
	for k := range c {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-26s %d\n", k, c[k])
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "csaw-client:", err)
	os.Exit(1)
}
