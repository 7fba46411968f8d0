package fleet

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"csaw/internal/trace"
	"csaw/internal/worldgen"
)

// TestFleetTraceDeterminism is the trace-content analogue of the soak's
// summary gate: under csaw-fleet's -trace discipline (one worker, serial
// clients, deterministic-profile recorder, sorted sink) two same-seed runs
// must produce byte-identical JSONL artifacts — every event, verdict, and
// selection decision, not just the aggregate summary.
func TestFleetTraceDeterminism(t *testing.T) {
	wl := Workload{
		Population:   24,
		Duration:     30 * time.Minute,
		Seed:         7,
		Sites:        40,
		ISPs:         3,
		BlockedFrac:  0.2,
		MeanSessions: 1.2,
		MaxFetches:   2,
	}
	run := func() string {
		var buf bytes.Buffer
		sink := trace.NewSortedSink(&buf)
		res := runEventFleet(t, wl, func(w *worldgen.World, o *Options) {
			o.Workers = 1
			o.SerialClients = true
			o.Trace = trace.New(w.Clock, sink, trace.WithSampling(4))
		})
		if err := sink.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		if res.Measured.FetchErrors > 0 {
			t.Fatalf("%d fetch errors in traced run", res.Measured.FetchErrors)
		}
		return buf.String()
	}

	a, b := run(), run()
	if a == "" {
		t.Fatal("no spans recorded — sampling or wiring is dead")
	}
	if a != b {
		t.Errorf("same seed, different traces:\n--- run 1 (%d bytes) ---\n%s--- run 2 (%d bytes) ---\n%s",
			len(a), firstDiffContext(a, b), len(b), firstDiffContext(b, a))
	}
	lines := strings.Count(a, "\n")
	t.Logf("trace determinism: %d spans, %d bytes, byte-identical across runs", lines, len(a))
}

// firstDiffContext returns the few lines around the first divergence, so a
// determinism failure reports the offending span instead of two megabyte
// blobs.
func firstDiffContext(a, b string) string {
	la, lb := strings.SplitAfter(a, "\n"), strings.SplitAfter(b, "\n")
	for i := range la {
		if i >= len(lb) || la[i] != lb[i] {
			lo := i - 1
			if lo < 0 {
				lo = 0
			}
			hi := i + 2
			if hi > len(la) {
				hi = len(la)
			}
			return strings.Join(la[lo:hi], "")
		}
	}
	return "(prefix of the other run)\n"
}
