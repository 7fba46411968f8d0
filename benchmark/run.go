package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// runConfig is one measurement run.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64 // time budget of the timed rounds
	trace    bool    // traced run: spans, CPU profile, per-layer table
	sz       sizes
	scratch  string // directory for the run's files (WAL dirs)
	traceOut string // where the traced run writes its span file ("" = nowhere)
}

// runFacts are the facts of a run the suite records next to its metrics.
type runFacts struct {
	Rounds     int     `json:"rounds"`
	Setups     int     `json:"setups"`
	CalibMS    float64 `json:"calib_ms"`
	SummarySHA string  `json:"summary_sha256,omitempty"` // fleet-10k only
}

// measurement is what one run produced.
type measurement struct {
	runFacts
	attempted, failed int
	problem           string // the first incorrect output, if any
	metrics           map[string]float64
	spans             []selfRow // traced runs: the span table, by self time
}

func (m *measurement) correct() bool { return m.failed == 0 && m.problem == "" }

// A run sets up at least minSetups times, so setup_s is a median and not
// one draw, and keeps going (up to maxSetups) while all of them together
// took less than setupBudget: a cheap set-up is a noisy one and needs more
// draws.
const (
	minSetups   = 3
	maxSetups   = 100
	setupBudget = 500 * time.Millisecond
)

// oneRound is a timed section with its outcome.
type oneRound struct {
	section
	roundResult
	traced bool
}

// runOnce measures one workload: calibrate, set up, run fixed-size rounds
// until the time budget is spent, verify. A traced run alternates untraced
// and traced rounds (spans + CPU profile on the traced ones) so the two are
// measured side by side, then runs the per-layer table.
func runOnce(cfg runConfig) (*measurement, error) {
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	wl, err := newWorkload(cfg.workload, cfg.sz, cfg.scratch)
	if err != nil {
		return nil, err
	}
	m := &measurement{metrics: map[string]float64{}}
	m.CalibMS = calibrate()
	if cfg.trace {
		// The table runs before the workload so that it meets the same
		// process state whichever workload the run belongs to.
		layer, err := layerTable(cfg)
		if err != nil {
			return nil, fmt.Errorf("per-layer table: %w", err)
		}
		m.metrics = layer
	}

	var tr *tracer
	var profiles []*bytes.Buffer
	if cfg.trace {
		tr = newTracer()
	}
	rootBuf := tr.buf()

	ctx := context.Background()
	var setupS []float64
	setup := func(run int) error {
		runtime.GC()
		t0 := now()
		mk := rootBuf.start(0, run)
		err := wl.setup(cfg.seed, rootBuf, mk.id, run)
		rootBuf.end(mk, "setup")
		setupS = append(setupS, since(t0).Seconds())
		return err
	}

	var rounds []oneRound
	var spent time.Duration
	verify := func(run int) error {
		wrong, err := wl.verify(rootBuf, 0, run)
		m.failed += wrong
		if err != nil && m.problem == "" {
			m.problem = err.Error()
		}
		return wl.release()
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	for r := 0; ; r++ {
		if r == 0 || wl.freshPerRound() {
			if err := setup(r); err != nil {
				return nil, fmt.Errorf("%s: setup: %w", cfg.workload, err)
			}
		}
		traced := cfg.trace && r%2 == 1
		var sb *spanBuf
		if traced {
			sb = rootBuf
			profiles = append(profiles, new(bytes.Buffer))
			if err := pprof.StartCPUProfile(profiles[len(profiles)-1]); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		mk := sb.start(0, r)
		var rr roundResult
		sec, err := timed(func() (err error) {
			rr, err = wl.round(ctx, sb, mk.id, r)
			return err
		})
		sb.end(mk, "round")
		if traced {
			pprof.StopCPUProfile()
		}
		if err != nil {
			return nil, fmt.Errorf("%s: round %d: %w", cfg.workload, r, err)
		}
		rounds = append(rounds, oneRound{section: sec, roundResult: rr, traced: traced})
		spent += sec.wall
		if wl.freshPerRound() {
			if err := verify(r); err != nil {
				return nil, err
			}
		}
		// Stop when the budget is spent or the next round would overrun it;
		// a traced run needs at least one round of each kind.
		if cfg.trace && len(rounds) < 2 {
			continue
		}
		if spent >= budget || spent+sec.wall > budget+budget/10 {
			break
		}
	}
	if !wl.freshPerRound() {
		if err := verify(len(rounds)); err != nil {
			return nil, err
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	// The remaining set-ups come after the rounds and the memory reading:
	// a world cannot be torn down (its servers' goroutines stay parked), so
	// set-ups before the rounds would grow the heap the rounds run in.
	for {
		n, total := len(setupS), 0.0
		for _, s := range setupS {
			total += s
		}
		// A run without a time budget (the smoke test) stops at the minimum.
		if n >= minSetups && (cfg.seconds <= 0 || n >= maxSetups || total >= setupBudget.Seconds()) {
			break
		}
		if err := setup(-1); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", cfg.workload, err)
		}
		if err := wl.release(); err != nil {
			return nil, err
		}
	}

	// Fold the rounds. Rates are medians over rounds: every round does the
	// same work, so the median discards a round a noisy neighbour slowed.
	var opsPerS, cpuMS, allocs, allocKB, tracedWall, plainWall []float64
	var opTimes []time.Duration
	for _, r := range rounds {
		m.attempted += r.ops
		m.failed += r.failed
		perOp := r.wall.Seconds() / float64(r.ops)
		if r.traced {
			tracedWall = append(tracedWall, perOp)
			continue
		}
		plainWall = append(plainWall, perOp)
		opsPerS = append(opsPerS, float64(r.ops)/r.wall.Seconds())
		cpuMS = append(cpuMS, float64(r.cpu)/float64(time.Millisecond)/float64(r.ops))
		allocs = append(allocs, float64(r.allocs)/float64(r.ops))
		allocKB = append(allocKB, float64(r.bytes)/1024/float64(r.ops))
		opTimes = append(opTimes, r.opTimes...)
	}
	m.Rounds, m.Setups = len(rounds), len(setupS)
	if f, ok := wl.(*fleetWL); ok {
		m.SummarySHA = f.sha
	}

	if !cfg.trace {
		m.metrics["setup_s"] = median(setupS)
		m.metrics["ops_per_s"] = median(opsPerS)
		m.metrics["cpu_ms_per_op"] = median(cpuMS)
		m.metrics["allocs_per_op"] = median(allocs)
		m.metrics["alloc_kb_per_op"] = median(allocKB)
		m.metrics["peak_rss_mb"] = rss
		if p50, ok := wl.extras()["op_p50_us"]; ok {
			m.metrics["op_p50_us"] = p50
		} else {
			m.metrics["op_p50_us"] = durQuantileUS(opTimes, 0.5)
		}
		return m, nil
	}

	// Traced run: the per-layer table.
	m.spans = selfTimes(tr.all())
	if cfg.traceOut != "" {
		if err := os.MkdirAll(filepath.Dir(cfg.traceOut), 0o755); err != nil {
			return nil, err
		}
		if err := tr.flush(cfg.traceOut); err != nil {
			return nil, err
		}
	}
	var stacks [][]string
	var weights []int64
	for _, p := range profiles {
		st, ws, err := profStacks(p.Bytes())
		if err != nil {
			return nil, err
		}
		stacks, weights = append(stacks, st...), append(weights, ws...)
	}
	shares := foldCPU(stacks, weights)
	for k, v := range shares {
		m.metrics["cpu_share."+k] = v
	}
	m.metrics["cpu_share.attributed"] = 1 - shares["other"]
	m.metrics["harness.calib_ms"] = m.CalibMS
	m.metrics["harness.trace_overhead_ratio"] = median(tracedWall) / median(plainWall)
	return m, nil
}
