// Package fleet drives population-scale C-Saw deployments through the
// emulated internet: O(10k) concurrent clients with realistic workload
// structure (Zipf site popularity, a diurnal session-arrival curve, user
// churn and staggered opt-in, per-AS population mixes), a worker-pooled
// driver, and live aggregate counters. It is the load generator behind
// cmd/csaw-fleet and the benchmark's fleet-10k workload.
//
// Determinism contract. A fleet run's Summary — plan aggregates plus the
// final global-DB contents — is byte-identical across same-seed runs, and
// the soak test holds the driver to that. Three choices make it so:
//
//   - The whole workload is a *plan*, generated up front from one seeded
//     RNG. Execution never draws workload randomness, so worker scheduling
//     cannot change what any client does.
//
//   - Clients run with PSet=true, P=0: a URL the global DB already lists as
//     blocked is circumvented without re-measuring, so the set of reports a
//     run produces depends only on which (client, URL) pairs measured —
//     and the *union* per AS is exactly the blocked URLs some client there
//     visited, independent of sync timing. (The first visitor of a URL
//     always measures: a global-cache hit requires a prior report, which
//     requires a prior measurement.) Per-client report sets DO race with
//     list downloads, so reporter counts, votes, and the updates counter
//     are measured quantities, not summary quantities.
//
//   - The fleet scenario blocks only with affirmative signals (block page,
//     RST, DNS redirect) and the driver raises the detector deadlines, so
//     clock drift under load can never flip a verdict to tcp-timeout.
//
// Runs use the discrete-event clock (vtime.NewEventDriven), where every
// concurrent worker's sleep advances the one shared virtual time. So
// everything timing-derived — PLTs, throughput, goroutine counts, sync
// volume — lives in Measured and is excluded from the comparison: it
// depends on how the workers interleave.
package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"csaw/internal/seedrand"
	"csaw/internal/worldgen"
)

// Workload parameterizes the synthetic population.
type Workload struct {
	Population int           // number of clients (default 500)
	Duration   time.Duration // virtual window, one compressed diurnal cycle (default 2h)
	Seed       int64         // drives all workload randomness (default 1)

	Sites       int     // catalog size (default 400)
	ISPs        int     // censoring ASes (default 12)
	BlockedFrac float64 // fraction of the catalog each AS blocks (default 0.15)

	// ZipfS/ZipfV shape site popularity (default 1.07/1.0 — a heavy head
	// with a long tail, the standard web-popularity shape).
	ZipfS, ZipfV float64
	// MeanSessions is the Poisson mean of browsing sessions per client over
	// the window (default 2). MaxFetches caps page loads per session
	// (default 4; the count is geometric, continue-probability 0.55).
	MeanSessions float64
	MaxFetches   int
	// ChurnFrac is the fraction of clients that opt out partway (default
	// 0.08). JoinWindow spreads opt-in over the window's start (default
	// Duration/3).
	ChurnFrac  float64
	JoinWindow time.Duration
}

// WithDefaults fills zero fields with the defaults documented above.
// BuildPlan applies it internally; callers that need the effective values
// (e.g. to size the scenario) call it themselves.
func (w Workload) WithDefaults() Workload {
	if w.Population <= 0 {
		w.Population = 500
	}
	if w.Duration <= 0 {
		w.Duration = 2 * time.Hour
	}
	if w.Seed == 0 {
		w.Seed = 1
	}
	if w.Sites <= 0 {
		w.Sites = 400
	}
	if w.ISPs <= 0 {
		w.ISPs = 12
	}
	if w.BlockedFrac <= 0 {
		w.BlockedFrac = 0.15
	}
	if w.ZipfS <= 1 {
		w.ZipfS = 1.07
	}
	if w.ZipfV < 1 {
		w.ZipfV = 1.0
	}
	if w.MeanSessions <= 0 {
		w.MeanSessions = 2
	}
	if w.MaxFetches <= 0 {
		w.MaxFetches = 4
	}
	if w.ChurnFrac < 0 {
		w.ChurnFrac = 0
	}
	if w.ChurnFrac == 0 {
		w.ChurnFrac = 0.08
	}
	if w.JoinWindow <= 0 || w.JoinWindow > w.Duration {
		w.JoinWindow = w.Duration / 3
	}
	return w
}

// Session is one planned browsing session: a point in the window and the
// pages loaded, in order.
type Session struct {
	At   time.Duration
	URLs []string
}

// ClientPlan is everything one client will do.
type ClientPlan struct {
	Index int
	ISP   int   // index into the scenario's ISPs; ASN = FleetBaseASN + ISP
	Seed  int64 // the client's core.Config seed
	Join  time.Duration
	// Leave is nonzero for churned clients: the client opts out (final sync,
	// close) at this offset instead of staying to the end.
	Leave    time.Duration
	Sessions []Session
}

// Plan is the full precomputed workload plus its deterministic aggregates.
type Plan struct {
	Workload Workload
	Clients  []ClientPlan

	Sessions      int
	Fetches       int
	Churned       int
	DistinctSites int
	PerISP        []int // clients per ISP index
}

// diurnal is the session-arrival intensity over the window, x in [0,1)
// mapped onto one day with the peak mid-window: real deployments see a
// deep night-time trough, and the trough is what makes the global DB's
// cached snapshots pay (long fetch-only stretches between writes).
func diurnal(x float64) float64 {
	return 0.35 + 0.325*(1+math.Sin(2*math.Pi*(x-0.25)))
}

// poisson draws from Poisson(mean) by Knuth's product method — exact, and
// cheap at the small means used here.
func poisson(rng *rand.Rand, mean float64) int {
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// BuildPlan generates the deterministic workload plan. All randomness comes
// from one seeded RNG drawn in a fixed order, so equal Workloads yield
// equal plans.
func BuildPlan(w Workload) *Plan {
	w = w.WithDefaults()
	rng := seedrand.New(w.Seed)
	zipf := rand.NewZipf(rng, w.ZipfS, w.ZipfV, uint64(w.Sites-1))

	// Per-AS population mix: ISPs get uneven shares, like real markets.
	weights := make([]float64, w.ISPs)
	total := 0.0
	for i := range weights {
		weights[i] = 0.25 + rng.Float64()
		total += weights[i]
	}

	p := &Plan{Workload: w, PerISP: make([]int, w.ISPs), Clients: make([]ClientPlan, 0, w.Population)}
	urls := make([]string, w.Sites) // by catalog index, formatted once: "" = not drawn yet
	for c := 0; c < w.Population; c++ {
		cp := ClientPlan{Index: c, Seed: w.Seed + int64(c)*7919}

		pick := rng.Float64() * total
		for i, wt := range weights {
			if pick -= wt; pick < 0 {
				cp.ISP = i
				break
			}
		}
		p.PerISP[cp.ISP]++

		cp.Join = time.Duration(rng.Float64() * float64(w.JoinWindow))
		end := w.Duration
		if rng.Float64() < w.ChurnFrac {
			frac := 0.3 + 0.5*rng.Float64()
			cp.Leave = cp.Join + time.Duration(frac*float64(w.Duration-cp.Join))
			end = cp.Leave
			p.Churned++
		}

		n := poisson(rng, w.MeanSessions)
		for s := 0; s < n; s++ {
			// Thinning: propose uniform in the client's active span, accept
			// against the diurnal intensity.
			var at time.Duration
			for {
				at = cp.Join + time.Duration(rng.Float64()*float64(end-cp.Join))
				if rng.Float64() < diurnal(float64(at)/float64(w.Duration)) {
					break
				}
			}
			k := 1
			for k < w.MaxFetches && rng.Float64() < 0.55 {
				k++
			}
			sess := Session{At: at, URLs: make([]string, k)}
			for f := range sess.URLs {
				i := int(zipf.Uint64())
				if urls[i] == "" {
					urls[i] = worldgen.FleetSiteURL(i)
					p.DistinctSites++
				}
				sess.URLs[f] = urls[i]
			}
			cp.Sessions = append(cp.Sessions, sess)
			p.Sessions++
			p.Fetches += k
		}
		sortSessions(cp.Sessions)
		p.Clients = append(p.Clients, cp)
	}
	return p
}

// sortSessions orders a client's sessions by time (stable: ties keep draw
// order).
func sortSessions(ss []Session) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j].At < ss[j-1].At; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

// ExpectedBlocked computes, per ASN, the exact URL set the global DB must
// list after the run: the blocked URLs some client of that AS visits. This
// is the plan-level ground truth the Summary is checked against.
func (p *Plan) ExpectedBlocked(sc *worldgen.FleetScenario) map[int]map[string]bool {
	out := make(map[int]map[string]bool)
	for i := range p.Clients {
		cp := &p.Clients[i]
		asn := worldgen.FleetBaseASN + cp.ISP
		blocked := sc.Blocked[asn]
		for _, s := range cp.Sessions {
			for _, u := range s.URLs {
				if blocked[u] {
					if out[asn] == nil {
						out[asn] = make(map[string]bool)
					}
					out[asn][u] = true
				}
			}
		}
	}
	return out
}

// String summarizes the plan in one line (progress logs).
func (p *Plan) String() string {
	return fmt.Sprintf("fleet plan: %d clients, %d sessions, %d fetches, %d churned, %d distinct sites",
		len(p.Clients), p.Sessions, p.Fetches, p.Churned, p.DistinctSites)
}
