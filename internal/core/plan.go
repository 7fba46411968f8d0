package core

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"strings"
	"time"

	"csaw/internal/localdb"
)

// The rules of §4.3.2 as one planner over a client's selection table: which
// approach a blocked URL takes and why, the order a failing fetch walks the
// others in, and what an attempt's outcome records. It does no I/O, reads no
// clock and takes no lock: the client passes the time and its draws in.

// Why names the rule behind a choice; the "select chosen" trace event
// carries it after the approach's name.
type Why string

// The rules of §4.3.2.
const (
	WhyLocalFix Why = "local-fix" // an applicable local fix beats any relay
	WhyBestEWMA Why = "best-ewma" // the relay with the lowest moving-average PLT
	WhyExplore  Why = "explore"   // every n-th access to a URL draws a relay at random
)

// Quarantine defaults: two consecutive hard failures bench an approach for
// two minutes; each re-bench doubles the sentence up to half an hour.
const (
	DefaultQuarantineStrikes = 2
	DefaultBenchBase         = 2 * time.Minute
	DefaultBenchMax          = 30 * time.Minute
)

// QuarantinePolicy tunes approach quarantine: hard circumvention failures
// bench an approach (it stops being selected), the bench expires into a
// probation probe, and a probation failure re-benches with exponential
// backoff — so a blacklisted approach costs one failed fetch per backoff
// period instead of one per fetch, while still being re-probed often
// enough to notice the censor relenting. The zero value selects the
// documented defaults; Strikes < 0 disables quarantine entirely.
type QuarantinePolicy struct {
	// Strikes is how many consecutive failures bench an approach
	// (default DefaultQuarantineStrikes; negative disables quarantine).
	Strikes int
	// BenchBase is the first bench duration (default DefaultBenchBase);
	// each subsequent bench doubles it, capped at BenchMax
	// (default DefaultBenchMax).
	BenchBase time.Duration
	BenchMax  time.Duration
}

func (p QuarantinePolicy) disabled() bool { return p.Strikes < 0 }

func (p QuarantinePolicy) strikes() int { return cmp.Or(max(p.Strikes, 0), DefaultQuarantineStrikes) }

func (p QuarantinePolicy) benchFor(benches int) time.Duration {
	base, limit := cmp.Or(max(p.BenchBase, 0), DefaultBenchBase), cmp.Or(max(p.BenchMax, 0), DefaultBenchMax)
	d := base << (benches - 1)
	if benches > 30 || d <= 0 || d > limit { // shift overflow guard + cap
		d = limit
	}
	return d
}

const (
	maxApproaches = 64  // a client's approaches: a set is one word
	maxAttempts   = 4   // the failover walk of one fetch
	ewmaAlpha     = 0.3 // the moving averages' smoothing factor
	// failurePenaltySeconds is what a failed attempt observes: far above any
	// PLT, so a failing approach sinks until successes pull it back.
	failurePenaltySeconds = 120
)

// A set holds approach indices, at most maxApproaches of them.
type set uint64

func bit(i int) set { return 1 << i }

// each yields the members in ascending order: the config's order.
func (s set) each(yield func(int) bool) {
	for ; s != 0; s &= s - 1 {
		if !yield(bits.TrailingZeros64(uint64(s))) {
			return
		}
	}
}

// A pick is the planner's choice for one fetch.
type pick struct {
	app      int  // the chosen approach's index; -1 when none can carry the URL
	why      Why  // the rule that chose it
	override bool // every fitting approach was benched, so the bench was ignored
	tier     set  // the candidates the rule chose among
}

// An outcome is how one attempt of the failover walk ended.
type outcome int

const (
	served outcome = iota // the approach delivered the page
	failed                // the approach failed on its own
	cut                   // the failover budget or the caller ended the attempt first
)

// A row is one line of a client's selection table, keyed by an approach
// index and a URL. A relay's row for a URL holds its moving average there;
// an approach's row for no URL holds its quarantine record and, for a local
// fix, its one moving average (a local fix behaves alike across URLs); the
// row of no approach (-1) for a URL holds the URL's access count.
type row struct {
	url     string
	ewma    float64 // the moving-average PLT in seconds, once tried
	until   int64   // benched until, in Unix nanoseconds; 0 if never benched
	access  int32   // the URL's accesses that reached the relay tier
	strikes int32   // consecutive failures since the last success
	benches int32   // completed benches: the backoff exponent
	app     int16
	tried   bool // ewma holds an observation
	paroled bool // the bench's expiry was seen: the probation probe is armed
}

// A table is a client's selection state, its rows sorted by URL and then
// approach. A client that never chose an approach holds none.
type table []row

// find returns where key's row is, or would go, and whether it is there.
func (t table) find(app int, url string) (int, bool) {
	return slices.BinarySearchFunc(t, row{app: int16(app), url: url}, func(r, key row) int {
		return cmp.Or(strings.Compare(r.url, key.url), cmp.Compare(r.app, key.app))
	})
}

// at returns key's row, adding an empty one where it is missing.
func (t *table) at(app int, url string) *row {
	i, ok := t.find(app, url)
	if !ok {
		*t = slices.Insert(*t, i, row{app: int16(app), url: url})
	}
	return &(*t)[i]
}

// avgURL is the URL of approach a's moving average for url: url itself
// for a relay, none for a local fix.
func avgURL(a *Approach, url string) string {
	if a.Kind == KindRelay {
		return url
	}
	return ""
}

// ewma returns approach i's moving average for url: zero, the optimistic
// score, before its first observation.
func (t table) ewma(cfg *Config, i int, url string) float64 {
	if j, ok := t.find(i, avgURL(cfg.Approaches[i], url)); ok {
		return t[j].ewma
	}
	return 0
}

// tiers classifies the approaches that may carry url under the user's
// preference: the local fixes that handle its stages, and the relays. Nil
// stages mean the mechanism is unknown, which only relays are sure to beat.
// Handles is the config's code, so the client classifies outside its lock
// and hands both calls below the tiers.
func tiers(cfg *Config, url string, stages []localdb.Stage) (locals, relays set) {
	for i, a := range cfg.Approaches {
		switch {
		case cfg.Pref == PreferAnonymity && !a.Anonymous: // ruled out by the user
		case a.Kind == KindRelay:
			relays |= bit(i)
		case a.Kind == KindLocalFix && stages != nil && a.Handles(url, stages):
			locals |= bit(i)
		}
	}
	return locals, relays
}

// choose picks the approach for a blocked URL: an applicable local fix over
// any relay, else the relay with the lowest moving average, except that
// every n-th access to the URL draws a relay at random to keep exploring.
// Benched approaches are left out unless every fitting one is benched: a
// client with only benched approaches must still try something. It returns
// the choice and how many approaches it paroled.
func (t *table) choose(cfg *Config, url string, locals, relays set, now time.Time, draw func(int) int) (p pick, paroled int) {
	ok, paroled := t.allowed(cfg.Quarantine, locals|relays, now)
	if ok == 0 && locals|relays != 0 {
		p.override = true
	} else {
		locals, relays = locals&ok, relays&ok
	}
	switch {
	case locals != 0:
		p.tier, p.why = locals, WhyLocalFix
	case relays == 0:
		return pick{app: -1}, paroled
	default:
		p.tier, p.why = relays, WhyBestEWMA
		r := t.at(-1, url)
		r.access++
		n := cmp.Or(max(cfg.ExploreEvery, 0), DefaultExploreEvery)
		if k := bits.OnesCount64(uint64(relays)); int(r.access)%n == 0 && k > 1 {
			for range draw(k) {
				relays &= relays - 1 // drop the lowest member
			}
			p.app, p.why = bits.TrailingZeros64(uint64(relays)), WhyExplore
			return p, paroled
		}
	}
	p.app = t.best(cfg, url, p.tier, draw)
	return p, paroled
}

// order appends to dst the failover walk of a fetch whose choice is first:
// first, then the other fitting local fixes, then the relays, each tier best
// average first and benched approaches left out, at most maxAttempts in all
// (the ranking goes on past the cap, so its draws are a whole ranking's). It
// returns the walk and how many approaches it paroled.
func (t *table) order(dst []int, cfg *Config, url string, locals, relays set, first int, now time.Time, draw func(int) int) ([]int, int) {
	ok, paroled := t.allowed(cfg.Quarantine, (locals|relays)&^bit(first), now)
	dst = append(dst, first)
	for _, tier := range [2]set{locals & ok, relays & ok} {
		for tier != 0 {
			i := t.best(cfg, url, tier, draw)
			if len(dst) < maxAttempts {
				dst = append(dst, i)
			}
			tier &^= bit(i)
		}
	}
	return dst, paroled
}

// best returns the candidate with the lowest moving average for url.
// Untried approaches score zero, so each gets tried before the averages take
// over, and ties break at random with one draw per tie (a reservoir sample):
// a strict "<" would always elect the first untried candidate in config
// order, and the others would never get their turn.
func (t table) best(cfg *Config, url string, cands set, draw func(int) int) int {
	best, bestVal, ties := -1, math.Inf(1), 0
	for i := range cands.each {
		switch v := t.ewma(cfg, i, url); {
		case best < 0 || v < bestVal:
			best, bestVal, ties = i, v, 1
		case v == bestVal:
			ties++
			if draw(ties) == 0 {
				best = i
			}
		}
	}
	return best
}

// allowed returns the members of s that are not benched at now. The first
// look at an expired bench paroles the approach: its moving averages, which
// the failures that benched it poisoned, are reset so that the probation
// probe runs (untried approaches score zero).
func (t table) allowed(pol QuarantinePolicy, s set, now time.Time) (ok set, paroled int) {
	if pol.disabled() {
		return s, 0
	}
	for i := range s.each {
		j, found := t.find(i, "")
		switch {
		case !found || t[j].until == 0:
		case now.UnixNano() < t[j].until:
			continue
		case !t[j].paroled:
			t[j].paroled = true
			paroled++
			for k := range t {
				if int(t[k].app) == i {
					t[k].ewma, t[k].tried = 0, false
				}
			}
		}
		ok |= bit(i)
	}
	return ok, paroled
}

// fold records how an attempt through approach i ended: a served page's
// seconds go into the moving average and restore full trust; a failure
// observes the penalty and strikes the quarantine record, and enough
// strikes, or one on probation, bench the approach; a cut attempt blames the
// deadline, not the approach, and records nothing. It returns the seconds
// observed and whether the approach was benched or restored.
func (t *table) fold(cfg *Config, i int, url string, out outcome, seconds float64, now time.Time) (observed float64, benched, restored bool) {
	if out == cut {
		return 0, false, false
	}
	if out == failed {
		seconds = failurePenaltySeconds
	}
	if r := t.at(i, avgURL(cfg.Approaches[i], url)); r.tried {
		r.ewma = ewmaAlpha*seconds + (1-ewmaAlpha)*r.ewma
	} else {
		r.ewma, r.tried = seconds, true
	}
	pol := cfg.Quarantine
	if pol.disabled() {
		return seconds, false, false
	}
	if out == served {
		if j, ok := t.find(i, ""); ok {
			q := &(*t)[j]
			restored = q.benches > 0
			q.strikes, q.benches, q.until, q.paroled = 0, 0, 0, false
		}
		return seconds, false, restored
	}
	q := t.at(i, "")
	q.strikes++
	if q.benches > 0 || int(q.strikes) >= pol.strikes() {
		q.benches++
		q.strikes, q.paroled = 0, false
		q.until = now.Add(pol.benchFor(int(q.benches))).UnixNano()
		benched = true
	}
	return seconds, benched, false
}
