package core

import (
	"go/parser"
	"go/token"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"csaw/internal/localdb"
	"csaw/internal/seedrand"
)

// The rules of §4.3.2 as tables over the planner (plan.go): no Client and
// no clock — the time is a value the rows advance, the draws a seeded source.

const planURL = "blocked.example/"

// approaches builds approaches by name: the local fixes worldgen gives a
// case-study client as it builds them (the front serves every URL here),
// any other name a relay, anonymous when it is Tor's.
func approaches(names string) (apps []*Approach) {
	fixes := map[string]*Approach{"public-dns": PublicDNSFix(nil, nil, nil), "https": HTTPSFix(nil, nil, nil, nil),
		"domain-fronting": NewFrontingFix(nil, nil, "front.example", "203.0.113.9", func(string) bool { return true }),
		"ip-as-hostname":  IPAsHostnameFix(nil, nil, nil)}
	for _, name := range strings.Fields(names) {
		a := fixes[name]
		if a == nil {
			a = &Approach{Name: name, Kind: KindRelay, Anonymous: strings.HasPrefix(name, "tor"), Handles: handlesAll}
		}
		apps = append(apps, a)
	}
	return apps
}

// rungs is worldgen's ladder in its order: the local fixes, then the relays.
const rungs = "public-dns https domain-fronting ip-as-hostname tor tor-bridge lantern proxy-Netherlands"

// stagesOf parses a detect verdict's stage summary
// ("dns(nxdomain)+http(rst)"); "-" is nil, the unknown mechanism.
func stagesOf(summary string) (out []localdb.Stage) {
	for _, part := range strings.Split(summary, "+") {
		name, detail, _ := strings.Cut(strings.TrimSuffix(part, ")"), "(")
		for b := localdb.BlockDNS; b <= localdb.BlockContent; b++ {
			if b.String() == name {
				out = append(out, localdb.Stage{Type: b, Detail: detail})
			}
		}
	}
	return out
}

// A planner is what a client keeps for the planner, without the client.
type planner struct {
	t       testing.TB
	cfg     *Config
	sel     table
	now     time.Time
	draw    func(int) int
	url     string
	stages  []localdb.Stage
	paroled int
	picks   [][2]string // each pick step's names and the one it chose
}

func newPlanner(t testing.TB, cfg Config, seed int64) *planner {
	return &planner{t: t, cfg: &cfg, now: time.Date(2017, 11, 25, 0, 0, 0, 0, time.UTC), draw: seedrand.New(seed).Intn, url: planURL}
}

func (p *planner) index(name string) int {
	return slices.IndexFunc(p.cfg.Approaches, func(a *Approach) bool { return a.Name == name })
}

func (p *planner) choose() pick {
	locals, relays := tiers(p.cfg, p.url, p.stages)
	c, n := p.sel.choose(p.cfg, p.url, locals, relays, p.now, p.draw)
	p.paroled += n
	return c
}

func (p *planner) order(first int) []int {
	locals, relays := tiers(p.cfg, p.url, p.stages)
	walk, n := p.sel.order(nil, p.cfg, p.url, locals, relays, first, p.now, p.draw)
	p.paroled += n
	return walk
}

func (p *planner) fold(i int, out outcome, seconds float64) (benched, restored bool) {
	_, benched, restored = p.sel.fold(p.cfg, i, p.url, out, seconds, p.now)
	return benched, restored
}

// step runs one step of a planScripts script.
func (p *planner) step(step string) {
	f := strings.Fields(step)
	rest := func(n int) string { return strings.Join(f[min(n, len(f)):], " ") }
	switch f[0] {
	case "ok", "fail", "cut":
		out, secs := map[string]outcome{"ok": served, "fail": failed, "cut": cut}[f[0]], 0.0
		if out == served {
			secs, _ = strconv.ParseFloat(f[2], 64)
			f = slices.Delete(f, 2, 3)
		}
		benched, restored := p.fold(p.index(f[1]), out, secs)
		if got := map[[2]bool]string{{true, false}: "bench", {false, true}: "restore"}[[2]bool{benched, restored}]; got != rest(2) {
			p.t.Errorf("%s: the record reads %q", step, got)
		}
	case "wait":
		d, _ := time.ParseDuration(f[1])
		p.now = p.now.Add(d)
	case "stages":
		p.stages = stagesOf(f[1])
	case "pick":
		c, name := p.choose(), "-"
		if c.app >= 0 {
			name = p.cfg.Approaches[c.app].Name
		}
		got := strings.TrimSpace(string(c.why) + map[bool]string{true: " override"}[c.override])
		if !slices.Contains(strings.Split(f[1], "|"), name) || got != rest(2) {
			p.t.Errorf("%s: chose %s %s", step, name, got)
		}
		p.picks = append(p.picks, [2]string{f[1], name})
	case "order":
		var names []string
		for _, i := range p.order(p.index(f[1])) {
			names = append(names, p.cfg.Approaches[i].Name)
		}
		if got := strings.Join(names, ","); got != f[2] {
			p.t.Errorf("%s: walk %s", step, got)
		}
	case "paroles":
		if strconv.Itoa(p.paroled) != f[1] {
			p.t.Errorf("%s: %d paroles", step, p.paroled)
		}
	default:
		p.t.Fatalf("unknown step %q", step)
	}
}

// planScripts are scripts over the planner on a URL's stages (detect's
// summary; "-" is unknown), each run once per seed below planSeeds. Steps
// are separated by ";", and N*STEP repeats one N times:
//
//	ok NAME SECS [restore] | fail NAME [bench] | cut NAME: an attempt's
//	  outcome, which benches or restores the approach when the step says so
//	wait DURATION | stages SUMMARY | paroles N (the paroles so far)
//	pick NAMES WHY [override]: the choice is one of NAMES ("a|b"; "-" for
//	  none) by the rule WHY, and over the seeds each of NAMES is chosen
//	order FIRST NAMES: the failover walk from FIRST is NAMES ("a,b")
var planScripts = []struct {
	name, apps, stages string
	cfg                Config
	script             string
}{
	// Selection.
	{"untried approaches score zero and ties reach each", "tried fresh-a fresh-b", "-", Config{},
		"ok tried 0.4; pick fresh-a|fresh-b best-ewma"},
	{"an applicable local fix beats a better relay; unknown stages leave the relays", "tor public-dns", "dns(nxdomain)", Config{},
		"ok tor 0.1; ok public-dns 5; pick public-dns local-fix; stages -; pick tor best-ewma"},
	{"every n-th access explores", "a b c", "-", Config{ExploreEvery: 4},
		"ok a 0.5; ok b 1; ok c 2; 3*pick a best-ewma; pick a|b|c explore; pick a best-ewma"},
	{"a penalised approach overtakes after 13 successes at alpha 0.3", "cheap tor", "-", Config{Quarantine: QuarantinePolicy{Strikes: -1}},
		"2*fail cheap; 10*ok tor 2; pick tor best-ewma; 12*ok cheap 0.5; pick tor best-ewma; ok cheap 0.5; pick cheap best-ewma"},
	{"anonymity with no anonymous approach chooses none", "public-dns lantern proxy-Netherlands", "dns(nxdomain)", Config{Pref: PreferAnonymity},
		"pick -"},
	{"the walk: the choice, the other local fixes, the relays, four at most", "r1 https r2 public-dns r3", "dns(nxdomain)", Config{},
		"ok r1 3; ok r2 1; ok r3 2; ok public-dns 9; order https https,public-dns,r2,r3"},
	{"a cut attempt records nothing", "a b", "-", Config{},
		"ok b 1; 3*cut a; pick a best-ewma; order b b,a"},

	// Quarantine.
	{"two strikes bench; expiry paroles; probation re-benches for twice as long; success restores", "a b", "-", Config{},
		"fail a; order b b,a; fail a bench; order b b; wait 2m1s; order b b,a; paroles 1; " +
			"fail a bench; wait 2m1s; order b b; wait 2m; order b b,a; paroles 2; ok a 1 restore; fail a; order b b,a"},
	{"benches double up to the cap, however many", "a b", "-", Config{Quarantine: QuarantinePolicy{BenchBase: time.Minute, BenchMax: 5 * time.Minute}},
		"fail a; fail a bench; wait 1m; order b b,a; fail a bench; wait 1m59s; order b b; wait 1s; order b b,a; " +
			"2*fail a bench; wait 4m59s; order b b; wait 1s; order b b,a; 40*fail a bench; wait 4m59s; order b b; wait 1s; order b b,a"},
	{"a parole resets the poisoned average, so the probe runs", "a b", "-", Config{},
		"ok b 1; fail a; fail a bench; pick b best-ewma; wait 3m; pick a best-ewma; paroles 1"},
	{"quarantine off never benches", "a b", "-", Config{Quarantine: QuarantinePolicy{Strikes: -1}},
		"3*fail a; order b b,a"},
	{"all benched: the bench is overridden", "a b", "-", Config{Quarantine: QuarantinePolicy{Strikes: 1}},
		"fail a bench; fail b bench; pick a|b best-ewma override"},
	{"a benched relay stays out while a worse one is healthy", "a b ok", "-", Config{Quarantine: QuarantinePolicy{Strikes: 1}},
		"ok ok 200; fail a bench; fail b bench; pick ok best-ewma"},
	{"only approaches that fit are paroled", "public-dns https tor", "http(rst)", Config{},
		"ok https 5; fail public-dns; fail public-dns bench; wait 3m; order https https,tor; pick https local-fix; paroles 0; " +
			"stages dns(nxdomain); pick public-dns local-fix; paroles 1"},
}

const planSeeds = 32

func TestPlanRows(t *testing.T) { runPlans(t, "") }

// The tests the rows replaced, by name.
func TestSelectUntriedWinsTies(t *testing.T)          { runPlans(t, "untried") }
func TestSelectLocalFixPreferred(t *testing.T)        { runPlans(t, "an applicable local fix") }
func TestSelectExploreCadence(t *testing.T)           { runPlans(t, "every n-th") }
func TestSelectCheaperApproachOvertakes(t *testing.T) { runPlans(t, "a penalised") }
func TestCandidateOrderTiersAndBounds(t *testing.T)   { runPlans(t, "the walk") }
func TestQuarantineBenchAfterStrikes(t *testing.T)    { runPlans(t, "two strikes") }
func TestQuarantineBenchBackoffCapped(t *testing.T)   { runPlans(t, "benches double") }
func TestQuarantineDisabled(t *testing.T)             { runPlans(t, "quarantine off") }
func TestQuarantineOverrideWhenAllBenched(t *testing.T) {
	runPlans(t, "all benched")
	runPlans(t, "a benched relay")
}
func TestHTTPSFixForHTTPBlocking(t *testing.T) { rungMatrix(t, "http(rst)") }

// TestSelectOrderInvariantUnderPermutation runs FuzzPlan's checks, the
// interleaving one among them, over seeded random scripts.
func TestSelectOrderInvariantUnderPermutation(t *testing.T) {
	r := seedrand.New(1)
	for range 500 {
		in := make([]byte, 16+r.Intn(240))
		r.Read(in)
		planScript(t, in)
	}
}

// runPlans runs the planScripts whose names start with prefix.
func runPlans(t *testing.T, prefix string) {
	for _, row := range planScripts {
		if !strings.HasPrefix(row.name, prefix) {
			continue
		}
		t.Run(row.name, func(t *testing.T) {
			var picks [][][2]string // per seed
			for seed := range int64(planSeeds) {
				row.cfg.Approaches = approaches(row.apps)
				p := newPlanner(t, row.cfg, seed)
				p.stages = stagesOf(row.stages)
				for _, step := range strings.Split(row.script, ";") {
					n, one, ok := strings.Cut(strings.TrimSpace(step), "*")
					if !ok {
						n, one = "1", n
					}
					for k, _ := strconv.Atoi(n); k > 0; k-- {
						p.step(one)
					}
				}
				if t.Failed() {
					t.Fatalf("seed %d", seed)
				}
				picks = append(picks, p.picks)
			}
			for k, pick := range picks[0] {
				for _, name := range strings.Split(pick[0], "|") {
					if !slices.ContainsFunc(picks, func(seed [][2]string) bool { return seed[k][1] == name }) {
						t.Errorf("pick %d: %s never chosen over %d seeds", k+1, name, planSeeds)
					}
				}
			}
		})
	}
}

// TestRungMatrix is the rung half of the mechanism matrix: for each of
// detect's symptom verdicts, single- or multihomed behind a second provider
// that serves a block page (§4.4: the client circumvents the union), under
// either preference and with some fitting rungs broken, the rungs the first
// choice falls among and the rung that serves every fetch from the fourth
// on (one fetch per fitting local fix, each scoring zero until tried), bar
// explored ones. Fetches walk the planner's order a minute apart, each rung
// failing or serving at its PLT (Figure 1: fixes, then relays, then Tor).
func TestRungMatrix(t *testing.T) { rungMatrix(t, "") }

// rungMatrix runs TestRungMatrix's rows for symptom, or all of them.
func rungMatrix(t *testing.T, symptom string) {
	plt := map[string]float64{"public-dns": 0.30, "ip-as-hostname": 0.32, "https": 0.40, "domain-fronting": 0.60,
		"proxy-Netherlands": 1.2, "lantern": 1.6, "tor": 3.0, "tor-bridge": 3.5}
	const fixes, httpFixes, settleWithin = "public-dns|https|domain-fronting|ip-as-hostname", "https|domain-fronting|ip-as-hostname", 4
	for _, row := range []struct {
		symptom       string
		multihomed    bool
		pref          Preference
		broken        string // fitting rungs that do not get through
		first, settle string
	}{
		{"dns(nxdomain)", false, PreferPerformance, "", fixes, "public-dns"},
		{"dns(redirect)", false, PreferPerformance, "", fixes, "public-dns"},
		{"dns(no-response)", false, PreferPerformance, "public-dns https ip-as-hostname", fixes, "domain-fronting"},
		{"ip(rst)", false, PreferPerformance, "", "domain-fronting", "domain-fronting"},
		{"ip(rst)", false, PreferPerformance, "domain-fronting", "domain-fronting", "proxy-Netherlands"},
		{"tcp-timeout(connect-timeout)", false, PreferPerformance, "", "domain-fronting", "domain-fronting"},
		{"http(rst)", false, PreferPerformance, "", httpFixes, "ip-as-hostname"},
		{"http(blockpage)", false, PreferPerformance, "ip-as-hostname", httpFixes, "https"},
		{"http(get-timeout)", false, PreferPerformance, "https domain-fronting ip-as-hostname", httpFixes, "proxy-Netherlands"},
		{"sni(rst)", false, PreferPerformance, "", "domain-fronting", "domain-fronting"},
		{"dns(no-response)+tcp-timeout(connect-timeout)", false, PreferPerformance, "", "domain-fronting", "domain-fronting"},
		{"http(blockpage)+dns(redirect)", false, PreferPerformance, "", httpFixes, "ip-as-hostname"},
		{"dns(nxdomain)+http(rst)", false, PreferPerformance, "", httpFixes, "ip-as-hostname"},
		{"dns(nxdomain)", true, PreferPerformance, "", httpFixes, "ip-as-hostname"},
		{"ip(rst)", true, PreferPerformance, "", "domain-fronting", "domain-fronting"},
		{"sni(rst)", true, PreferPerformance, "domain-fronting", "domain-fronting", "proxy-Netherlands"},
		{"http(rst)", true, PreferPerformance, "", httpFixes, "ip-as-hostname"},
		{"http(blockpage)", false, PreferAnonymity, "", "tor|tor-bridge", "tor"},
		{"http(blockpage)", false, PreferAnonymity, "tor", "tor|tor-bridge", "tor-bridge"},
	} {
		if symptom != "" && row.symptom != symptom {
			continue
		}
		stages := stagesOf(row.symptom)
		for _, s := range stagesOf("http(blockpage)") {
			if row.multihomed && !slices.ContainsFunc(stages, func(m localdb.Stage) bool { return m.Type == s.Type }) {
				stages = append(stages, s)
			}
		}
		why := map[Preference]Why{PreferPerformance: WhyLocalFix, PreferAnonymity: WhyBestEWMA}[row.pref]
		firsts := map[string]bool{}
		for seed := range int64(planSeeds) {
			p := newPlanner(t, Config{Approaches: approaches(rungs), Pref: row.pref}, seed)
			p.stages = stages
			for fetch := range 30 {
				c := p.choose()
				first, servedBy := p.cfg.Approaches[c.app].Name, "none"
				if fetch == 0 {
					firsts[first] = true
					if !slices.Contains(strings.Split(row.first, "|"), first) || c.why != why {
						t.Errorf("%+v: first choice %s %s", row, first, c.why)
					}
				}
				for _, i := range p.order(c.app) {
					rung, out := p.cfg.Approaches[i].Name, served
					if strings.Contains(" "+row.broken+" ", " "+rung+" ") {
						out = failed
					}
					if p.fold(i, out, plt[rung]); out == served {
						servedBy = rung
						break
					}
				}
				if fetch >= settleWithin && c.why != WhyExplore && servedBy != row.settle {
					t.Fatalf("%+v seed %d: fetch %d (%s %s) served by %s", row, seed, fetch, first, c.why, servedBy)
				}
				p.now = p.now.Add(time.Minute)
			}
		}
		for _, want := range strings.Split(row.first, "|") {
			if !firsts[want] {
				t.Errorf("%+v: %s never chosen first over %d seeds", row, want, planSeeds)
			}
		}
	}
}

// TestPlanImportsNoIO: the planner's file imports nothing that does I/O,
// keeps time, locks or counts.
func TestPlanImportsNoIO(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "plan.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		switch path, _ := strconv.Unquote(imp.Path.Value); path {
		case "context", "sync", "csaw/internal/vtime", "csaw/internal/netem", "csaw/internal/httpx", "csaw/internal/trace", "csaw/internal/metrics":
			t.Errorf("plan.go imports %s", path)
		}
	}
}

// FuzzPlan drives the planner with any approaches, policy and sequence of
// choices, outcomes and waits. It never panics; a choice is never a benched
// approach while an unbenched one fits, nor a non-anonymous one under
// PreferAnonymity; a walk starts with the choice, repeats nothing, has at
// most maxAttempts rungs and no benched one after the first. And what the
// outcomes record is a function of each approach's own: replayed approach
// by approach, they leave the same table.
func FuzzPlan(f *testing.F) {
	f.Add([]byte{0, 5, 2, 4, 0, 1, 3, 255, 0, 0, 0, 1, 1, 0, 1, 1, 1, 2, 9, 0, 1, 1})
	f.Add([]byte{1, 0, 1, 3, 3, 1, 0, 7, 1, 0, 0, 1, 0, 1, 1, 2, 40, 0, 0, 2, 1, 3, 1})
	f.Fuzz(planScript)
}

// planScript is FuzzPlan's run of one script.
func planScript(t *testing.T, in []byte) {
	if len(in) > 256 { // longer scripts add nothing but minimisation time
		return
	}
	next := func() (b int) {
		if len(in) > 0 {
			b, in = int(in[0]), in[1:]
		}
		return b
	}
	cfg := Config{Pref: Preference(next() % 2), ExploreEvery: next() % 6, Quarantine: QuarantinePolicy{Strikes: next()%4 - 1}}
	for range 1 + next()%10 {
		b := next() // kind, anonymity, then one bit per block type a fix defeats
		cfg.Approaches = append(cfg.Approaches, &Approach{Name: strconv.Itoa(len(cfg.Approaches)), Kind: Kind(b % 2), Anonymous: b&2 != 0,
			Handles: func(_ string, st []localdb.Stage) bool {
				return len(st) > 0 && !slices.ContainsFunc(st, func(s localdb.Stage) bool { return b>>2&(1<<s.Type) == 0 })
			}})
	}
	p := newPlanner(t, cfg, int64(next()))
	type folded struct {
		i, out  int
		seconds float64
		now     time.Time
		url     string
	}
	var history []folded
	for len(in) > 0 {
		op, url := next()%3, []string{planURL, "other.example/"}[next()%2]
		p.url, p.stages = url, stagesOf(fuzzStages[next()%len(fuzzStages)])
		locals, relays := tiers(p.cfg, url, p.stages)
		var benched set
		for i := range (locals | relays).each {
			if j, ok := p.sel.find(i, ""); ok && !cfg.Quarantine.disabled() && p.now.UnixNano() < p.sel[j].until {
				benched |= bit(i)
			}
		}
		switch c := p.choose(); {
		case op == 0 && c.app >= 0:
			if benched&bit(c.app) != 0 && (locals|relays)&^benched != 0 {
				t.Fatalf("chose benched %d while %b fits unbenched", c.app, (locals|relays)&^benched)
			}
			walk := p.order(c.app)
			for k, i := range walk {
				if walk[0] != c.app || len(walk) > maxAttempts || slices.Index(walk, i) != k || k > 0 && benched&bit(i) != 0 ||
					cfg.Pref == PreferAnonymity && !cfg.Approaches[i].Anonymous {
					t.Fatalf("walk %v for choice %d (benched %b)", walk, c.app, benched)
				}
			}
		case op == 1:
			h := folded{next() % len(cfg.Approaches), next() % 3, float64(next()) / 10, p.now, url}
			history = append(history, h)
			p.fold(h.i, outcome(h.out), h.seconds)
		case op == 2:
			p.now = p.now.Add(time.Duration(next()) * 10 * time.Second)
		}
	}
	replay := func(h []folded) table {
		q := newPlanner(t, cfg, 0)
		for _, e := range h {
			q.url, q.now = e.url, e.now
			q.fold(e.i, outcome(e.out), e.seconds)
		}
		return q.sel
	}
	byApproach := slices.Clone(history)
	slices.SortStableFunc(byApproach, func(a, b folded) int { return a.i - b.i })
	if a, b := replay(history), replay(byApproach); !slices.Equal(a, b) {
		t.Fatalf("the interleaving changed the table:\n%v\n%v", a, b)
	}
}

var fuzzStages = []string{"-", "dns(nxdomain)", "http(rst)", "ip(rst)", "dns(redirect)+http(blockpage)", "sni(rst)"}
