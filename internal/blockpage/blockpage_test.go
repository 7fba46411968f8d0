package blockpage

import (
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"csaw/internal/web"
)

func TestPhase1RecallOnCorpus(t *testing.T) {
	// §4.3.1: phase 1 classifies ~80% of the 47-ISP corpus.
	c := NewClassifier()
	corpus := Corpus()
	if len(corpus) != 47 {
		t.Fatalf("corpus size = %d, want 47", len(corpus))
	}
	caught, hardCaught := 0, 0
	for _, p := range corpus {
		v := c.Phase1(p.HTML)
		if v.Suspected {
			caught++
			if p.Hard {
				hardCaught++
			}
		} else if !p.Hard {
			t.Errorf("easy corpus page %s missed (sim=%.2f phrases=%d size=%d)", p.ISP, v.Similarity, v.PhraseHits, v.Size)
		}
	}
	rate := float64(caught) / float64(len(corpus))
	if rate < 0.75 || rate > 0.90 {
		t.Errorf("phase-1 recall = %.0f%%, want ~80%%", rate*100)
	}
}

func TestPhase1NoFalsePositives(t *testing.T) {
	c := NewClassifier()
	for i, page := range NormalPages() {
		if v := c.Phase1(page); v.Suspected {
			t.Errorf("normal page %d convicted (sim=%.2f phrases=%d size=%d)", i, v.Similarity, v.PhraseHits, v.Size)
		}
	}
}

var sink *Classifier

// TestClassifiersShareTemplates: the reference templates are tokenized once
// per process, not once per classifier (a fleet builds one per client).
func TestClassifiersShareTemplates(t *testing.T) {
	a, b := NewClassifier(), NewClassifier()
	if &a.templates[0] != &b.templates[0] {
		t.Fatal("two classifiers hold two template tables")
	}
	if n := testing.AllocsPerRun(100, func() { sink = NewClassifier() }); n != 1 {
		t.Fatalf("NewClassifier allocates %v times, want 1: the classifier", n)
	}
}

func TestPhase1EdgeInputs(t *testing.T) {
	c := NewClassifier()
	if c.Phase1(nil).Suspected {
		t.Error("empty body convicted")
	}
	if c.Phase1([]byte("not html at all, just text about access denied")).Suspected {
		t.Error("non-HTML convicted")
	}
	big := []byte("<html>" + strings.Repeat("<p>access denied</p>", 4000) + "</html>")
	if c.Phase1(big).Suspected {
		t.Error("oversized body convicted by phase 1")
	}
}

func TestPhase2SizeComparison(t *testing.T) {
	// A 1 KB block page vs a 360 KB real page → manipulation.
	if !Phase2(1024, 360*1024) {
		t.Error("obvious block page not detected")
	}
	// Same-ish sizes → no manipulation (regional variation tolerated).
	if Phase2(350*1024, 360*1024) {
		t.Error("similar sizes flagged")
	}
	// No circumvented copy → cannot conclude.
	if Phase2(1024, 0) {
		t.Error("phase 2 concluded without a comparison copy")
	}
	// Direct slightly smaller than half: boundary behaviour.
	if Phase2(50, 100) {
		t.Error("exactly at ratio should not convict")
	}
	if !Phase2(49, 100) {
		t.Error("just under ratio should convict")
	}
}

func TestHardPagesCaughtByPhase2(t *testing.T) {
	// Every phase-1 miss in the corpus is caught by phase 2 against the
	// real page (the two-phase guarantee).
	c := NewClassifier()
	realPageSize := 360 * 1024
	for _, p := range Corpus() {
		if c.Phase1(p.HTML).Suspected {
			continue
		}
		if !Phase2(len(p.HTML), realPageSize) {
			t.Errorf("page %s evades both phases (size=%d)", p.ISP, len(p.HTML))
		}
	}
}

func TestTagVector(t *testing.T) {
	_, v := scan([]byte(`<html><BODY><p>x</p><P>y</p><img src="a"></body></html>`), nil)
	count := func(tag string) float64 { return v.count(nameOf([]byte(tag))) }
	if count("p") != 2 || count("img") != 1 || count("html") != 1 || count("Body") != 1 {
		t.Fatalf("tag vector = %v", v)
	}
	if count("/p") != 0 {
		t.Error("closing tags counted")
	}
}

func TestCosine(t *testing.T) {
	a := tagVector{{nameOf([]byte("p")), 2}, {nameOf([]byte("img")), 1}}
	if c := cosine(a, a); c < 0.999 {
		t.Errorf("self-cosine = %f", c)
	}
	if c := cosine(a, tagVector{{nameOf([]byte("table")), 5}}); c != 0 {
		t.Errorf("orthogonal cosine = %f", c)
	}
	if c := cosine(tagVector{}, a); c != 0 {
		t.Errorf("empty cosine = %f", c)
	}
}

func TestQuickPhase1NoPanic(t *testing.T) {
	c := NewClassifier()
	f := func(b []byte) bool {
		_ = c.Phase1(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPhase2Monotonic(t *testing.T) {
	// Property: for a fixed circumvented size, shrinking the direct size
	// never flips the verdict from manipulated to clean.
	f := func(direct, circ uint16) bool {
		c := int(circ) + 1
		d := int(direct)
		if Phase2(d, c) {
			return Phase2(d/2, c) || d/2 == d
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestCorpusCountryCoverage(t *testing.T) {
	countries := map[string]bool{}
	for _, p := range Corpus() {
		countries[p.Country] = true
	}
	if len(countries) < 10 {
		t.Errorf("corpus spans %d countries, want a wide spread", len(countries))
	}
}

// phase1Reference is Phase1 as it was while it lowercased a string copy of
// the body twice and counted tags in a map; TestPhase1MatchesReference holds
// the one-pass form to it.
func phase1Reference(c *Classifier, body []byte) Verdict {
	tagMap := func(html string) map[string]float64 {
		v := make(map[string]float64)
		s := strings.ToLower(html)
		for i := 0; i < len(s); i++ {
			if s[i] != '<' {
				continue
			}
			j := i + 1
			if j < len(s) && s[j] == '/' {
				continue
			}
			start := j
			for j < len(s) && (s[j] >= 'a' && s[j] <= 'z' || s[j] >= '0' && s[j] <= '9' || s[j] == '!') {
				j++
			}
			if j > start {
				v[s[start:j]]++
			}
			i = j - 1
		}
		return v
	}
	// Counts are small integers, so the sums are exact in any order.
	cos := func(a, b map[string]float64) float64 {
		var dot, na, nb float64
		for k, av := range a {
			dot += av * b[k]
			na += av * av
		}
		for _, bv := range b {
			nb += bv * bv
		}
		if na == 0 || nb == 0 {
			return 0
		}
		return dot / (math.Sqrt(na) * math.Sqrt(nb))
	}
	v := Verdict{Size: len(body)}
	if len(body) == 0 || len(body) > Phase1MaxLen {
		return v
	}
	lower := strings.ToLower(string(body))
	if !strings.Contains(lower, "<html") && !strings.Contains(lower, "<!doctype") {
		return v
	}
	for _, p := range phrases {
		if strings.Contains(lower, p) {
			v.PhraseHits++
		}
	}
	tv := tagMap(lower)
	for _, tpl := range referenceTemplates() {
		if s := cos(tv, tagMap(tpl)); s > v.Similarity {
			v.Similarity = s
		}
	}
	structural := v.Similarity >= c.MinSimilarity && len(body) < 2048 && !strings.Contains(lower, "<a ")
	v.Suspected = v.PhraseHits >= c.MinPhrases || structural
	return v
}

func TestPhase1MatchesReference(t *testing.T) {
	pages := NormalPages()
	for _, p := range Corpus() {
		pages = append(pages, p.HTML, []byte(strings.ToUpper(string(p.HTML))))
	}
	var manyTags strings.Builder
	manyTags.WriteString("<html><body>")
	for i := 0; i < 40; i++ { // more distinct tags than the vector's stack room
		fmt.Fprintf(&manyTags, "<x%d>.</x%d><p>.</p>", i, i)
	}
	pages = append(pages,
		[]byte(manyTags.String()),
		[]byte("<HTML><HEAD><TITLE>Access Denied</TITLE></HEAD><BODY><H1>ACCESS DENIED</H1><P>.</P><HR><I>.</I></BODY></HTML>"),
		[]byte("<!DOCTYPE html><Html><Body><P>Ресурс НЕ ДОСТУПЕН ПО РЕШЕНИЮ суда</P></Body></Html>"),
		[]byte("<html><body><p>CONTENU BLOQUÉ</p><A HREF=\"/\">x</A></body></html>"),
		[]byte("<html>\xff\xfe<p>İstanbul \xc3</p><\xe2\x82></html>"),
		[]byte("<html><p>ſite blocked K</p></html>"),                                            // runes whose lower case is ASCII or shorter
		[]byte("<html><Kbd><kbd><KBD>.</kbd><İmg><img><İK></html>"),                             // tag names spelt with those runes
		[]byte("<html><Blockquotes><BLOCKQUOTES><blockquoteK><blockquotek><blockquote></html>"), // names past eight runes
		[]byte("<HTML><HEAD><TITLE>x</TITLE></HEAD><BODY><A HREF=\"/\">ACCESS DENIED</A></BODY></HTML>"),
		[]byte("<html"), []byte("<"), []byte("<html><"), []byte("<html></"),
	)
	// Pages the size of those a fleet classifies, the largest at the size
	// limit, as rendered, with their tags upper-cased, and with a phrase at
	// the first and at the last byte.
	for _, size := range []int{2 << 10, 5 << 10, Phase1MaxLen} {
		page := fleetPage(size)
		edges := slices.Concat([]byte("surf safely"), page[len("surf safely"):len(page)-len("access denied")], []byte("Access Denied"))
		pages = append(pages, page, []byte(strings.ToUpper(string(page))), edges)
	}
	c := NewClassifier()
	for i, p := range pages {
		if got, want := c.Phase1(p), phase1Reference(c, p); got != want {
			t.Errorf("page %d (%.40q…): verdict %+v, reference %+v", i, p, got, want)
		}
	}
	if err := quick.Check(func(b []byte) bool {
		p := append([]byte("<html>"), b...)
		return c.Phase1(p) == phase1Reference(c, p)
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// fleetPage renders a page of exactly size bytes the way the fleet's
// origins render theirs.
func fleetPage(size int) []byte {
	return web.RenderHTML(&web.Page{Title: "Fleet site 7", BaseSize: size - 3})
}

// TestPhase1DoesNotAllocate: phase 1 runs on every direct-path response, and
// reads the page where it lies — no lowercase copy, no tag map. Plain builds
// only: the race detector allocates on its own.
func TestPhase1DoesNotAllocate(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts are not exact under the race detector")
			}
		}
	}
	c := NewClassifier()
	page := fleetPage(7 << 10)
	if len(page) != 7<<10 {
		t.Fatalf("page is %d bytes, want %d", len(page), 7<<10)
	}
	if n := testing.AllocsPerRun(100, func() { _ = c.Phase1(page) }); n != 0 {
		t.Fatalf("Phase1 on a 7 KiB page allocates %v times, want 0", n)
	}
}
