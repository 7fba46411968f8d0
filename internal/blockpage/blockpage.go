// Package blockpage implements C-Saw's two-phase detection of content
// manipulation (§4.3.1):
//
//   - Phase 1 examines only the direct-path response, using an HTML-tag
//     heuristic in the spirit of Jones et al. [42]: small page, tag
//     structure close to known block-page templates, and characteristic
//     phrasing. If the page is not suspected, it is served immediately —
//     no waiting on the circumvention path.
//   - Phase 2, for suspected pages, compares the direct-path response size
//     with the circumvention-path response size; block pages are far
//     smaller than the real content.
//
// The paper reports phase 1 classifies ~80% of a 47-ISP block-page corpus
// with no false positives; corpus.go provides a synthetic stand-in corpus
// with the same structure (see DESIGN.md's substitution table) and the
// experiment in internal/experiments verifies the same operating point.
package blockpage

import (
	"math"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// Phase1MaxLen is the largest body phase 1 will ever call a block page:
// block pages are small; real pages above this size are served immediately.
const Phase1MaxLen = 8 << 10

// phrases are the wordings that recur across real-world block pages.
var phrases = []string{
	"this website is not accessible",
	"access denied",
	"access to this site has been blocked",
	"blocked under applicable law",
	"this url has been blocked",
	"site blocked",
	"forbidden by order",
	"prohibited content",
	"surf safely",
	"the page you requested has been blocked",
	"не доступен по решению", // non-English censors exist too
	"contenu bloqué",
}

// Classifier is the phase-1 heuristic. It is deterministic and cheap: one
// pass to build a tag vector plus substring checks.
type Classifier struct {
	templates []tagVector
	// MinSimilarity is the cosine-similarity threshold against the known
	// templates (default 0.95).
	MinSimilarity float64
	// MinPhrases is how many phrase hits alone convict a page (default 1).
	MinPhrases int
}

// NewClassifier returns a classifier primed with the canonical block-page
// tag structures.
func NewClassifier() *Classifier {
	return &Classifier{templates: templateVectors(), MinSimilarity: 0.95, MinPhrases: 1}
}

// templateVectors is the reference templates' tag vectors, built once per
// process and shared by every classifier: Phase1 only reads them.
var templateVectors = sync.OnceValue(func() []tagVector {
	var vs []tagVector
	for _, tpl := range referenceTemplates() {
		vs = append(vs, tagVectorOf(strings.ToLower(tpl), nil))
	}
	return vs
})

// Verdict is a phase-1 result with its evidence, for logging and tests.
type Verdict struct {
	Suspected  bool
	Similarity float64 // best cosine similarity to a known template
	PhraseHits int
	Size       int
}

// Phase1 inspects a direct-path HTML body and reports whether it is
// suspected to be a block page.
func (c *Classifier) Phase1(body []byte) Verdict {
	v := Verdict{Size: len(body)}
	if len(body) == 0 || len(body) > Phase1MaxLen {
		return v
	}
	lower := lowered(body)
	if !strings.Contains(lower, "<html") && !strings.Contains(lower, "<!doctype") {
		return v
	}
	for _, p := range phrases {
		if strings.Contains(lower, p) {
			v.PhraseHits++
		}
	}
	var room [16]tagCount
	tv := tagVectorOf(lower, room[:0])
	for _, tpl := range c.templates {
		if s := cosine(tv, tpl); s > v.Similarity {
			v.Similarity = s
		}
	}
	// A structural match only convicts small pages without outbound links:
	// filter notices are terse dead ends, while legitimate small pages
	// (interstitials, 404s, homepages) link onward.
	structural := v.Similarity >= c.MinSimilarity &&
		len(body) < 2048 &&
		!strings.Contains(lower, "<a ")
	v.Suspected = v.PhraseHits >= c.MinPhrases || structural
	return v
}

// lowered is strings.ToLower(string(body)) in one allocation: the one
// lowercase copy every check of phase 1 scans.
func lowered(body []byte) string {
	var sb strings.Builder
	sb.Grow(len(body))
	same := 0 // body[same:i] lowers to itself
	for i := 0; i < len(body); {
		c := body[i]
		switch {
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRune(body[i:])
			sb.Write(body[same:i])
			sb.WriteRune(unicode.ToLower(r))
			i += n
			same = i
		case 'A' <= c && c <= 'Z':
			sb.Write(body[same:i])
			sb.WriteByte(c + 'a' - 'A')
			i++
			same = i
		default:
			i++
		}
	}
	sb.Write(body[same:])
	return sb.String()
}

// Phase2SizeRatio is the direct/circumvented size ratio below which phase 2
// declares manipulation (block pages are much smaller than real pages [42]).
const Phase2SizeRatio = 0.5

// Phase2 compares the direct response size with the circumvention-path
// response size and reports whether the direct response was manipulated.
func Phase2(directSize, circumventedSize int) bool {
	if circumventedSize <= 0 {
		return false // nothing to compare against
	}
	return float64(directSize)/float64(circumventedSize) < Phase2SizeRatio
}

// tagVector is a frequency vector over HTML tag names: one entry per
// distinct tag, a dozen at most on the pages phase 1 looks at.
type tagVector []tagCount

type tagCount struct {
	tag string
	n   float64
}

func (v tagVector) count(tag string) float64 {
	for _, e := range v {
		if e.tag == tag {
			return e.n
		}
	}
	return 0
}

// tagVectorOf scans HTML, already lowercase, and counts opening tags into v,
// the caller's empty room for the vector.
func tagVectorOf(s string, v tagVector) tagVector {
scan:
	for i := 0; i < len(s); i++ {
		if s[i] != '<' {
			continue
		}
		j := i + 1
		if j < len(s) && s[j] == '/' {
			continue // closing tags mirror opening ones
		}
		start := j
		for j < len(s) && (s[j] >= 'a' && s[j] <= 'z' || s[j] >= '0' && s[j] <= '9' || s[j] == '!') {
			j++
		}
		i = j - 1
		if j == start {
			continue
		}
		for k := range v {
			if v[k].tag == s[start:j] {
				v[k].n++
				continue scan
			}
		}
		v = append(v, tagCount{s[start:j], 1})
	}
	return v
}

// cosine computes cosine similarity between tag vectors.
func cosine(a, b tagVector) float64 {
	var dot, na, nb float64
	for _, e := range a {
		dot += e.n * b.count(e.tag)
		na += e.n * e.n
	}
	for _, e := range b {
		nb += e.n * e.n
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// referenceTemplates are the canonical structures the classifier knows: the
// handful of layouts that national filters and filtering appliances reuse.
func referenceTemplates() []string {
	return []string{
		// Minimal notice.
		`<html><head><title>Access Denied</title></head><body><h1>Access Denied</h1><p>.</p><hr><i>.</i></body></html>`,
		// Meta-refresh to an ISP portal.
		`<html><head><meta http-equiv="refresh" content="0;url=."><title>Blocked</title></head><body><p>.</p></body></html>`,
		// Appliance-style with table layout.
		`<html><head><title>Web Filter</title></head><body><table><tr><td><img src="."><h2>.</h2><p>.</p><p>.</p></td></tr></table></body></html>`,
		// Legal-notice style with lists.
		`<html><head><title>Notice</title></head><body><h1>.</h1><ul><li>.</li><li>.</li></ul><p>.</p><address>.</address></body></html>`,
		// Iframe wrapper (Table 1: "Block page via iframe").
		`<html><head><title></title></head><body><iframe src="." width="100%" height="100%" frameborder="0"></iframe></body></html>`,
	}
}
