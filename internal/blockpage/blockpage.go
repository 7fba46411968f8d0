// Package blockpage implements C-Saw's two-phase detection of content
// manipulation (§4.3.1):
//
//   - Phase 1 examines only the direct-path response, using an HTML-tag
//     heuristic in the spirit of Jones et al. [42]: small page, tag
//     structure close to known block-page templates, and characteristic
//     phrasing. If the page is not suspected, it is served immediately —
//     no waiting on the circumvention path. It runs inline on every
//     direct-path response, so it reads the page once, where it lies: one
//     automaton finds every phrase and marker, and the tags are counted in
//     the same pass (scan).
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
	"math/bits"
	"sync"
	"unicode"
	"unicode/utf8"
)

// Phase1MaxLen is the largest body phase 1 will ever call a block page:
// block pages are small; real pages above this size are served immediately.
const Phase1MaxLen = 8 << 10

// phrases are the wordings that recur across real-world block pages.
var phrases = [...]string{
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
// allocation-free pass over the page (scan) finds the phrases and the HTML
// markers with one automaton and counts the opening tags as it goes.
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

// Shared is the process's one default classifier, for the many clients
// that judge pages alike. Phase1 only reads a classifier; Shared's holders
// must not set its fields.
var Shared = sync.OnceValue(NewClassifier)

// templateVectors is the reference templates' tag vectors, built once per
// process and shared by every classifier: Phase1 only reads them.
var templateVectors = sync.OnceValue(func() []tagVector {
	var vs []tagVector
	for _, tpl := range referenceTemplates() {
		_, v := scan([]byte(tpl), nil)
		vs = append(vs, v)
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
// suspected to be a block page. The page is read once and not copied: every
// check is made on the page as strings.ToLower would have lowered it.
func (c *Classifier) Phase1(body []byte) Verdict {
	v := Verdict{Size: len(body)}
	if len(body) == 0 || len(body) > Phase1MaxLen {
		return v
	}
	var room [16]tagCount
	seen, tv := scan(body, room[:0])
	if seen&(1<<markHTML|1<<markDoctype) == 0 {
		return v
	}
	v.PhraseHits = bits.OnesCount32(seen & (1<<len(phrases) - 1))
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
		seen&(1<<markLink) == 0
	v.Suspected = v.PhraseHits >= c.MinPhrases || structural
	return v
}

// The markers phase 1 looks for besides the phrases, numbered after them:
// pattern i of the automaton is phrases[i], then these.
const (
	markHTML    = len(phrases) + iota // "<html"
	markDoctype                       // "<!doctype"
	markLink                          // "<a "
)

// automaton is an Aho-Corasick matcher over the phrases and the markers,
// compiled to a DFA: one table load per input byte, whatever the number of
// patterns. Bytes that occur in no pattern share column 0. An entry of
// next holds the target state as its row offset (state*cols) in the low
// 16 bits and the patterns that end there, as bits, in the high 16.
type automaton struct {
	class [256]uint8
	cols  int
	next  []uint32
}

// matcher is the automaton, built once per process.
var matcher = sync.OnceValue(func() *automaton {
	pats := append(phrases[:], "<html", "<!doctype", "<a ")
	a := &automaton{cols: 1}
	for _, p := range pats {
		for i := 0; i < len(p); i++ {
			if a.class[p[i]] == 0 {
				a.class[p[i]] = uint8(a.cols)
				a.cols++
			}
		}
	}
	// The trie: trie[s][col] is the child, 0 for none (the root is no
	// one's child); out[s] the patterns ending at s.
	trie, out := [][]uint32{make([]uint32, a.cols)}, []uint32{0}
	for i, p := range pats {
		s := 0
		for j := 0; j < len(p); j++ {
			col := a.class[p[j]]
			if trie[s][col] == 0 {
				trie[s][col] = uint32(len(trie))
				trie, out = append(trie, make([]uint32, a.cols)), append(out, 0)
			}
			s = int(trie[s][col])
		}
		out[s] |= 1 << i
	}
	if len(trie)*a.cols > 1<<16 || len(pats) > 16 {
		panic("blockpage: the automaton outgrew its table entries")
	}
	// Breadth first, so a failure state (shallower) is done before the
	// states that fail to it: a missing edge becomes the failure state's
	// transition, and a state also ends what its failure state ends.
	fail := make([]uint32, len(trie))
	for queue := []uint32{0}; len(queue) > 0; queue = queue[1:] {
		s := queue[0]
		for col, t := range trie[s] {
			switch {
			case t != 0:
				if s != 0 {
					fail[t] = trie[fail[s]][col]
				}
				out[t] |= out[fail[t]]
				queue = append(queue, t)
			case s != 0:
				trie[s][col] = trie[fail[s]][col]
			}
		}
	}
	a.next = make([]uint32, 0, len(trie)*a.cols)
	for _, row := range trie {
		for _, t := range row {
			a.next = append(a.next, out[t]<<16|t*uint32(a.cols))
		}
	}
	return a
})

// scan reads body once as strings.ToLower would lower it — rune by rune,
// an invalid byte read as U+FFFD — without making the lowered copy. It runs
// the lowered bytes through the automaton, returning the patterns seen as
// bits, and counts the opening tags into v, the caller's empty room for the
// vector: a tag is '<' and a run of [a-z0-9!] not led by '/'.
func scan(body []byte, v tagVector) (uint32, tagVector) {
	a := matcher()
	var seen uint32
	state := 0
	const (
		text = iota // outside a tag name
		open        // just after '<'
		name        // in a tag name, which began at nameAt
	)
	tag, nameAt := text, 0
	for i := 0; i < len(body); {
		at := i
		c := body[i]
		if c < utf8.RuneSelf {
			i++
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			e := a.next[state+int(a.class[c])]
			state, seen = int(e&0xffff), seen|e>>16
		} else {
			r, n := utf8.DecodeRune(body[i:])
			i += n
			var enc [utf8.UTFMax]byte
			lo := enc[:utf8.EncodeRune(enc[:], unicode.ToLower(r))]
			for _, b := range lo {
				e := a.next[state+int(a.class[b])]
				state, seen = int(e&0xffff), seen|e>>16
			}
			// A rune that lowers to ASCII (İ, K) acts as that byte; any
			// other rune is neither '<' nor part of a tag name.
			c = lo[0]
		}
		switch {
		case tag == text:
			if c == '<' {
				tag = open
			}
		case isTagByte(c):
			if tag == open {
				tag, nameAt = name, at
			}
		default:
			if tag == name {
				v = v.add(body[nameAt:at])
			}
			tag = text
			if c == '<' {
				tag = open
			}
		}
	}
	if tag == name {
		v = v.add(body[nameAt:])
	}
	return seen, v
}

func isTagByte(c byte) bool { return 'a' <= c && c <= 'z' || '0' <= c && c <= '9' || c == '!' }

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
	tag tagName
	n   float64
}

// tagName is a tag name as its first occurrence in a page spells it, case
// and all, and key, the name as it lowers packed into a word. Every rune of
// a tag name lowers to one ASCII byte (scan), so the names of up to eight
// runes — all the names that matter — compare by key alone.
type tagName struct {
	spelt []byte
	key   uint64 // 0 for a name of more than eight runes
}

func nameOf(spelt []byte) tagName {
	var key uint64
	for i, n := 0, 0; i < len(spelt); n++ {
		if n == 8 {
			return tagName{spelt, 0}
		}
		c, w := tagByte(spelt[i:])
		key, i = key<<8|uint64(c), i+w
	}
	return tagName{spelt, key}
}

// is reports whether a and b lower to the same name.
func (a tagName) is(b tagName) bool {
	if a.key != 0 || b.key != 0 {
		return a.key == b.key
	}
	i, j := 0, 0
	for i < len(a.spelt) && j < len(b.spelt) {
		ca, wa := tagByte(a.spelt[i:])
		cb, wb := tagByte(b.spelt[j:])
		if ca != cb {
			return false
		}
		i, j = i+wa, j+wb
	}
	return i == len(a.spelt) && j == len(b.spelt)
}

// tagByte lowers the first rune of a tag name: the byte it lowers to, and
// its width.
func tagByte(b []byte) (byte, int) {
	if c := b[0]; c < utf8.RuneSelf {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		return c, 1
	}
	r, n := utf8.DecodeRune(b)
	return byte(unicode.ToLower(r)), n
}

func (v tagVector) count(tag tagName) float64 {
	for _, e := range v {
		if e.tag.is(tag) {
			return e.n
		}
	}
	return 0
}

// add counts one more of the tag spelt so.
func (v tagVector) add(spelt []byte) tagVector {
	tag := nameOf(spelt)
	for k := range v {
		if v[k].tag.is(tag) {
			v[k].n++
			return v
		}
	}
	return append(v, tagCount{tag, 1})
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
