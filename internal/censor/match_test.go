package censor

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// httpActionOracle is HTTPActionFor as it was before it matched a request
// where it lies: the host lowered by matchName, and host+target
// concatenated and lowered for the keyword rules.
func httpActionOracle(p *Policy, host, target string) HTTPAction {
	name := matchName(host)
	for _, r := range p.HTTP {
		if matchLenOracle(r.Host, name) >= 0 && (r.PathPrefix == "" || strings.HasPrefix(target, r.PathPrefix)) {
			return r.Action
		}
	}
	if len(p.Keywords) > 0 {
		url := strings.ToLower(host + target)
		for _, r := range p.Keywords {
			if strings.Contains(url, strings.ToLower(r.Keyword)) {
				return r.Action
			}
		}
	}
	return HTTPClean
}

// matchLenOracle is matchLen as it was, for names already lowered.
func matchLenOracle(pattern, name string) int {
	pattern = strings.TrimSuffix(pattern, ".")
	sub := len(name) - len(pattern)
	for i := len(pattern) - 1; i >= 0; i-- {
		c := pattern[i]
		if c >= utf8.RuneSelf {
			pattern = strings.ToLower(pattern)
			if !strings.HasSuffix(name, pattern) {
				return -1
			}
			sub = len(name) - len(pattern)
			break
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if sub+i < 0 || name[sub+i] != c {
			return -1
		}
	}
	if sub != 0 && name[sub-1] != '.' {
		return -1
	}
	return len(pattern)
}

// FuzzHTTPActionFor holds the in-place match, over strings and over bytes,
// to the lowering oracle: one URL rule and two keyword rules, any request.
// Keywords that straddle host and target, letters in any case, ports,
// trailing dots and non-ASCII bytes (the Kelvin sign lowers to an ASCII
// "k"; a rune split across host and target is whole only in the
// concatenation) are among the seeds.
func FuzzHTTPActionFor(f *testing.F) {
	for _, s := range [][6]string{
		{"www.YouTube.com", "/watch?v=1", "youtube.com", "/watch", "video", "proxy"},
		{"example.com", "/x", "other.org", "", "COM/X", "none"},
		{"Example.COM.", "/", "example.com", "/", "zz", "e.c"},
		{"example.com:8080", "/Path", "EXAMPLE.com", "/P", "8080/p", ""},
		{"Key.org", "/", "key.org", "", "KEY", "Key"},
		{"key.org", "/", "Key.org", "", "K", "x"},
		{"caf\xc3", "\xa9/menu", "café", "", "é/", "\xc3"},
		{"bücher.de", "/ÜBER", "BÜCHER.de", "/", "über", "Ü"},
		{"a.b", "", "", "", "", "a"},
		{"", "/only-target", "x", "/only", "TARGET", "-"},
	} {
		f.Add(s[0], s[1], s[2], s[3], s[4], s[5])
	}
	f.Fuzz(func(t *testing.T, host, target, ruleHost, prefix, kw1, kw2 string) {
		p := &Policy{
			HTTP:     []HTTPRule{{Host: ruleHost, PathPrefix: prefix, Action: HTTPBlockPage}},
			Keywords: []KeywordRule{{Keyword: kw1, Action: HTTPReset}, {Keyword: kw2, Action: HTTPRedirect}},
		}
		want := httpActionOracle(p, host, target)
		if got := p.HTTPActionFor(host, target); got != want {
			t.Fatalf("HTTPActionFor(%q, %q) = %v, oracle %v", host, target, got, want)
		}
		if got := httpActionFor(p, []byte(host), []byte(target)); got != want {
			t.Fatalf("httpActionFor over bytes (%q, %q) = %v, oracle %v", host, target, got, want)
		}
	})
}

// TestHTTPActionForAllocs: matching an ASCII request against URL and two
// keyword rules allocates nothing, whatever its letter case, as strings or
// as the bytes of a head.
func TestHTTPActionForAllocs(t *testing.T) {
	p := &Policy{
		HTTP:     []HTTPRule{{Host: "YouTube.com", PathPrefix: "/watch", Action: HTTPBlockPage}},
		Keywords: []KeywordRule{{Keyword: "Proxy", Action: HTTPReset}, {Keyword: "video", Action: HTTPRedirect}},
	}
	host, target := "WWW.Example.COM", "/Some/Page?id=7"
	hb, tb := []byte(host), []byte(target)
	var act HTTPAction
	if got := testing.AllocsPerRun(100, func() { act = p.HTTPActionFor(host, target) }); got != 0 || act != HTTPClean {
		t.Errorf("HTTPActionFor = %v: %v allocations, want clean and 0", act, got)
	}
	if got := testing.AllocsPerRun(100, func() { act = httpActionFor(p, hb, tb) }); got != 0 || act != HTTPClean {
		t.Errorf("httpActionFor over bytes = %v: %v allocations, want clean and 0", act, got)
	}
	if got := testing.AllocsPerRun(100, func() { act = p.HTTPActionFor("www.example.com", "/VIDEO/1") }); got != 0 || act != HTTPRedirect {
		t.Errorf("a keyword match = %v: %v allocations, want %v and 0", act, got, HTTPRedirect)
	}
}
