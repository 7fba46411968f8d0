package globaldb

import (
	"strconv"
	"strings"
	"testing"
)

// reportKey is a report's dedup key as a string: the order byKey sorts
// reports in, and the key the reference models index reports by.
func reportKey(url string, asn int) string { return url + "|" + strconv.Itoa(asn) }

// FuzzReportKeyOrder holds compareKeys to strings.Compare over reportKey
// strings, and to its own mirror image, for any two (URL, ASN) pairs. The
// seeds are the cases tuple order gets wrong: one URL a prefix of the other,
// whose next byte sorts before or after '|' or is '|' itself; URLs holding
// '|'; multi-digit ASNs that sort as strings, not numbers; negative ASNs.
func FuzzReportKeyOrder(f *testing.F) {
	for _, c := range []struct {
		u1 string
		a1 int64
		u2 string
		a2 int64
	}{
		{"a.example/", 1, "a.example/b", 1},   // 'b' < '|': the longer URL first
		{"a.example/", 1, "a.example/~", 1},   // '~' > '|': the prefix first
		{"a.example/", 12, "a.example/|1", 2}, // the next byte is '|'
		{"a.example/", 1, "a.example/|1", 2},  // ... and the digits run out first
		{"a.example/", 2, "a.example/|1", 2},  // ... or differ
		{"a|1", 2, "a", 12},                   // "a|1|2" against "a|12"
		{"x.example/", 9, "x.example/", 10},   // "9" > "10"
		{"x.example/", -1, "x.example/", 1},   // '-' < '1'
		{"x.example/", -10, "x.example/", -9}, // "-10" < "-9"
		{"x.example/", 65100, "x.example/", 65100},
		{"", 0, "", -9223372036854775808},
		{"x", 1, "x1", 0}, // "x|1" against "x1|0"
		{"site1.example/", 100, "site10.example/", 100},
	} {
		f.Add(c.u1, c.a1, c.u2, c.a2)
		f.Add(c.u2, c.a2, c.u1, c.a1)
	}
	f.Fuzz(func(t *testing.T, u1 string, a1 int64, u2 string, a2 int64) {
		want := strings.Compare(reportKey(u1, int(a1)), reportKey(u2, int(a2)))
		if got := compareKeys(u1, int(a1), u2, int(a2)); got != want {
			t.Fatalf("compareKeys(%q, %d, %q, %d) = %d, strings.Compare of the keys = %d", u1, a1, u2, a2, got, want)
		}
		if got := compareKeys(u2, int(a2), u1, int(a1)); got != -want {
			t.Fatalf("compareKeys(%q, %d, %q, %d) = %d, want %d", u2, a2, u1, a1, got, -want)
		}
	})
}
