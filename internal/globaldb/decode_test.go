package globaldb

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"csaw/internal/localdb"
)

// checkReportDecode is the decoder's contract on one body: whatever the fast
// path accepts, json.Unmarshal accepts and decodes to the same value, nil
// and empty slices apart; and decodeReport answers exactly as json.Unmarshal
// does. It reports whether the fast path took the body.
func checkReportDecode(t *testing.T, body []byte) bool {
	t.Helper()
	var want ReportRequest
	wantErr := json.Unmarshal(body, &want)
	got, fast := scanReport(body)
	if fast && (wantErr != nil || !reflect.DeepEqual(got, want)) {
		t.Fatalf("fast path decoded %q to\n %#v\nencoding/json: %#v, %v", body, got, want, wantErr)
	}
	got, err := decodeReport(body)
	if (err == nil) != (wantErr == nil) || (err == nil && !reflect.DeepEqual(got, want)) {
		t.Fatalf("decodeReport(%q) = %#v, %v; encoding/json: %#v, %v", body, got, err, want, wantErr)
	}
	return fast
}

// reportSeeds are bodies around every rule of the fast path; the comment on
// each says whether it takes it.
var reportSeeds = []string{
	`{"uuid":"u","reports":[{"url":"a.example/","asn":17557,"stages":[{"type":1,"detail":"nxdomain"}],"tm":"2017-11-25T00:00:00Z"}]}`, // fast
	" {\n\t\"reports\" : [ ] , \"uuid\" : \"u\" }\r\n", // fast: any order, whitespace
	`{"uuid":"u","reports":null}`,                      // fast
	`{}`,                                               // fast
	`{"uuid":"u","reports":[{"url":"a/","asn":1,"stages":null},{"url":"b/","asn":2,"stages":[]},{"url":"c/","asn":-3}]}`, // fast
	`{"uuid":"\u0026\" \u2028","reports":[{"url":"a/?x=1\u0026y=\u003c2\u003e","asn":1}]}`,                               // fast: escapes unquoted by token
	"{\"uuid\":\"\xff\xfe\",\"reports\":[]}",                                                                             // fast: invalid UTF-8 unquoted by token
	`{"uuid":"ünïcödé/","reports":[{"url":"пример.рф/","asn":1}]}`,                                                       // fast: valid UTF-8 copied
	`{"UUID":"u","reports":[]}`,                                        // fallback: case-variant key
	`{"uuid":"u","reports":[{"URL":"a/","asn":1}]}`,                    // fallback: case-variant key
	`{"uuid":"u","uuid":"v"}`,                                          // fallback: duplicate key
	`{"uuid":"u","reports":[{"url":"a/","url":"b/"}]}`,                 // fallback: duplicate key
	`{"uuid":"u","extra":1}`,                                           // fallback: unknown key
	`{"\u0075uid":"u"}`,                                                // fallback: escaped key
	`{"uuid":"u","reports":[{"url":"a/","asn":1e2}]}`,                  // fallback: exponent
	`{"uuid":"u","reports":[{"url":"a/","asn":1.0}]}`,                  // fallback: fraction
	`{"uuid":"u","reports":[{"url":"a/","asn":12345678901234567890}]}`, // fallback: out of range
	`{"uuid":"u","reports":[{"url":"a/","asn":123456789012345678}]}`,   // fast: 18 digits
	`{"uuid":"u","reports":[{"url":"a/","asn":1234567890123456789}]}`,  // fallback: 19 digits
	`{"uuid":"u","reports":[{"url":"a/","asn":01}]}`,                   // fallback: leading zero
	`{"uuid":"u","reports":[{"url":"a/","asn":-0}]}`,                   // fast
	`{"uuid":"u","reports":[{"url":"a/","asn":"1"}]}`,                  // fallback: wrong type
	`{"uuid":1}`,    // fallback: wrong type
	`{"uuid":null}`, // fallback: null string
	`{"uuid":"u","reports":[{"url":"a/","tm":"not a time"}]}`,                // fallback: bad time
	`{"uuid":"u","reports":[{"url":"a/","tm":"2017-11-25T00:00:00+05:00"}]}`, // fast
	`{"uuid":"u","reports":[{"url":"a/","tm":"2017-11-25T00:00:00\u005a"}]}`, // fallback: escaped time
	`{"uuid":"u","reports":[{"url":"a/","tm":null}]}`,                        // fallback: null time
	`{"uuid":"u","reports":[null]}`,                                          // fallback: null report
	`{"uuid":"u","reports":[{"stages":[{"type":1,"detail":"x","type":2}]}]}`, // fallback: duplicate key
	`{"uuid":"u"} x`,             // fallback: trailing bytes
	`{"uuid":"u",}`,              // fallback: trailing comma
	`{"uuid":"u"`,                // fallback: torn
	`{"uuid":"a` + "\x01" + `"}`, // fallback: control character
	`{"uuid":"\x"}`,              // fallback: bad escape
	`null`,                       // fallback: not an object
	``,                           // fallback: empty
}

func TestReportDecodeSeeds(t *testing.T) {
	fast := 0
	for _, body := range reportSeeds {
		if checkReportDecode(t, []byte(body)) {
			fast++
		}
	}
	if fast != 11 {
		t.Errorf("the fast path took %d of the seed bodies, want 11", fast)
	}
}

func FuzzReportDecode(f *testing.F) {
	for _, body := range reportSeeds {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkReportDecode(t, body) })
}

// randText is a string drawn from runes JSON encoders treat specially: HTML
// characters, quotes, backslashes, control characters, line separators,
// non-ASCII letters and a byte that is not UTF-8.
func randText(rng *rand.Rand) string {
	const pieces = "a/.&<>\"\\\n\t\x01\u2028\u2029éп日\xff"
	runes := strings.Split(pieces, "")
	var b strings.Builder
	for n := rng.Intn(12); n > 0; n-- {
		b.WriteString(runes[rng.Intn(len(runes))])
	}
	return b.String()
}

// TestReportDecodeTakesMarshalledBodies holds the fast path to every body
// json.Marshal renders from a ReportRequest — which is how globaldb.Client
// posts — including strings that marshal with escapes.
func TestReportDecodeTakesMarshalledBodies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	zones := []*time.Location{time.UTC, time.FixedZone("", 5*3600+1800), time.FixedZone("", -8*3600)}
	for i := 0; i < 2000; i++ {
		req := ReportRequest{UUID: randText(rng)}
		if rng.Intn(4) > 0 {
			req.Reports = []Report{}
		}
		for n := rng.Intn(6); req.Reports != nil && n > 0; n-- {
			r := Report{URL: randText(rng), ASN: rng.Intn(1 << 20), Tm: time.Unix(rng.Int63n(1<<33), rng.Int63n(1e9)).In(zones[rng.Intn(len(zones))])}
			if rng.Intn(8) == 0 {
				r.ASN, r.Tm = -r.ASN, time.Time{}
			}
			switch rng.Intn(3) {
			case 0: // nil stages
			case 1:
				r.Stages = []WireStage{}
			default:
				r.Stages = ToWire([]localdb.Stage{{Type: localdb.BlockType(rng.Intn(6)), Detail: randText(rng)}})
			}
			req.Reports = append(req.Reports, r)
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if !checkReportDecode(t, body) {
			t.Fatalf("the fast path refused a marshalled request: %s", body)
		}
	}
}

// TestReportDecodeAllocs pins what a post's decode allocates: the report
// list, and one copy per string and per stage list — nothing per value
// decoded beyond that.
func TestReportDecodeAllocs(t *testing.T) {
	req := ReportRequest{UUID: "0123456789abcdef"}
	for i := 0; i < 5; i++ {
		req.Reports = append(req.Reports, Report{URL: "site.example/p", ASN: 65100, Stages: []WireStage{{Type: 1, Detail: "nxdomain"}}, Tm: utc})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 + 3*len(req.Reports)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, ok := scanReport(body); !ok {
			t.Fatal("fast path refused")
		}
	}); allocs > float64(want) {
		t.Fatalf("decoding a %d-report post allocates %v times, want ≤ %d", len(req.Reports), allocs, want)
	}
}

func TestAckReportMatchesEncodingJSON(t *testing.T) {
	for _, n := range []int{0, 5, 1234567} {
		want, err := json.Marshal(ReportResponse{Accepted: n})
		if err != nil {
			t.Fatal(err)
		}
		resp := ackReport(n)
		if string(resp.Body) != string(want) || resp.Header.Get("Content-Type") != "application/json" || resp.StatusCode != 200 {
			t.Fatalf("ack for %d: %d %q %q, want 200 %q application/json", n, resp.StatusCode, resp.Body, resp.Header.Get("Content-Type"), want)
		}
	}
}
