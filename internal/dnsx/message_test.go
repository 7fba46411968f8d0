package dnsx

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestQueryRoundTrip(t *testing.T) {
	q := NewQuery(0xBEEF, "www.YouTube.com.")
	b, err := q.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 0xBEEF || got.Response || !got.RecursionDesired {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Questions) != 1 || got.Questions[0].Name != "www.youtube.com" || got.Questions[0].Type != TypeA {
		t.Fatalf("question mismatch: %+v", got.Questions)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	q := NewQuery(7, "blocked.example.pk")
	resp := q.Reply()
	resp.Authoritative = true
	resp.AnswerA("blocked.example.pk", "203.0.113.7", 300)
	resp.AnswerA("blocked.example.pk", "203.0.113.8", 300)
	resp.Authority = append(resp.Authority, RR{Name: "example.pk", Type: TypeNS, Class: ClassIN, TTL: 600, Data: "ns1.example.pk"})
	resp.Additional = append(resp.Additional, RR{Name: "meta.example.pk", Type: TypeTXT, Class: ClassIN, TTL: 60, Data: "hello world"})

	b, err := resp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Response || !got.Authoritative || got.RCode != RCodeNoError {
		t.Fatalf("flags mismatch: %+v", got)
	}
	if ips := got.AnswerIPs(); !reflect.DeepEqual(ips, []string{"203.0.113.7", "203.0.113.8"}) {
		t.Fatalf("answers = %v", ips)
	}
	if got.Authority[0].Data != "ns1.example.pk" {
		t.Fatalf("NS = %q", got.Authority[0].Data)
	}
	if got.Additional[0].Data != "hello world" {
		t.Fatalf("TXT = %q", got.Additional[0].Data)
	}
}

func TestRCodeRoundTrip(t *testing.T) {
	for _, rc := range []int{RCodeNoError, RCodeServFail, RCodeNXDomain, RCodeRefused} {
		resp := NewQuery(1, "x.example").Reply()
		resp.RCode = rc
		b, err := resp.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		got, err := Unmarshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if got.RCode != rc {
			t.Errorf("rcode %d round-tripped to %d", rc, got.RCode)
		}
	}
}

func TestCompressionPointerDecode(t *testing.T) {
	// Hand-craft a response with a compression pointer: the answer name
	// points back at the question name at offset 12.
	q := NewQuery(0x1234, "a.example.com")
	head, err := q.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	head[7] = 1 // ANCOUNT = 1
	head[2] |= 0x80
	msg := append([]byte{}, head...)
	msg = append(msg, 0xC0, 12)             // name: pointer to offset 12
	msg = append(msg, 0, 1, 0, 1)           // TYPE A, CLASS IN
	msg = append(msg, 0, 0, 1, 44)          // TTL 300
	msg = append(msg, 0, 4, 10, 20, 30, 40) // RDLENGTH 4, 10.20.30.40

	got, err := Unmarshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Answers) != 1 {
		t.Fatalf("answers = %d", len(got.Answers))
	}
	if got.Answers[0].Name != "a.example.com" || got.Answers[0].Data != "10.20.30.40" {
		t.Fatalf("answer = %+v", got.Answers[0])
	}
}

func TestPointerLoopRejected(t *testing.T) {
	q := NewQuery(9, "x.example")
	b, _ := q.Marshal()
	b[5] = 2 // QDCOUNT=2; second question will be a forward pointer
	b = append(b, 0xC0, byte(len(b)), 0, 1, 0, 1)
	if _, err := Unmarshal(b); err == nil {
		t.Fatal("forward/self pointer accepted")
	}
}

func TestTruncatedRejected(t *testing.T) {
	q := NewQuery(3, "abc.example.com")
	b, _ := q.Marshal()
	for _, cut := range []int{0, 5, 11, len(b) - 1} {
		if _, err := Unmarshal(b[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestBadNames(t *testing.T) {
	long := strings.Repeat("a", 64)
	for _, name := range []string{"bad..example", long + ".example"} {
		q := NewQuery(1, name)
		if _, err := q.Marshal(); err == nil {
			t.Errorf("name %q marshalled", name)
		}
	}
}

func TestBadIPv4(t *testing.T) {
	for _, ip := range []string{"1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "1..2.3"} {
		m := NewQuery(1, "x.example").Reply().AnswerA("x.example", ip, 1)
		if _, err := m.Marshal(); err == nil {
			t.Errorf("IP %q marshalled", ip)
		}
	}
}

func TestCanonicalName(t *testing.T) {
	if CanonicalName("WWW.Example.COM.") != "www.example.com" {
		t.Fatal("canonicalization wrong")
	}
}

func TestRCodeNames(t *testing.T) {
	cases := map[int]string{0: "NOERROR", 2: "SERVFAIL", 3: "NXDOMAIN", 5: "REFUSED", 9: "RCODE9"}
	for rc, want := range cases {
		if got := RCodeName(rc); got != want {
			t.Errorf("RCodeName(%d) = %q, want %q", rc, got, want)
		}
	}
}

// TestQuickRoundTrip property-tests the codec: any well-formed message built
// from generated labels and IPs survives Marshal → Unmarshal.
func TestQuickRoundTrip(t *testing.T) {
	f := func(id uint16, labels [3]uint8, ip [4]byte, ttl uint32, rcode uint8) bool {
		name := ""
		for i, l := range labels {
			lab := strings.Repeat(string(rune('a'+i)), int(l%63)+1)
			if i > 0 {
				name += "."
			}
			name += lab
		}
		m := NewQuery(id, name).Reply()
		m.RCode = int(rcode % 6)
		if m.RCode == RCodeNoError {
			m.AnswerA(name, formatIPv4(ip[:]), ttl)
		}
		b, err := m.Marshal()
		if err != nil {
			return false
		}
		got, err := Unmarshal(b)
		if err != nil {
			return false
		}
		if got.ID != id || got.RCode != m.RCode || got.Questions[0].Name != CanonicalName(name) {
			return false
		}
		if m.RCode == RCodeNoError && (len(got.Answers) != 1 || got.Answers[0].Data != formatIPv4(ip[:]) || got.Answers[0].TTL != ttl) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickUnmarshalNoPanic fuzzes the decoder with arbitrary bytes: it must
// return errors, never panic.
func TestQuickUnmarshalNoPanic(t *testing.T) {
	f := func(b []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Unmarshal panicked on %x: %v", b, r)
			}
		}()
		_, _ = Unmarshal(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestFormatIPv4 covers each octet width at each position against the
// fmt rendering formatIPv4 replaced, and pins it to one allocation.
func TestFormatIPv4(t *testing.T) {
	octets := []byte{0, 9, 10, 99, 100, 255}
	for _, a := range octets {
		for _, b := range octets {
			for _, c := range octets {
				for _, d := range octets {
					ip := []byte{a, b, c, d}
					want := fmt.Sprintf("%d.%d.%d.%d", a, b, c, d)
					if got := formatIPv4(ip); got != want {
						t.Fatalf("formatIPv4(%v) = %q, want %q", ip, got, want)
					}
				}
			}
		}
	}
	ip := []byte{255, 255, 255, 255}
	if n := testing.AllocsPerRun(100, func() { _ = formatIPv4(ip) }); n > 1 {
		t.Fatalf("formatIPv4 allocates %v times, want 1 (the string)", n)
	}
}
