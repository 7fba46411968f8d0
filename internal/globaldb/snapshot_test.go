package globaldb

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

// allocBytes is the number of heap bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// raceEnabled reports whether the test binary runs under the race detector,
// whose sync.Pool drops Puts at random: allocation counts are not exact.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				return true
			}
		}
	}
	return false
}

// TestFetchAllocBudget pins what each kind of /v1/blocked answer may
// allocate on a 1,000-entry AS: a 304 and a repeated full fetch pay nothing
// that grows with the list, a one-report write pays for its own slots and
// encodes nothing, and the delta fetch right after it pays for its body and
// the one fragment the write left unencoded. The cheapest of several rounds
// is compared, which drops the rounds where a collection emptied a pool;
// plain builds only.
func TestFetchAllocBudget(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation bytes are not exact under the race detector")
	}
	const asn, users, perUser, small = 100, 50, 20, 1024
	s := mustOpenStore(t, StoreOptions{})
	stage := []WireStage{{Type: 1, Detail: "nxdomain"}}
	for u := 0; u < users; u++ {
		batch := make([]Report, perUser)
		for i := range batch {
			batch[i] = Report{URL: fmt.Sprintf("site-%02d-%02d.example/", u, i), ASN: asn, Stages: stage, Tm: utc}
		}
		uuid := fmt.Sprintf("u%d", u)
		s.addUser(uuid)
		if _, ok := s.ingest(uuid, utc, batch); !ok {
			t.Fatal("ingest rejected")
		}
	}
	full := s.fetchResponse(asn, "")
	if n := len(s.blockedForAS(asn)); n != users*perUser {
		t.Fatalf("AS holds %d entries, want %d", n, users*perUser)
	}
	cheapest := func(f func() uint64) uint64 {
		best := ^uint64(0)
		for i := 0; i < 5; i++ {
			best = min(best, f())
		}
		return best
	}
	if got := cheapest(func() uint64 {
		return allocBytes(func() {
			if fr := s.fetchResponse(asn, full.tag); !fr.notModified {
				t.Fatalf("current tag answered %+v", fr)
			}
		})
	}); got > small {
		t.Errorf("a 304 allocates %d bytes", got)
	}
	if got := cheapest(func() uint64 {
		return allocBytes(func() {
			if fr := s.fetchResponse(asn, ""); !bytes.Equal(fr.body, full.body) {
				t.Fatal("repeated full fetch served another body")
			}
		})
	}); got > small {
		t.Errorf("a second full fetch of one snapshot allocates %d bytes of a %d-byte body", got, len(full.body))
	}

	// One report from a fresh client changes one entry per round.
	s.addUser("late")
	tag := full.tag
	write, deltaOver := ^uint64(0), ^uint64(0)
	for round := 1; round <= 5; round++ {
		write = min(write, allocBytes(func() {
			s.ingest("late", utc.Add(time.Duration(round)*time.Minute), []Report{{URL: "late.example/", ASN: asn, Stages: stage, Tm: utc}})
		}))
		var fr fetchResult
		d := allocBytes(func() { fr = s.fetchResponse(asn, tag) })
		if !fr.delta || fr.tag == tag || len(fr.body) > 2*small {
			t.Fatalf("round %d: one-entry change answered %+v", round, fr)
		}
		deltaOver = min(deltaOver, d-min(d, uint64(len(fr.body))))
		tag = fr.tag
		if again := allocBytes(func() { fr = s.fetchResponse(asn, full.tag) }); again > uint64(len(fr.body))+small {
			t.Errorf("round %d: a second delta over the same entry allocates %d bytes for a %d-byte body: its fragment was encoded again", round, again, len(fr.body))
		}
	}
	t.Logf("full body %d bytes; a one-report write allocates %d; the delta after it allocates its body + %d", len(full.body), write, deltaOver)
	if write > small {
		t.Errorf("a one-report write allocates %d bytes; the full body is %d", write, len(full.body))
	}
	if deltaOver > small {
		t.Errorf("a one-entry delta allocates %d bytes beyond its body", deltaOver)
	}
}
