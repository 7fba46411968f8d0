package globaldb

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
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

// TestFetchAllocBudget pins what each kind of /v1/blocked answer may
// allocate on a 1,000-entry AS: a 304 and a repeated full fetch pay nothing
// that grows with the list, a delta pays for its own body, and the rebuild
// after a one-entry change pays for that entry, not for the list. The
// cheapest of several rounds is compared, which drops the rounds where a
// collection emptied encoding/json's pool and the first rounds, which size
// the reused buffers; plain builds only, as the race detector's sync.Pool
// drops Puts at random.
func TestFetchAllocBudget(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation bytes are not exact under the race detector")
			}
		}
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
	idx := s.asIndexFor(asn, false)

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
	rebuild, deltaOver := ^uint64(0), ^uint64(0)
	for round := 1; round <= 5; round++ {
		s.ingest("late", utc.Add(time.Duration(round)*time.Minute), []Report{{URL: "late.example/", ASN: asn, Stages: stage, Tm: utc}})
		rebuild = min(rebuild, allocBytes(func() {
			idx.snapMu.Lock()
			s.rebuildLocked(idx, idx.version.Load(), s.revEpoch.Load())
			idx.snapMu.Unlock()
		}))
		var fr fetchResult
		d := allocBytes(func() { fr = s.fetchResponse(asn, tag) })
		if !fr.delta || fr.tag == tag || len(fr.body) > 2*small {
			t.Fatalf("round %d: one-entry change answered %+v", round, fr)
		}
		deltaOver = min(deltaOver, d-min(d, uint64(len(fr.body))))
		tag = fr.tag
	}
	t.Logf("full body %d bytes; rebuild after a one-entry change allocates %d; a delta allocates its body + %d", len(full.body), rebuild, deltaOver)
	if rebuild >= uint64(len(full.body))/4 {
		t.Errorf("the rebuild after a one-entry change allocates %d bytes; the full body is %d", rebuild, len(full.body))
	}
	if deltaOver > 2*small {
		t.Errorf("a one-entry delta allocates %d bytes beyond its body", deltaOver)
	}
}

// TestSnapshotBuffersNeverEscape: the store rebuilds a snapshot into the
// buffers of the one before, so neither BlockedForAS's result nor anything
// else handed out may alias them. Readers of every kind run against a
// writer on one AS (the race detector watches the buffers), every list
// BlockedForAS ever returned is then overwritten, and the store must still
// serve the reference model's bytes.
func TestSnapshotBuffersNeverEscape(t *testing.T) {
	const asn, rounds = 100, 200
	s := mustOpenStore(t, StoreOptions{})
	model := newLegacyStore()
	for _, m := range []dbModel{s, model} {
		m.addUser("w")
		m.addUser("x")
		m.ingest("x", utc, []Report{{URL: "x0.example/", ASN: asn, Tm: utc}, {URL: "x1.example/", ASN: asn, Tm: utc}})
	}
	write := func(m dbModel, r int) {
		m.ingest("w", utc.Add(time.Duration(r)*time.Second), []Report{{URL: fmt.Sprintf("w%d.example/", r%7), ASN: asn, Tm: utc}})
	}

	var (
		writer, readers sync.WaitGroup
		mu              sync.Mutex
		handedOut       [][]Entry
	)
	stop := make(chan struct{})
	writer.Add(1)
	go func() {
		defer writer.Done()
		for r := 0; r < rounds; r++ {
			write(s, r)
		}
	}()
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			tag, older := "", ""
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch g {
				case 0: // full, then 304 on the tag it came with
					fr := s.fetchResponse(asn, "")
					s.fetchResponse(asn, fr.tag)
				case 1: // delta, from a tag two fetches old
					fr := s.fetchResponse(asn, older)
					older, tag = tag, fr.tag
				default:
					list := s.blockedForAS(asn)
					mu.Lock()
					handedOut = append(handedOut, list)
					mu.Unlock()
				}
			}
		}(g)
	}
	writer.Wait()
	close(stop)
	readers.Wait()

	for r := 0; r < rounds; r++ {
		write(model, r)
	}
	scribble := func() {
		for _, list := range handedOut {
			for i := range list {
				list[i] = Entry{URL: "scribbled", Reporters: -1}
			}
		}
	}
	check := func(when string) {
		t.Helper()
		want := model.fetchResponse(asn, "").body
		if got := s.fetchResponse(asn, "").body; !bytes.Equal(got, want) {
			t.Fatalf("%s: served body diverges from the model:\n got %s\nwant %s", when, got, want)
		}
		if got := mustMarshal(t, FetchResponse{ASN: asn, Entries: s.blockedForAS(asn)}); !bytes.Equal(got, want) {
			t.Fatalf("%s: BlockedForAS diverges from the model:\n got %s\nwant %s", when, got, want)
		}
	}
	handedOut = append(handedOut, s.blockedForAS(asn))
	scribble()
	check("after the run")
	// Two more rebuilds, so both buffer sets are written again; the lists
	// handed out before must not be what they are written into or read from.
	for r := rounds; r < rounds+2; r++ {
		write(s, r)
		write(model, r)
		handedOut = append(handedOut, s.blockedForAS(asn))
		scribble()
		check(fmt.Sprintf("after rebuild %d", r-rounds+1))
	}
}
