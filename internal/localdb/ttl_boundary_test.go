package localdb

import (
	"testing"
	"time"

	"csaw/internal/vtime"
)

// stamp rewrites a record's Measured time so tests can place it precisely
// relative to the flowing virtual clock.
func stamp(t *testing.T, db *DB, url string, at time.Time) {
	t.Helper()
	host, path := SplitURL(url)
	db.mu.Lock()
	defer db.mu.Unlock()
	r := db.paths[host][path]
	if path == "/" {
		r = db.base[host]
	}
	if r == nil {
		t.Fatalf("no record for %s", url)
	}
	r.Measured = at
}

// TestExpiryExactlyAtTTLBoundary pins the strict-inequality contract: a
// record is alive for the full TTL *inclusive* (expired() uses >, not >=)
// and dies on the first tick past it. A near-frozen clock (1ns of virtual
// time per real second) makes Advance arithmetic exact, so the boundary is
// observable to the nanosecond.
func TestExpiryExactlyAtTTLBoundary(t *testing.T) {
	const ttl = 100 * time.Millisecond
	clock := vtime.New(1e-9)
	db := New(clock, ttl, false)
	db.Put("foo.com/", 1, Blocked, []Stage{{Type: BlockHTTP}})

	clock.Advance(ttl)
	if _, s := db.Lookup("foo.com/"); s != Blocked {
		t.Fatalf("record exactly at TTL = %v, want Blocked (expiry must be strict)", s)
	}
	if got := db.Len(); got != 1 {
		t.Fatalf("Len at TTL = %d, want 1", got)
	}
	if got := len(db.PendingGlobal()); got != 1 {
		t.Fatalf("PendingGlobal at TTL = %d records, want 1", got)
	}

	clock.Advance(time.Microsecond)
	if _, s := db.Lookup("foo.com/"); s != NotMeasured {
		t.Fatalf("record past TTL = %v, want NotMeasured", s)
	}
	// The expired-record Lookup purges: the record is gone, not just hidden.
	if got := db.Len(); got != 0 {
		t.Fatalf("Len past TTL = %d, want 0 after purge", got)
	}
	if got := len(db.PendingGlobal()); got != 0 {
		t.Fatalf("PendingGlobal past TTL = %d records, want 0", got)
	}
}

// TestExpiryBoundaryAcrossClockScales brackets the TTL boundary at clock
// scales from wall time to 10⁴. Virtual time flows with real time × scale,
// so at scale 10⁴ a scheduler stall is minutes of virtual drift — the
// failure mode deadline slack exists for. The test models that drift
// explicitly: the record is stamped driftBudget (two real seconds of
// virtual time) in the future, so the alive check tolerates any stall
// shorter than the budget, while the expired check advances past the
// budget and must still fire.
// Guards against expiry drifting to >= (records dying a tick early) or to
// a slack-relative comparison that would never expire at high scales.
func TestExpiryBoundaryAcrossClockScales(t *testing.T) {
	for _, scale := range []float64{1, 300, 10000} {
		clock := vtime.New(scale)
		db := New(clock, DefaultTTL, true)
		db.Put("bar.com/", 7, NotBlocked, nil)

		driftBudget := clock.Virtual(2 * time.Second)
		if driftBudget >= DefaultTTL {
			t.Fatalf("scale %v: drift budget %v swallows the TTL", scale, driftBudget)
		}
		stamp(t, db, "bar.com/", clock.Now().Add(driftBudget))

		// One full TTL later the record must still be alive: its effective
		// age is ttl − driftBudget + drift, under ttl for any drift inside
		// the budget.
		clock.Advance(DefaultTTL)
		if _, s := db.Lookup("bar.com/"); s != NotBlocked {
			t.Errorf("scale %v: record at TTL (minus drift budget) = %v, want NotBlocked", scale, s)
		}

		// Consuming the budget pushes the age strictly past the TTL.
		clock.Advance(driftBudget)
		if _, s := db.Lookup("bar.com/"); s != NotMeasured {
			t.Errorf("scale %v: record past TTL = %v, want NotMeasured", scale, s)
		}
	}
}
