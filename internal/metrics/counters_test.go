package metrics

import (
	"maps"
	"runtime/debug"
	"sync"
	"testing"
)

func TestCountersZeroAndNil(t *testing.T) {
	var c Counters
	if c.Get("x") != 0 || len(c.Snapshot()) != 0 {
		t.Fatal("zero Counters is not empty")
	}
	c.Add("x", 2)
	if c.Get("x") != 2 {
		t.Fatalf("x = %d after Add(x, 2)", c.Get("x"))
	}
	var nc *Counters
	nc.Add("x", 1)
	if nc.Get("x") != 0 {
		t.Fatal("nil Counters counted")
	}
	if s := nc.Snapshot(); s == nil || len(s) != 0 {
		t.Fatalf("nil Counters snapshot = %v, want an empty map", s)
	}
}

// TestCountersConcurrentAdd is meant for -race: many goroutines add to the
// same and to distinct keys while others read.
func TestCountersConcurrentAdd(t *testing.T) {
	var c Counters
	const workers, adds = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			own := string(rune('a' + w))
			for i := 0; i < adds; i++ {
				c.Add("shared", 1)
				c.Add(own, 1)
				_ = c.Get("shared")
				_ = c.Snapshot()
			}
		}(w)
	}
	wg.Wait()
	s := c.Snapshot()
	if s["shared"] != workers*adds || len(s) != workers+1 {
		t.Fatalf("snapshot %v, want shared=%d and %d own keys", s, workers*adds, workers)
	}
}

func TestCountersSnapshotCopiesAndOmitsZeros(t *testing.T) {
	var c Counters
	c.Add("up", 3)
	c.Add("back", 1)
	c.Add("back", -1)
	c.Add("never", 0)
	s := c.Snapshot()
	if !maps.Equal(s, map[string]int{"up": 3}) {
		t.Fatalf("snapshot = %v, want only up=3", s)
	}
	s["up"] = 100
	s["new"] = 1
	if c.Get("up") != 3 || c.Get("new") != 0 {
		t.Fatal("writing the snapshot changed the counters")
	}
	c.Add("up", 1)
	if s["up"] != 100 {
		t.Fatal("counting changed an earlier snapshot")
	}
}

// TestCountersScopes: one registry, the owner's names and a scope's kept
// apart even where they are equal, each snapshot holding only its own.
func TestCountersScopes(t *testing.T) {
	var c Counters
	s := c.In(1)
	c.Add("fetch-304", 2)
	s.Add("fetch-304", 5)
	s.Add("served-direct", 1)
	if c.Get("fetch-304") != 2 || s.Get("fetch-304") != 5 || c.Get("served-direct") != 0 {
		t.Fatalf("owner %v, scope %v: the names met", c.Snapshot(), s.Snapshot())
	}
	if got := c.Snapshot(); !maps.Equal(got, map[string]int{"fetch-304": 2}) {
		t.Fatalf("owner snapshot = %v", got)
	}
	if got := s.Snapshot(); !maps.Equal(got, map[string]int{"fetch-304": 5, "served-direct": 1}) {
		t.Fatalf("scope snapshot = %v", got)
	}
	var nc *Counters
	nc.In(1).Add("x", 1)
	if nc.In(1).Get("x") != 0 || len(nc.In(1).Snapshot()) != 0 {
		t.Fatal("a scope of a nil registry counted")
	}
}

func TestCountersDiff(t *testing.T) {
	before := map[string]int{"same": 2, "grew": 1, "gone": 4}
	after := map[string]int{"same": 2, "grew": 3, "new": 5}
	want := map[string]int{"grew": 2, "new": 5, "gone": -4}
	if d := Diff(after, before); !maps.Equal(d, want) {
		t.Fatalf("Diff = %v, want %v", d, want)
	}
	if d := Diff(after, after); len(d) != 0 {
		t.Fatalf("Diff of a snapshot with itself = %v", d)
	}
	if d := Diff(after, nil); !maps.Equal(d, after) {
		t.Fatalf("Diff against nothing = %v, want %v", d, after)
	}
}

// TestCountersAddAllocBudget: counting an event that was counted before
// costs no allocation. Plain builds only, like the other budgets.
func TestCountersAddAllocBudget(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts are not exact under the race detector")
			}
		}
	}
	var c Counters
	c.Add("served-direct", 1)
	if n := testing.AllocsPerRun(100, func() { c.Add("served-direct", 1) }); n != 0 {
		t.Fatalf("Add on an existing key: %v allocations, want 0", n)
	}
}
