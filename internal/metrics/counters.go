package metrics

import "sync"

// Counters is a set of named event counts: the one way the client, the
// global-DB client, the censor and the fleet driver count what happened.
// It is safe for concurrent use and ready as a zero value; every method of
// a nil *Counters is a no-op that reads as all zeros, so an owner with
// nothing to count can hand one out.
type Counters struct {
	mu sync.Mutex
	m  map[string]int
}

// Add adds n to the named count.
func (c *Counters) Add(name string, n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[string]int)
	}
	c.m[name] += n
	c.mu.Unlock()
}

// Get returns the named count (0 for a name never counted).
func (c *Counters) Get(name string) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[name]
}

// Snapshot returns a copy of every nonzero count; the caller owns it.
func (c *Counters) Snapshot() map[string]int {
	if c == nil {
		return map[string]int{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int, len(c.m))
	for k, v := range c.m {
		if v != 0 {
			out[k] = v
		}
	}
	return out
}

// Diff returns after minus before, key by key, without the keys that did
// not move: what happened between two snapshots.
func Diff(after, before map[string]int) map[string]int {
	out := make(map[string]int)
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	for k, v := range before {
		if _, ok := after[k]; !ok && v != 0 {
			out[k] = -v
		}
	}
	return out
}
