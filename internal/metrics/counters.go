package metrics

import "sync"

// Counters is a set of named event counts: the one way the client, the
// global-DB client, the censor and the fleet driver count what happened.
// It is safe for concurrent use and ready as a zero value; every method of
// a nil *Counters is a no-op that reads as all zeros, so an owner with
// nothing to count can hand one out.
//
// Components that count together share one registry: each other than the
// owner counts in a Scope of its own (In), whose names never meet the
// owner's or another scope's.
type Counters struct {
	mu sync.Mutex
	m  map[countKey]int
}

// countKey is a name within a scope; the owner's names are scope 0's.
type countKey struct {
	name  string
	scope int
}

// Add adds n to the named count.
func (c *Counters) Add(name string, n int) { c.add(countKey{name, 0}, n) }

// Get returns the named count (0 for a name never counted).
func (c *Counters) Get(name string) int { return c.get(countKey{name, 0}) }

// Snapshot returns a copy of every nonzero count; the caller owns it. The
// scopes' counts are not in it.
func (c *Counters) Snapshot() map[string]int { return c.snapshot(0) }

// In returns the registry's scope numbered scope, which must not be 0.
func (c *Counters) In(scope int) Scope { return Scope{c, scope} }

func (c *Counters) add(k countKey, n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[countKey]int)
	}
	c.m[k] += n
	c.mu.Unlock()
}

func (c *Counters) get(k countKey) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[k]
}

func (c *Counters) snapshot(scope int) map[string]int {
	if c == nil {
		return map[string]int{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int, len(c.m))
	for k, v := range c.m {
		if k.scope == scope && v != 0 {
			out[k.name] = v
		}
	}
	return out
}

// Scope is one component's counts within a shared registry, with the
// registry's methods.
type Scope struct {
	c     *Counters
	scope int
}

// Add adds n to the named count.
func (s Scope) Add(name string, n int) { s.c.add(countKey{name, s.scope}, n) }

// Get returns the named count (0 for a name never counted).
func (s Scope) Get(name string) int { return s.c.get(countKey{name, s.scope}) }

// Snapshot returns a copy of the scope's nonzero counts.
func (s Scope) Snapshot() map[string]int { return s.c.snapshot(s.scope) }

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
