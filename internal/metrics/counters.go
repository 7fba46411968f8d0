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
//
// A registry is a short slice searched from the front, not a map: a
// client counts a handful of names, and a population holds one registry
// per client.
type Counters struct {
	mu     sync.Mutex
	counts []count // in first-count order
}

// count is one name's count within a scope; the owner's names are scope
// 0's.
type count struct {
	name  string
	scope int
	n     int
}

// Add adds n to the named count.
func (c *Counters) Add(name string, n int) { c.add(name, 0, n) }

// Get returns the named count (0 for a name never counted).
func (c *Counters) Get(name string) int { return c.get(name, 0) }

// Snapshot returns a copy of every nonzero count; the caller owns it. The
// scopes' counts are not in it.
func (c *Counters) Snapshot() map[string]int { return c.snapshot(0) }

// In returns the registry's scope numbered scope, which must not be 0.
func (c *Counters) In(scope int) Scope { return Scope{c, scope} }

// firstCounts is a registry's room at its first count: a joined fleet
// client's registry holds three names (its list fetch, the list's bytes,
// the sync), and one after its first session three to eight.
const firstCounts = 3

// indexLocked returns the index of the named count in scope, or -1.
// Caller holds c.mu.
func (c *Counters) indexLocked(name string, scope int) int {
	for i := range c.counts {
		if k := &c.counts[i]; k.scope == scope && k.name == name {
			return i
		}
	}
	return -1
}

func (c *Counters) add(name string, scope, n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if i := c.indexLocked(name, scope); i >= 0 {
		c.counts[i].n += n
	} else {
		if c.counts == nil {
			c.counts = make([]count, 0, firstCounts)
		}
		c.counts = append(c.counts, count{name: name, scope: scope, n: n})
	}
	c.mu.Unlock()
}

func (c *Counters) get(name string, scope int) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if i := c.indexLocked(name, scope); i >= 0 {
		return c.counts[i].n
	}
	return 0
}

func (c *Counters) snapshot(scope int) map[string]int {
	if c == nil {
		return map[string]int{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int, len(c.counts))
	for _, k := range c.counts {
		if k.scope == scope && k.n != 0 {
			out[k.name] = k.n
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
func (s Scope) Add(name string, n int) { s.c.add(name, s.scope, n) }

// Get returns the named count (0 for a name never counted).
func (s Scope) Get(name string) int { return s.c.get(name, s.scope) }

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
