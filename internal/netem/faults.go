package netem

import "sync"

// FaultInjector is an Interceptor that simulates link faults on an AS
// egress — flapping links (SetDown), per-destination blackholes or resets
// (Target + SetVerdict), and transient glitches (FailNext) — while
// delegating everything else to an optional inner interceptor (typically
// the AS's censor), so faults compose with censorship policy. The zero
// value (or NewFaultInjector(nil)) passes all traffic through.
type FaultInjector struct {
	inner Interceptor

	mu      sync.Mutex
	down    bool
	verdict Verdict // what a fault looks like: Drop (timeout) or Reset
	targets map[string]bool
	next    int
}

// NewFaultInjector wraps inner (nil = pass everything) with fault hooks.
// Faults default to VerdictDrop: a dead link looks like a timeout.
func NewFaultInjector(inner Interceptor) *FaultInjector {
	return &FaultInjector{inner: inner, verdict: VerdictDrop}
}

// SetDown flips the link down (every matching connect faults) or back up.
func (fi *FaultInjector) SetDown(down bool) {
	fi.mu.Lock()
	fi.down = down
	fi.mu.Unlock()
}

// SetVerdict chooses how a fault manifests: VerdictDrop (blackholed SYN,
// client timeout) or VerdictReset (fast RST failure).
func (fi *FaultInjector) SetVerdict(v Verdict) {
	fi.mu.Lock()
	fi.verdict = v
	fi.mu.Unlock()
}

// Target restricts faults to connections toward the given destination IPs;
// with no targets, faults apply to all egress traffic.
func (fi *FaultInjector) Target(ips ...string) {
	fi.mu.Lock()
	fi.targets = make(map[string]bool, len(ips))
	for _, ip := range ips {
		fi.targets[ip] = true
	}
	fi.mu.Unlock()
}

// FailNext faults the next n matching connects, then heals — a transient
// glitch rather than an outage.
func (fi *FaultInjector) FailNext(n int) {
	fi.mu.Lock()
	fi.next = n
	fi.mu.Unlock()
}

// FilterConnect implements Interceptor.
func (fi *FaultInjector) FilterConnect(f Flow) Verdict {
	fi.mu.Lock()
	match := len(fi.targets) == 0 || fi.targets[f.Dst.IP]
	fire := false
	if match {
		if fi.down {
			fire = true
		} else if fi.next > 0 {
			fi.next--
			fire = true
		}
	}
	v := fi.verdict
	fi.mu.Unlock()
	if fire {
		return v
	}
	if fi.inner != nil {
		return fi.inner.FilterConnect(f)
	}
	return VerdictPass
}

// WantStream implements Interceptor.
func (fi *FaultInjector) WantStream(f Flow) bool {
	return fi.inner != nil && fi.inner.WantStream(f)
}

// HandleStream implements Interceptor.
func (fi *FaultInjector) HandleStream(f Flow, s *Session) {
	if fi.inner != nil {
		fi.inner.HandleStream(f, s)
		return
	}
	s.Splice()
}
