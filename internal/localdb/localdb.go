// Package localdb is C-Saw's client-side measurement store: an in-memory
// table of the URLs the user has visited with their blocking status (Table 3
// of the paper), entry expiry on a system timer (the URL-churn mechanism of
// §4.4, scenario Blocked→Unblocked), and the URL-aggregation scheme of §4.4
// that collapses records to cut the memory footprint on constrained devices
// (evaluated in Figure 6b):
//
//   - host-level blocking (IP, DNS, HTTPS/SNI) stores one record at the
//     base URL, covering every derived URL;
//   - HTTP blocking of the base URL covers every derived URL;
//   - HTTP blocking of a derived URL stores that URL's own record (censors
//     sometimes block single pages);
//   - an *unblocked* measurement, base or derived, collapses to a single
//     base-URL record.
//
// Lookups use longest-prefix matching on path segments so a blocked derived
// record wins over an unblocked base record.
package localdb

import (
	"sort"
	"strings"
	"sync"
	"time"

	"csaw/internal/vtime"
)

// Status is a URL's blocking status (Table 3).
type Status int

// Statuses. NotMeasured covers both never-measured URLs and expired records.
const (
	NotMeasured Status = iota
	NotBlocked
	Blocked
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case NotMeasured:
		return "not-measured"
	case NotBlocked:
		return "not-blocked"
	case Blocked:
		return "blocked"
	default:
		return "status(?)"
	}
}

// BlockType classifies a blocking mechanism, the vocabulary shared by the
// detection engine, the local and global databases, and the experiment
// reports (Figure 2's categories and Table 7's rows).
type BlockType int

// Blocking mechanisms.
const (
	BlockNone       BlockType = iota
	BlockDNS                  // DNS tampering of any flavour
	BlockIP                   // RST at connect time
	BlockTCPTimeout           // SYN blackholed: TCP connect timeout
	BlockHTTP                 // block page, dropped or reset HTTP exchange
	BlockSNI                  // HTTPS/SNI-based blocking
	BlockContent              // content manipulation caught by phase 2
)

// String returns the block-type name.
func (b BlockType) String() string {
	switch b {
	case BlockNone:
		return "none"
	case BlockDNS:
		return "dns"
	case BlockIP:
		return "ip"
	case BlockTCPTimeout:
		return "tcp-timeout"
	case BlockHTTP:
		return "http"
	case BlockSNI:
		return "sni"
	case BlockContent:
		return "content"
	default:
		return "block(?)"
	}
}

// HostLevel reports whether the mechanism filters a whole host (IP address
// or hostname) rather than individual URLs — the distinction §4.4's
// aggregation rules turn on.
func (b BlockType) HostLevel() bool {
	return b == BlockIP || b == BlockDNS || b == BlockSNI || b == BlockTCPTimeout
}

// Stage is one stage of (possibly multi-stage) blocking: the mechanism and
// a human-readable detail such as the DNS rcode or HTTP disposition.
type Stage struct {
	Type   BlockType
	Detail string
}

// Record is one local_DB row (Table 3).
type Record struct {
	URL          string // "host/path", the index
	ASN          int    // AS the measurement egressed through
	Measured     time.Time
	Status       Status
	Stages       []Stage // stage-1..stage-k blocking
	GlobalPosted bool
}

// PrimaryType returns the first stage's mechanism, or BlockNone.
func (r *Record) PrimaryType() BlockType {
	if len(r.Stages) == 0 {
		return BlockNone
	}
	return r.Stages[0].Type
}

// SplitURL splits "host/path" (scheme-less) into host and path.
func SplitURL(url string) (host, path string) {
	url = strings.TrimPrefix(strings.TrimPrefix(url, "http://"), "https://")
	if i := strings.IndexByte(url, '/'); i >= 0 {
		return strings.ToLower(url[:i]), url[i:]
	}
	return strings.ToLower(url), "/"
}

// JoinURL is the inverse of SplitURL.
func JoinURL(host, path string) string {
	if path == "" {
		path = "/"
	}
	return strings.ToLower(host) + path
}

// BaseURL returns the host's base URL ("host/").
func BaseURL(url string) string {
	host, _ := SplitURL(url)
	return host + "/"
}

// DB is the local database. All methods are safe for concurrent use; the
// read path (Lookup and the snapshot accessors) takes only a read lock, so
// fleet-scale concurrent lookups do not serialize behind writers.
//
// A host's base-URL record — the one every host-level verdict and, with
// aggregation, every unblocked one collapses to, and the only one most
// hosts ever have — sits in one flat table. Only hosts with records of
// their own for derived URLs have a path table.
type DB struct {
	clock *vtime.Clock
	ttl   time.Duration
	// Aggregate enables the §4.4 aggregation rules; the Figure 6b ablation
	// turns it off.
	aggregate bool

	mu sync.RWMutex
	// base maps host → the record for "host/". Its key is the record's own
	// URL less the slash, so the two share their bytes.
	base map[string]*Record
	// paths maps host → derived path → record, for hosts that have any.
	paths map[string]map[string]*Record
}

// DefaultTTL is the record lifetime: long relative to page loads, short
// enough to track URL churn ("blocking events happen on long time scales",
// §4.3.1).
const DefaultTTL = 24 * time.Hour

// New creates a DB. ttl ≤ 0 selects DefaultTTL. Its tables are made at the
// first Put.
func New(clock *vtime.Clock, ttl time.Duration, aggregate bool) *DB {
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	return &DB{clock: clock, ttl: ttl, aggregate: aggregate}
}

// expired reports whether a record is stale.
func (db *DB) expired(r *Record) bool {
	return db.clock.Since(r.Measured) > db.ttl
}

// Lookup returns the record governing url and its effective status.
// NotMeasured means no live record applies.
//
// Lookups run under the read lock; hitting an expired record upgrades to
// the write lock only to purge it (the rare path — records expire once).
func (db *DB) Lookup(url string) (Record, Status) {
	host, path := SplitURL(url)
	db.mu.RLock()
	best, r := db.matchLocked(host, path)
	if r == nil {
		db.mu.RUnlock()
		return Record{}, NotMeasured
	}
	if db.expired(r) {
		db.mu.RUnlock()
		db.purgeExpired(host, best)
		return Record{}, NotMeasured
	}
	// A base-URL unblocked record does not vouch for unmeasured derived
	// URLs when aggregation is off; with aggregation it does (case c).
	if !db.aggregate && best != path {
		db.mu.RUnlock()
		return Record{}, NotMeasured
	}
	rec, status := *r, r.Status
	db.mu.RUnlock()
	return rec, status
}

// matchLocked finds the longest-prefix matching record for host/path
// (§4.4 cases b+c): a covering derived path, else the base URL, which
// covers every path. Caller holds db.mu (either mode).
func (db *DB) matchLocked(host, path string) (string, *Record) {
	best := ""
	var rec *Record
	for p, r := range db.paths[host] {
		if pathCovers(p, path) && len(p) > len(best) {
			best, rec = p, r
		}
	}
	if rec != nil {
		return best, rec
	}
	if r := db.base[host]; r != nil {
		return "/", r
	}
	return "", nil
}

// purgeExpired re-checks under the write lock and drops the record if it
// is still present and stale.
func (db *DB) purgeExpired(host, path string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if path == "/" {
		if r := db.base[host]; r != nil && db.expired(r) {
			delete(db.base, host)
		}
		return
	}
	paths := db.paths[host]
	if r := paths[path]; r != nil && db.expired(r) {
		delete(paths, path)
		if len(paths) == 0 {
			delete(db.paths, host)
		}
	}
}

// pathCovers reports whether a stored path governs the queried path:
// exact match, or prefix at a segment boundary (base "/" covers all).
func pathCovers(stored, query string) bool {
	if stored == query || stored == "/" {
		return true
	}
	if !strings.HasPrefix(query, stored) {
		return false
	}
	return strings.HasSuffix(stored, "/") || query[len(stored)] == '/' || query[len(stored)] == '?'
}

// Put records a measurement outcome for url, applying the aggregation rules.
func (db *DB) Put(url string, asn int, status Status, stages []Stage) {
	host, path := SplitURL(url)
	rec := &Record{
		URL:      JoinURL(host, path),
		ASN:      asn,
		Measured: db.clock.Now(),
		Status:   status,
		Stages:   append([]Stage(nil), stages...),
	}
	db.mu.Lock()
	defer db.mu.Unlock()

	if !db.aggregate {
		db.setLocked(host, path, rec)
		return
	}

	switch {
	case status == Blocked && rec.PrimaryType().HostLevel():
		// IP/DNS/HTTPS blocking filters the whole host: keep one base
		// record and drop now-redundant derived records.
		rec.URL = JoinURL(host, "/")
		delete(db.paths, host)
		db.setLocked(host, "/", rec)
	case status == Blocked:
		// HTTP blocking: base blocks everything (case a); a derived URL
		// gets its own record (case b).
		if path == "/" {
			delete(db.paths, host)
		}
		db.setLocked(host, path, rec)
	default:
		// Unblocked (case c): one record at the base URL. Blocked derived
		// records are kept — they are more specific knowledge and the
		// longest-prefix match prefers them.
		rec.URL = JoinURL(host, "/")
		if paths := db.paths[host]; paths != nil {
			for p, r := range paths {
				if r.Status != Blocked {
					delete(paths, p)
				}
			}
			if len(paths) == 0 {
				delete(db.paths, host)
			}
		}
		if base := db.base[host]; base == nil || base.Status != Blocked {
			db.setLocked(host, "/", rec)
		}
	}
}

// setLocked stores rec as host/path's record. Caller holds db.mu.
func (db *DB) setLocked(host, path string, rec *Record) {
	if path == "/" {
		if db.base == nil {
			db.base = make(map[string]*Record)
		}
		db.base[rec.URL[:len(rec.URL)-1]] = rec
		return
	}
	if db.paths == nil {
		db.paths = make(map[string]map[string]*Record)
	}
	paths := db.paths[host]
	if paths == nil {
		paths = make(map[string]*Record)
		db.paths[host] = paths
	}
	paths[path] = rec
}

// each calls f for every record, live or not. Caller holds db.mu.
func (db *DB) each(f func(*Record)) {
	for _, r := range db.base {
		f(r)
	}
	for _, paths := range db.paths {
		for _, r := range paths {
			f(r)
		}
	}
}

// MarkPosted flags the record for url as reported to the global DB.
func (db *DB) MarkPosted(url string) {
	host, path := SplitURL(url)
	db.mu.Lock()
	defer db.mu.Unlock()
	if r := db.paths[host][path]; r != nil {
		r.GlobalPosted = true
	} else if r := db.base[host]; r != nil {
		r.GlobalPosted = true
	}
}

// PendingGlobal returns blocked, unexpired records not yet posted to the
// global DB, sorted by URL for deterministic sync batches.
func (db *DB) PendingGlobal() []Record {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []Record
	db.each(func(r *Record) {
		if r.Status == Blocked && !r.GlobalPosted && !db.expired(r) {
			out = append(out, *r)
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// Len returns the number of live records (the Figure 6b metric).
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := 0
	db.each(func(r *Record) {
		if !db.expired(r) {
			n++
		}
	})
	return n
}

// Expire removes stale records and returns how many were purged.
func (db *DB) Expire() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	purged := 0
	for host, r := range db.base {
		if db.expired(r) {
			delete(db.base, host)
			purged++
		}
	}
	for host, paths := range db.paths {
		for p, r := range paths {
			if db.expired(r) {
				delete(paths, p)
				purged++
			}
		}
		if len(paths) == 0 {
			delete(db.paths, host)
		}
	}
	return purged
}

// Snapshot returns a copy of all live records, sorted by URL.
func (db *DB) Snapshot() []Record {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []Record
	db.each(func(r *Record) {
		if !db.expired(r) {
			out = append(out, *r)
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}
