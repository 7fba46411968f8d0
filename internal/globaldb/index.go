package globaldb

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"csaw/internal/globaldb/storage"
	"csaw/internal/localdb"
)

// The read side of the store: a per-AS inverted index (asn → url → uuid →
// report), a materialised view the fold maintains so BlockedForAS touches one
// AS's data instead of scanning every client. Each AS index carries a version
// counter bumped after every write that could change its aggregation
// (new/replaced reports, and any change to a reporting client's d). Fetches
// serve a cached sorted snapshot — entries plus each entry's JSON encoding —
// and rebuild only when the version or the global revocation epoch moved, so
// repeated reads of an unchanged AS never re-aggregate or re-sort (the
// regression test watches the rebuilds counter), and a rebuild encodes only
// the entries that changed (delta.go).

// asIndex is the inverted per-AS report index plus its snapshot cache.
type asIndex struct {
	asn     int
	version atomic.Int64

	mu    sync.RWMutex
	byURL map[string]map[string]indexed // url → uuid → report

	// Snapshot cache; snapMu guards every field below. It also serializes
	// rebuilds so concurrent fetchers of a dirty AS do the aggregation once,
	// and recording an edit and serving a delta happen in the same critical
	// section as the rebuild, so a delta body is always paired with the tag
	// of the snapshot it was computed against.
	//
	// frags[i] is json.Marshal(&entries[i]). A fragment is never written
	// after it is made: the next snapshot and the history share it by
	// reference, and every served body is a copy of it. fullLen is the length
	// of the full body the fragments join to, known without joining; body is
	// that join, made by the first full fetch of this snapshot (most
	// snapshots are only ever read by delta) and handed out by reference
	// until the next rebuild drops it.
	snapMu  sync.Mutex
	snapVer int64
	snapRev int64
	valid   bool
	entries []Entry
	frags   [][]byte
	fullLen int
	body    []byte
	history []deltaEdit

	// Storage the next rebuild or delta writes into instead of allocating:
	// the previous snapshot's entries and frags (the two sets swap at every
	// rebuild; nothing outside snapMu ever holds either), aggregate's URL
	// list, and the delta fold's gather list.
	spareEntries []Entry
	spareFrags   [][]byte
	urls         []string
	fold         []deltaItem
}

// indexed pairs a report with its owner's state so aggregation can read the
// owner's d and revoked flag without the write lock.
type indexed struct {
	rep *storage.StoredReport
	cs  *clientState
}

// fetchResult is one /v1/blocked answer. When the caller's If-None-Match
// tag still names the current aggregation, notModified is set and body is
// nil: at fleet scale most sync rounds hit a converged list, and skipping
// the body skips the client-side JSON decode that otherwise dominates sync
// cost. When the tag is stale but still in the AS's recorded edit history,
// delta is set and body is an encoded DeltaResponse carrying only the
// entries that changed since that tag (served only when it is actually
// smaller than the full body). Otherwise body is the full encoded
// FetchResponse, shared by every full fetch of the snapshot: nobody may
// write into it.
type fetchResult struct {
	body        []byte
	tag         string
	notModified bool
	delta       bool
}

// asIndexFor returns the index for asn, creating it when create is set.
// Only the fold and snapshot restore create, both single-writer (under
// store.mu or before the store is published), so a miss needs no re-check.
func (s *store) asIndexFor(asn int, create bool) *asIndex {
	s.indexMu.RLock()
	idx := s.index[asn]
	s.indexMu.RUnlock()
	if idx == nil && create {
		idx = &asIndex{asn: asn, byURL: make(map[string]map[string]indexed)}
		s.indexMu.Lock()
		s.index[asn] = idx
		s.indexMu.Unlock()
	}
	return idx
}

// indexInsert files rep under (asn, url, uuid), replacing uuid's previous
// report for the URL. Shared by the ingest fold and snapshot restore.
func (s *store) indexInsert(uuid string, cs *clientState, rep *storage.StoredReport) {
	idx := s.asIndexFor(rep.ASN, true)
	idx.mu.Lock()
	byUUID := idx.byURL[rep.URL]
	if byUUID == nil {
		byUUID = make(map[string]indexed)
		idx.byURL[rep.URL] = byUUID
	}
	byUUID[uuid] = indexed{rep: rep, cs: cs}
	idx.mu.Unlock()
}

func (s *store) blockedForAS(asn int) []Entry {
	idx := s.asIndexFor(asn, false)
	if idx == nil {
		return []Entry{}
	}
	// Load the version before reading index data: a write landing between
	// the two makes the cached version stale, forcing a harmless rebuild on
	// the next read rather than ever serving stale data as fresh.
	ver, rev := idx.version.Load(), s.revEpoch.Load()
	idx.snapMu.Lock()
	defer idx.snapMu.Unlock()
	s.rebuildLocked(idx, ver, rev)
	return append([]Entry{}, idx.entries...)
}

// fetchResponse serves /v1/blocked for an AS, conditional on the caller's
// If-None-Match tag (inm). See fetchResult for the contract.
func (s *store) fetchResponse(asn int, inm string) fetchResult {
	rev := s.revEpoch.Load()
	idx := s.asIndexFor(asn, false)
	if idx == nil {
		// No reports yet: version 0. The tag still varies with the
		// revocation epoch so it can never collide with a post-write tag.
		tag := snapTag(0, rev)
		if inm == tag {
			return fetchResult{tag: tag, notModified: true}
		}
		return fetchResult{body: joinFullBody(asn, nil), tag: tag}
	}
	ver := idx.version.Load()
	idx.snapMu.Lock()
	defer idx.snapMu.Unlock()
	s.rebuildLocked(idx, ver, rev)
	tag := snapTag(idx.snapVer, idx.snapRev)
	if inm == tag {
		return fetchResult{tag: tag, notModified: true}
	}
	if inm != "" {
		if body := idx.deltaBodyLocked(inm); body != nil {
			return fetchResult{body: body, tag: tag, delta: true}
		}
	}
	if idx.body == nil {
		idx.body = joinFullBody(idx.asn, idx.frags)
	}
	return fetchResult{body: idx.body, tag: tag}
}

// rebuildLocked brings idx's snapshot cache up to (ver, rev), recording the
// change set against the previous snapshot in the delta history. No-op when
// the cache is already there — or past it: a caller that loaded its
// counters before a concurrent fetcher's rebuild is served that newer
// snapshot, so the (version, epoch) pairs of consecutive snapshots only
// grow, which is the order the history is searched by. Caller holds
// idx.snapMu.
func (s *store) rebuildLocked(idx *asIndex, ver, rev int64) {
	if idx.valid && idx.snapVer >= ver && idx.snapRev >= rev {
		return
	}
	s.rebuilds.Add(1)
	entries := idx.aggregate(idx.spareEntries[:0])
	frags, edit := idx.encodeLocked(entries)
	if idx.valid {
		idx.recordEditLocked(edit, int(s.histMax.Load()))
	}
	idx.spareEntries, idx.spareFrags = idx.entries, idx.frags
	idx.entries, idx.frags, idx.body = entries, frags, nil
	idx.fullLen = fullBodyLen(idx.asn, frags)
	idx.snapVer, idx.snapRev, idx.valid = max(ver, idx.snapVer), max(rev, idx.snapRev), true
}

// snapTag renders a snapshot's (version, revocation epoch) as the ETag
// served by /v1/blocked. Both counters only grow, so equal tags always name
// the same aggregation state.
func snapTag(ver, rev int64) string {
	return strconv.FormatInt(ver, 10) + "." + strconv.FormatInt(rev, 10)
}

// aggregate computes the §5 voting aggregation for one AS: s_jk = Σ 1/d_i
// over clients i reporting (j,k), n_jk = count. Everything that feeds the
// output is made order-independent so same-seed fleet runs produce
// byte-identical blocked lists: URLs are sorted, vote contributions are
// summed in sorted order (float addition is not associative), and the
// representative-stages tie between equal post times breaks on uuid.
// The list is appended to entries, which the caller owns; caller holds
// idx.snapMu (for idx.urls).
func (idx *asIndex) aggregate(entries []Entry) []Entry {
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	urls := idx.urls[:0]
	for u := range idx.byURL {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	idx.urls = urls
	votes := make([]float64, 0, 16)
	for _, u := range urls {
		e := Entry{URL: u, ASN: idx.asn}
		votes = votes[:0]
		bestUUID, bestTp := "", int64(0)
		for uuid, ir := range idx.byURL[u] {
			if ir.cs.revoked.Load() {
				continue
			}
			d := ir.cs.d.Load()
			if d == 0 {
				continue
			}
			votes = append(votes, 1/float64(d))
			e.Reporters++
			r := ir.rep
			if bestUUID == "" || r.Tp > bestTp || (r.Tp == bestTp && uuid < bestUUID) {
				bestTp, e.Stages, bestUUID = r.Tp, r.Stages, uuid
			}
		}
		if e.Reporters == 0 {
			continue
		}
		e.LastTp = timeOf(bestTp)
		sort.Float64s(votes)
		for _, v := range votes {
			e.Votes += v
		}
		entries = append(entries, e)
	}
	return entries
}

// stats aggregates the Table-7 numbers. It folds in sorted client and report
// order: the per-URL class is last-write-wins, so folding in map order would
// let iteration order pick the winning class when reports disagree.
func (s *store) stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	acc := newStatsAcc()
	for _, uuid := range sortedKeys(s.users) {
		cs := s.users[uuid]
		if cs.revoked.Load() {
			continue
		}
		for _, k := range sortedKeys(cs.reports) {
			r := cs.reports[k]
			acc.add(r.URL, r.ASN, r.Stages)
		}
	}
	return acc.stats(len(s.users), int(s.updates))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// statsAcc accumulates the Table-7 numbers one report at a time.
type statsAcc struct {
	domains, types map[string]bool
	ases           map[int]bool
	urlType        map[string]string // url → class of the last report folded
}

func newStatsAcc() *statsAcc {
	return &statsAcc{
		domains: make(map[string]bool), types: make(map[string]bool),
		ases: make(map[int]bool), urlType: make(map[string]string),
	}
}

func (a *statsAcc) add(url string, asn int, stages []WireStage) {
	host, _ := localdb.SplitURL(url)
	a.domains[host] = true
	a.ases[asn] = true
	cls := primaryClass(stages)
	a.types[cls] = true
	a.urlType[url] = cls
}

func (a *statsAcc) stats(users, updates int) Stats {
	st := Stats{
		Users: users, Updates: updates, BlockedURLs: len(a.urlType),
		BlockedDomains: len(a.domains), ASes: len(a.ases), BlockTypes: len(a.types),
		ByType: make(map[string]int),
	}
	for _, cls := range a.urlType {
		st.ByType[cls]++
	}
	return st
}
