package globaldb

import (
	"cmp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"csaw/internal/globaldb/storage"
	"csaw/internal/localdb"
)

// The read side of the store: per AS, a URL-ordered view of the §5
// aggregation that the fold keeps current. A record refolds exactly the
// (url, asn) slots it touches — the batch's URLs, every URL of a client
// whose d moved, every URL of a revoked client — so when apply returns, the
// AS's list is finished: a fetch never aggregates (the refolds counter does
// not move across reads), and its tag and body are a function of the record
// stream and the request alone. delta.go has the change tracking a
// conditional fetch is answered from.

// asIndex is one AS's view.
type asIndex struct {
	asn int

	// The fold's own half, under store.mu: every slot by URL, and the slots
	// the record being folded has yet to refold.
	byURL   map[string]*slot
	touched []*slot

	// mu guards everything below and every slot's entry, stamp and frag. A
	// write takes it once per record and AS, for the refold of the touched
	// slots; a fetch for as long as it takes to read the tag and, for a 200
	// nobody was served before, join the body.
	mu sync.Mutex

	// ver counts the accepted ingests that touched the AS, rev is the store's
	// revocation epoch as of the last record that did, and seq counts both:
	// the AS's change sequence, which stamps slots and marks (delta.go).
	ver, rev, seq int64

	order  []*slot // every slot, tombstones included, by URL
	marks  []mark  // the states the AS has left, oldest first, capped
	reapAt int64   // smallest stamp a tombstone in order may carry; 0: none

	lines []*slot // deltaBody's gather list, kept for its storage

	// body is the full body, joined by the first full fetch of this state
	// (most states are only ever read by delta) and handed out by reference
	// until a slot is next stamped; fullLen is its length, which the first
	// delta fetch of the state needs (0: not yet).
	body    []byte
	fullLen int
}

// slot is one (url, asn) pair: the reports filed under it and their
// aggregation.
type slot struct {
	// stamp is idx.seq as of the record that last changed entry, and frag is
	// entry's JSON — of a tombstone, the URL's — made by the first reader that
	// needs it. A fragment is never written after it is made: every served
	// body is a copy of it.
	stamp int64
	frag  []byte
	entry Entry // Reporters == 0: a tombstone, every reporter revoked

	// The fold's own half, under store.mu. best indexes the representative —
	// of the clients in good standing the one that posted last, ties to the
	// smaller uuid — as of the last refold. A record queues the slots it
	// touches; restart says whether it may have moved a weight (a client
	// joining, its d moving, its revocation) and the aggregation starts over,
	// or only replaced the report of a client already here, when at most the
	// representative changes, and only to that client.
	idx             *asIndex
	reps            []filed  // one per reporting client, in arrival order
	first           [1]filed // where reps begins: most slots have one reporter
	best            int
	queued, restart bool
}

// filed is one client's current report on a slot; placed is the client's own
// handle on it, reps[at] of sl (reps only ever grows), with the report beside
// it so that snapshot capture and stats read a client's reports without
// visiting their slots. The report's (URL, ASN) is its dedup key; byKey
// orders by it without building the "url|asn" string.
type filed struct {
	cs  *clientState
	rep *storage.StoredReport
}

type placed struct {
	rep *storage.StoredReport
	sl  *slot
	at  int
}

// smallReports is the most reports a client holds without a slot index.
const smallReports = 16

// find returns the index in cs.reports of cs's report in sl, the slot of
// its (url, asn) key.
func (cs *clientState) find(sl *slot) (int, bool) {
	if cs.bySlot != nil {
		i, ok := cs.bySlot[sl]
		return i, ok
	}
	for i := range cs.reports {
		if cs.reports[i].sl == sl {
			return i, true
		}
	}
	return 0, false
}

// sortedReports returns cs's reports in dedup-key order, in a new slice.
func (cs *clientState) sortedReports() []placed {
	ps := slices.Clone(cs.reports)
	slices.SortFunc(ps, byKey)
	return ps
}

// byKey orders reports by dedup key, as strings.Compare orders their key
// strings url + "|" + asn in decimal: the order snapshots list them in.
func byKey(a, b placed) int { return compareKeys(a.rep.URL, a.rep.ASN, b.rep.URL, b.rep.ASN) }

// compareKeys is strings.Compare of the key strings of (u1, a1) and
// (u2, a2), without the strings. Where the URLs differ within the shorter
// one, they decide. Past that, a key goes on with '|' and its ASN's digits,
// so a URL's proper prefix does not always sort first: '|' (0x7C) sorts
// after most URL bytes, and "a.example/|1" follows "a.example/b|1". The
// rest is compared a byte at a time.
func compareKeys(u1 string, a1 int, u2 string, a2 int) int {
	n := min(len(u1), len(u2))
	if c := strings.Compare(u1[:n], u2[:n]); c != 0 {
		return c
	}
	var b1, b2 [24]byte // '|' and a 64-bit decimal with its sign
	t1 := strconv.AppendInt(append(b1[:0], '|'), int64(a1), 10)
	t2 := strconv.AppendInt(append(b2[:0], '|'), int64(a2), 10)
	k1, k2 := len(u1)+len(t1), len(u2)+len(t2)
	for i := n; i < k1 && i < k2; i++ {
		c1, c2 := keyByte(u1, t1, i), keyByte(u2, t2, i)
		if c1 != c2 {
			return cmp.Compare(c1, c2)
		}
	}
	return cmp.Compare(k1, k2)
}

// keyByte is byte i of the key url + tail.
func keyByte(url string, tail []byte, i int) byte {
	if i < len(url) {
		return url[i]
	}
	return tail[i-len(url)]
}

// leads reports whether f is the representative of the two.
func (f filed) leads(g filed) bool {
	return f.rep.Tp > g.rep.Tp || (f.rep.Tp == g.rep.Tp && f.cs.uuid < g.cs.uuid)
}

// fetchResult is one /v1/blocked answer. When the caller's If-None-Match
// tag still names the AS's state, notModified is set and body is nil: at
// fleet scale most sync rounds hit a converged list, and skipping the body
// skips the client-side JSON decode that otherwise dominates sync cost. When
// the tag names a state the AS left within the mark history, delta is set
// and body is an encoded DeltaResponse carrying only the entries that
// changed since (served only when it is actually smaller than the full
// body). Otherwise body is the full encoded FetchResponse, shared by every
// full fetch of the state: nobody may write into it.
type fetchResult struct {
	body        []byte
	tag         string
	notModified bool
	delta       bool
}

// asIndexFor returns asn's index, or nil when nothing was ever reported
// there.
func (s *store) asIndexFor(asn int) *asIndex {
	s.indexMu.RLock()
	defer s.indexMu.RUnlock()
	return s.index[asn]
}

// file puts rep, cs's report on (rep.URL, rep.ASN), in its slot in place of
// the one cs filed there before, and queues the slot. It reports whether
// the key is new to cs. Caller holds s.mu.
func (s *store) file(cs *clientState, rep *storage.StoredReport) bool {
	idx := s.index[rep.ASN]
	if idx == nil {
		idx = &asIndex{asn: rep.ASN, rev: s.revEpoch.Load(), byURL: make(map[string]*slot)}
		s.indexMu.Lock()
		s.index[rep.ASN] = idx
		s.indexMu.Unlock()
	}
	sl := idx.byURL[rep.URL]
	if sl == nil {
		sl = &slot{idx: idx, entry: Entry{URL: rep.URL, ASN: rep.ASN}}
		sl.reps = sl.first[:0]
		idx.byURL[rep.URL] = sl
	} else {
		sl.share(rep)
		if i, seen := cs.find(sl); seen {
			// Stored reports are immutable once filed — a re-report replaces
			// the pointer — so the representative stages an entry shares with
			// its report never change under a reader, nor the report a
			// compaction captured.
			p := &cs.reports[i]
			was := p.rep
			p.rep, sl.reps[p.at].rep = rep, rep
			if p.at != sl.best && sl.reps[p.at].leads(sl.reps[sl.best]) {
				sl.best = p.at
			}
			// A representative that stepped back may have handed the lead to another.
			s.touch(sl, p.at == sl.best && rep.Tp < was.Tp)
			return false
		}
	}
	cs.reports = append(cs.reports, placed{rep: rep, sl: sl, at: len(sl.reps)})
	switch {
	case cs.bySlot != nil:
		cs.bySlot[sl] = len(cs.reports) - 1
	case len(cs.reports) > smallReports:
		cs.bySlot = make(map[*slot]int, len(cs.reports))
		for i := range cs.reports {
			cs.bySlot[cs.reports[i].sl] = i
		}
	}
	sl.reps = append(sl.reps, filed{cs: cs, rep: rep})
	s.touch(sl, true)
	return true
}

// share points rep, a report about to be filed in sl, at the slot's copies:
// its URL, and the entry's stage list when rep's is equal. A store then
// holds one URL and, per distinct stage list, one list per slot, not one
// per report. The entry is the slot's own, where the representative's
// report is one more pointer to chase on every post; but a slot a restore
// has yet to fold, or a tombstone, has no entry stages, and there the
// representative's stand in. Caller holds s.mu.
func (sl *slot) share(rep *storage.StoredReport) {
	rep.URL = sl.entry.URL
	stages := sl.entry.Stages
	if sl.entry.Reporters == 0 {
		stages = sl.reps[sl.best].rep.Stages
	}
	if stagesEqual(rep.Stages, stages) {
		rep.Stages = stages
	}
}

// touch queues sl for the refold that ends the record. Caller holds s.mu.
func (s *store) touch(sl *slot, restart bool) {
	if !sl.queued {
		sl.queued = true
		if len(sl.idx.touched) == 0 {
			s.affected = append(s.affected, sl.idx)
		}
		sl.idx.touched = append(sl.idx.touched, sl)
	}
	sl.restart = sl.restart || restart
}

// touchAll queues every slot cs reports on: its vote weight or its standing
// changed. Caller holds s.mu.
func (s *store) touchAll(cs *clientState) {
	for i := range cs.reports {
		s.touch(cs.reports[i].sl, true)
	}
}

// commit ends a record's effect on idx: the state the AS is leaving gets a
// mark, the queued slots are refolded, and the tag moves by bump versions to
// the store's current revocation epoch. Caller holds s.mu.
func (s *store) commit(idx *asIndex, bump int64) {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	if idx.seq > 0 { // the AS's history begins with its first report
		idx.marks = append(idx.marks, mark{ver: idx.ver, rev: idx.rev, seq: idx.seq})
	}
	idx.seq++
	idx.ver, idx.rev = idx.ver+bump, s.revEpoch.Load()

	s.refolds.Add(int64(len(idx.touched)))
	fresh := s.fresh[:0]
	for _, sl := range idx.touched {
		e := sl.entry
		if sl.restart {
			e, s.votes = sl.fold(s.votes[:0])
		} else {
			rep := sl.reps[sl.best].rep
			e.Stages, e.LastTp = rep.Stages, timeOf(rep.Tp)
		}
		sl.queued, sl.restart = false, false
		if entryEqual(e, sl.entry) {
			continue
		}
		if sl.stamp == 0 {
			fresh = append(fresh, sl)
		}
		if e.Reporters == 0 && idx.reapAt == 0 {
			idx.reapAt = idx.seq
		}
		sl.entry, sl.stamp, sl.frag = e, idx.seq, nil
		idx.body, idx.fullLen = nil, 0
	}
	idx.touched = idx.touched[:0]
	idx.place(fresh)
	s.fresh = fresh
	idx.trimMarks(int(s.histMax.Load()))
}

// fold computes the §5 voting aggregation for the slot: s_jk = Σ 1/d_i over
// clients i reporting (j,k), n_jk = count. Everything that feeds the output
// is made order-independent so same-seed fleet runs produce byte-identical
// blocked lists: vote contributions are summed in ascending order (float
// addition is not associative), and the representative-stages tie between
// equal post times breaks on uuid. votes is storage for the terms, returned
// for the next call.
func (sl *slot) fold(votes []float64) (Entry, []float64) {
	e := Entry{URL: sl.entry.URL, ASN: sl.entry.ASN}
	for i, f := range sl.reps {
		if f.cs.revoked {
			continue
		}
		if len(votes) == 0 || f.leads(sl.reps[sl.best]) {
			sl.best = i
		}
		votes = append(votes, 1/float64(len(f.cs.reports)))
	}
	if len(votes) == 0 {
		return e, votes
	}
	rep := sl.reps[sl.best].rep
	e.Reporters, e.Stages, e.LastTp = len(votes), rep.Stages, timeOf(rep.Tp)
	slices.Sort(votes)
	for _, v := range votes {
		e.Votes += v
	}
	return e, votes
}

// place merges a record's new slots into the URL order: one sort of the new
// ones, then from the back each takes its place behind the run of old slots
// that sort after it, moved up in one copy — pointers only, and a search per
// new slot, not a comparison per old one. Caller holds idx.mu.
func (idx *asIndex) place(fresh []*slot) {
	if len(fresh) == 0 {
		return
	}
	slices.SortFunc(fresh, func(a, b *slot) int { return strings.Compare(a.entry.URL, b.entry.URL) })
	end := len(idx.order) // order[:end] has yet to move
	idx.order = append(idx.order, fresh...)
	for j := len(fresh) - 1; j >= 0; j-- {
		at, _ := slices.BinarySearchFunc(idx.order[:end], fresh[j].entry.URL, func(sl *slot, url string) int {
			return strings.Compare(sl.entry.URL, url)
		})
		copy(idx.order[at+j+1:], idx.order[at:end])
		idx.order[at+j] = fresh[j]
		end = at
	}
}

func (s *store) blockedForAS(asn int) []Entry {
	idx := s.asIndexFor(asn)
	if idx == nil {
		return []Entry{}
	}
	idx.mu.Lock()
	defer idx.mu.Unlock()
	out := make([]Entry, 0, len(idx.order))
	for _, sl := range idx.order {
		if sl.entry.Reporters > 0 {
			out = append(out, sl.entry)
		}
	}
	return out
}

// fetchResponse serves /v1/blocked for an AS, conditional on the caller's
// If-None-Match tag (inm). See fetchResult for the contract.
func (s *store) fetchResponse(asn int, inm string) fetchResult {
	idx := s.asIndexFor(asn)
	if idx == nil {
		// No reports yet: an empty view at version 0. The tag still varies
		// with the revocation epoch so it can never collide with a post-write
		// tag.
		idx = &asIndex{asn: asn, rev: s.revEpoch.Load()}
	}
	idx.mu.Lock()
	defer idx.mu.Unlock()
	tag := snapTag(idx.ver, idx.rev)
	if inm == tag {
		return fetchResult{tag: tag, notModified: true}
	}
	if inm != "" {
		if body := idx.deltaBody(inm); body != nil {
			return fetchResult{body: body, tag: tag, delta: true}
		}
	}
	if idx.body == nil {
		idx.body = joinFullBody(idx.asn, idx.order)
	}
	return fetchResult{body: idx.body, tag: tag}
}

// snapTag renders an AS state's (version, revocation epoch) as the ETag
// served by /v1/blocked. Both counters only grow, so equal tags always name
// the same state.
func snapTag(ver, rev int64) string {
	return strconv.FormatInt(ver, 10) + "." + strconv.FormatInt(rev, 10)
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
		if cs.revoked {
			continue
		}
		for _, p := range cs.sortedReports() {
			acc.add(p.rep.URL, p.rep.ASN, p.rep.Stages)
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
