package globaldb

import (
	"encoding/json"
	"sort"
	"time"

	"csaw/internal/globaldb/storage"
)

// dbModel is the observable surface the conformance suite drives: the
// production store under each StoreOptions shape, and legacyStore below.
type dbModel interface {
	addUser(uuid string)
	// ingest folds a client's report batch in. ok is false when the uuid is
	// unknown or revoked (or, on a durable store, durability is lost).
	ingest(uuid string, now time.Time, reports []Report) (accepted int, ok bool)
	revoke(uuid string)
	blockedForAS(asn int) []Entry
	fetchResponse(asn int, inm string) fetchResult
	stats() Stats
}

// Test-side shorthands giving *store the model's call shapes. Each is a
// record constructor handed to apply — there is no other way in.

func (s *store) addUser(uuid string) {
	if _, err := s.apply(&storage.Record{Kind: storage.KindAddUser, UUID: uuid}); err != nil {
		panic(err)
	}
}

func (s *store) revoke(uuid string) {
	if _, err := s.apply(&storage.Record{Kind: storage.KindRevoke, UUID: uuid}); err != nil {
		panic(err)
	}
}

func (s *store) ingest(uuid string, now time.Time, reports []Report) (int, bool) {
	n, err := s.apply(ingestRecord(uuid, now, reports))
	if err != nil || n == unknownUUID {
		return 0, false
	}
	return n, true
}

// legacyStore is the sequential reference model of §5 voting: the seed's
// original single-mutex store, minus the mutex. Every fetch re-aggregates
// and re-sorts the whole client table straight from the definition —
// s_jk = Σ 1/d_i over clients i reporting (j,k), n_jk = count — with no
// index, no cache, no versions and no record stream, so it shares no
// mechanism with the store it is the oracle for. It has no validator tags:
// fetchResponse ignores If-None-Match and always serves the full body.
type legacyStore struct {
	clients map[string]map[string]*legacyReport // uuid → "url|asn" → report
	users   map[string]bool
	revoked map[string]bool
	updates int
}

type legacyReport struct {
	url    string
	asn    int
	stages []WireStage
	tp     time.Time
}

func newLegacyStore() *legacyStore {
	return &legacyStore{
		clients: make(map[string]map[string]*legacyReport),
		users:   make(map[string]bool),
		revoked: make(map[string]bool),
	}
}

func (s *legacyStore) addUser(uuid string) { s.users[uuid] = true }

func (s *legacyStore) revoke(uuid string) { s.revoked[uuid] = true }

func (s *legacyStore) ingest(uuid string, now time.Time, reports []Report) (int, bool) {
	if !s.users[uuid] || s.revoked[uuid] {
		return 0, false
	}
	m := s.clients[uuid]
	if m == nil {
		m = make(map[string]*legacyReport)
		s.clients[uuid] = m
	}
	accepted := 0
	for _, r := range reports {
		if r.URL == "" || r.ASN == 0 {
			continue
		}
		key := reportKey(r.URL, r.ASN)
		if _, seen := m[key]; !seen {
			s.updates++
		}
		m[key] = &legacyReport{url: r.URL, asn: r.ASN, stages: r.Stages, tp: now}
		accepted++
	}
	return accepted, true
}

func (s *legacyStore) blockedForAS(asn int) []Entry {
	agg := make(map[string]*Entry)
	best := make(map[string]string) // url → uuid whose stages represent it
	for uuid, reports := range s.clients {
		if s.revoked[uuid] || len(reports) == 0 {
			continue
		}
		for _, r := range reports {
			if r.asn != asn {
				continue
			}
			e := agg[r.url]
			if e == nil {
				e = &Entry{URL: r.url, ASN: asn}
				agg[r.url] = e
			}
			e.Reporters++
			// Latest post represents the entry; equal post times break on uuid.
			if best[r.url] == "" || r.tp.After(e.LastTp) || (r.tp.Equal(e.LastTp) && uuid < best[r.url]) {
				e.LastTp, e.Stages, best[r.url] = r.tp, r.stages, uuid
			}
		}
	}
	out := make([]Entry, 0, len(agg))
	for _, e := range agg {
		// Sum each URL's votes smallest-first: float addition is not
		// associative, and the store's bodies are compared byte-for-byte.
		var votes []float64
		for uuid, reports := range s.clients {
			if _, ok := reports[reportKey(e.URL, asn)]; ok && !s.revoked[uuid] {
				votes = append(votes, 1/float64(len(reports)))
			}
		}
		sort.Float64s(votes)
		for _, v := range votes {
			e.Votes += v
		}
		out = append(out, *e)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].URL < out[b].URL })
	return out
}

func (s *legacyStore) fetchResponse(asn int, _ string) fetchResult {
	b, err := json.Marshal(FetchResponse{ASN: asn, Entries: s.blockedForAS(asn)})
	if err != nil {
		panic(err)
	}
	return fetchResult{body: b}
}

func (s *legacyStore) stats() Stats {
	acc := newStatsAcc()
	for _, uuid := range sortedKeys(s.clients) {
		if s.revoked[uuid] {
			continue
		}
		for _, k := range sortedKeys(s.clients[uuid]) {
			r := s.clients[uuid][k]
			acc.add(r.url, r.asn, r.stages)
		}
	}
	return acc.stats(len(s.users), s.updates)
}
