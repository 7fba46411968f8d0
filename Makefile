# Verification gates (see README "Verification gates").
#
#   make tier1       — the tier-1 gate: build + full test suite
#   make vet         — static analysis (go vet)
#   make lint        — csaw-lint: the simulation-invariant analyzers
#   make race        — full test suite under the race detector
#   make fmt         — gofmt gate: fails if any tracked Go file outside
#                      testdata/ is not gofmt-formatted
#   make check       — fmt + vet + race + lint (the pre-merge gate alongside
#                      tier1)
#   make bench       — run the committed benchmark suite (BENCHMARK.json:
#                      four workloads, 3 timed + 1 traced run each) and
#                      write benchmark/out/results.json
#   make loc         — non-test Go lines per package, largest first
#   make loc-diff    — the same at HEAD minus at HEAD~1: a PR's net line
#                      count per package (CI prints both)
#   make chaos       — deterministic chaos sweep under -race: the fixed
#                      primary-loss schedule plus 20 generated fault
#                      schedules against the replicated global DB, on the
#                      event clock; every seed must heal to a converged
#                      byte-identical set with no acked report lost, twice
#                      with equal reports. Emits CHAOS.json (the per-seed
#                      fault/invariant record, written even when a seed
#                      fails; equal across runs)
#   make soak-churn  — seeded censor-churn soak under -race: the scenario
#                      runs twice and the summary + trace artifact must be
#                      byte-identical
#   make golden      — regenerate the flight-recorder golden trace artifact
#   make shape       — regenerate the experiment goldens TestExperiments
#                      holds every runner to (internal/experiments/testdata)
#   make fuzz        — short fuzz pass over the dnsx/httpx wire codecs (dnsx
#                      also against its reference codec and its frame read
#                      by reference against a copying read; httpx
#                      also against its map-based reference codec, its
#                      in-place request-head parse against ReadRequest, and
#                      its by-reference body read against a plain read), the
#                      censor's intercepted HTTP stream against a model of an
#                      on-path censor and its in-place URL/keyword match
#                      against the lowering one it replaced, its TLS path
#                      against the same model and tlsx's in-place hello
#                      parse against ReadHello, the WAL
#                      record and snapshot decoders, the global-DB report
#                      and list decoders and list bodies, seedrand's
#                      sources against math/rand, detect's verdict
#                      (Analyse) against Figure 4's invariants, core's
#                      approach planner against §4.3.2's, global-DB
#                      compaction against the reference snapshot, and its
#                      derived report order against the key strings
#   make allocs      — the allocation ledger: csaw-fleet -allocs over
#                      fleet-10k's population (serial clients, every
#                      allocation profiled), per fetch by package, into
#                      ALLOCS.txt; ALLOC_HISTORY keeps one row per change
#   make cover       — coverage for core+detect+trace, gated on COVERAGE.md

GO ?= go

.PHONY: all build test tier1 fmt vet lint race check bench loc loc-diff chaos soak-churn golden shape fuzz allocs cover

all: tier1

build:
	$(GO) build ./...

test:
	$(GO) test ./...

tier1: build test

# Lint fixtures under testdata/ are source the analyzers read, formatted as
# their cases need, so the gate skips them.
fmt:
	@files=$$(gofmt -l $$(git ls-files '*.go' | grep -v /testdata/)); \
	test -z "$$files" || { echo "gofmt needed:"; echo "$$files"; exit 1; }

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/csaw-lint -json LINT.json ./...

race:
	$(GO) test -race ./...

check: fmt vet race lint

bench:
	$(GO) run ./benchmark -seed 1

# Non-test Go lines per package directory (no _test.go, no testdata/),
# largest first, one line each; CI prints it. Both recipes read
# "[rev:]path:lines" rows from `git grep -c ''` and share the fold below.
loc_src = grep -v -e '_test\.go:' -e '/testdata/'
loc_fold = { d = $$(NF-1); if (!sub(/\/[^\/]*$$/, "", d)) d = "."; n[d] += $$NF; t += $$NF }

loc:
	@git grep --untracked -c '' -- '*.go' | $(loc_src) | \
		awk -F: '$(loc_fold) END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | \
		sort -k1,1nr -k2

# A PR's net line count: loc at HEAD minus loc at HEAD~1, packages that
# changed only, most-shrunk first, total last.
loc-diff:
	@{ git grep -c '' HEAD -- '*.go'; git grep -c '' HEAD~1 -- '*.go' | sed 's/:\([0-9]*\)$$/:-\1/'; } | $(loc_src) | \
		awk -F: '$(loc_fold) END { s = "sort -k1,1g -k2"; for (d in n) if (n[d]) printf "%+7d %s\n", n[d], d | s; close(s); printf "%+7d total\n", t }'

# Chaos sweep for the replicated global DB: the fixed primary-loss schedule
# and the 20-seed randomized sweep (kills, partitions, flaps, torn writes,
# WAL bit-flips), under the race detector. The harness runs on the
# discrete-event clock, so a seed names one outcome: each sweep seed runs
# twice and the two reports must be equal. CHAOS.json records every seed's
# fault mix and checked invariants and is written even on failure, so a red
# run still carries the evidence.
chaos:
	CSAW_CHAOS_OUT=$(CURDIR)/CHAOS.json $(GO) test -race ./internal/chaos -run 'TestChaosPrimaryLoss|TestChaosSweep' -count=1 -v -timeout 20m

# Determinism soak for the adversarial-churn scenario: same seed twice,
# rendered summary and deterministic-profile trace must not differ by a
# byte (classification margins must beat scheduler jitter), with the race
# detector watching the failover/settlement goroutines.
soak-churn:
	CSAW_SOAK=1 $(GO) test -race ./internal/experiments -run TestSoakChurn -count=1 -v

# Regenerate internal/core/testdata/trace_golden.jsonl after intentional
# recorder or protocol changes; the test still asserts its structural
# invariants (span count, timeout-phase events) before blessing the bytes.
golden:
	CSAW_UPDATE_GOLDEN=1 $(GO) test ./internal/core -run TestGoldenTrace -count=1

# Regenerate internal/experiments/testdata/*.golden after an intentional
# change to an experiment's report: byte-exact renders for the experiments
# that print only counts, number-masked renders plus metric keys for the
# rest. Read the diff before committing it — an unexplained one is a
# regression, not a new golden.
shape:
	CSAW_UPDATE_SHAPE=1 $(GO) test ./internal/experiments -run TestExperiments -count=1

# One short engine pass per wire-codec fuzz target (plus the WAL record and
# snapshot decoders — the bytes a crash can tear — the /v1/report and
# /v1/blocked decoders, which the targets hold to encoding/json, and the
# /v1/blocked bodies, which the global DB joins from cached fragments and the
# target holds to encoding/json too), and seedrand's sources, which FuzzSource
# holds to math/rand draw for draw; the checked-in seed corpora under testdata/fuzz/ always
# run as plain regression subtests. The dnsx FuzzCodecVsReference holds the
# DNS codec to the one it replaced (dnsx/reference_test.go), and
# FuzzReadMessageTake the by-reference frame read to that codec's copying
# read, over a *Conn, a budgeted slotConn and a reader that cannot take.
# The httpx FuzzCodecVsReference holds the httpx
# codec to the map-based one it replaced (reference_test.go),
# FuzzParseRequestHead the censor's in-place head parse to ReadRequest, and
# FuzzReadResponseTake the by-reference body read to ReadResponse over the
# same bytes. The censor's FuzzInterceptedStream holds a kept-alive HTTP
# stream through it to a model of an on-path censor, and FuzzHTTPActionFor
# its in-place URL and keyword match to the lowering one it replaced;
# FuzzInterceptedHello holds its TLS path to the same model, the SNI that
# ReadHello reads deciding, and the tlsx FuzzParseHello the in-place hello
# parse to ReadHello. The
# FuzzReadResponse pattern is anchored: -fuzz must match one target. It and
# FuzzFetchBodies cap minimization: their coverage varies run to run (map
# order, sync.Pool), and the engine would spend the whole pass failing to
# shrink the first new input. The detect FuzzAnalyse feeds the verdict any
# observations: it never panics, a blocked verdict names a stage, a
# suspected or timed-out one is blocked, and an ended caller gets none. The
# core FuzzPlan drives the approach planner with any approaches, policy and
# script: it never panics, never chooses a benched approach while an
# unbenched one fits nor a non-anonymous one under the anonymity
# preference, and walks at most four distinct rungs from the choice. The
# global-DB FuzzCompactionMatchesReference drives a durable store through any
# history of registrations, ingests, re-reports, revocations, compactions,
# reopens and resets: every snapshot it leaves is byte-identical to the one
# WriteSnapshot makes of the reference state, and every compaction encodes
# exactly the users whose state moved since the last one. FuzzReportKeyOrder
# holds the order reports are sorted in by (URL, ASN) to strings.Compare of
# their "url|asn" keys.
fuzz:
	$(GO) test ./internal/dnsx -run '^$$' -fuzz FuzzMessageDecode -fuzztime 10s
	$(GO) test ./internal/dnsx -run '^$$' -fuzz FuzzCodecVsReference -fuzztime 10s
	$(GO) test ./internal/dnsx -run '^$$' -fuzz FuzzReadMessageTake -fuzztime 10s
	$(GO) test ./internal/httpx -run '^$$' -fuzz '^FuzzReadResponse$$' -fuzztime 10s
	$(GO) test ./internal/httpx -run '^$$' -fuzz FuzzReadResponseTake -fuzztime 10s
	$(GO) test ./internal/httpx -run '^$$' -fuzz FuzzReadRequest -fuzztime 10s
	$(GO) test ./internal/httpx -run '^$$' -fuzz FuzzCodecVsReference -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/httpx -run '^$$' -fuzz FuzzParseRequestHead -fuzztime 10s
	$(GO) test ./internal/censor -run '^$$' -fuzz FuzzInterceptedStream -fuzztime 10s
	$(GO) test ./internal/censor -run '^$$' -fuzz FuzzHTTPActionFor -fuzztime 10s
	$(GO) test ./internal/censor -run '^$$' -fuzz FuzzInterceptedHello -fuzztime 10s
	$(GO) test ./internal/tlsx -run '^$$' -fuzz FuzzParseHello -fuzztime 10s
	$(GO) test ./internal/globaldb/storage -run '^$$' -fuzz FuzzReplay -fuzztime 10s
	$(GO) test ./internal/globaldb/storage -run '^$$' -fuzz FuzzSnapshot -fuzztime 10s
	$(GO) test ./internal/globaldb -run '^$$' -fuzz FuzzReportDecode -fuzztime 10s
	$(GO) test ./internal/globaldb -run '^$$' -fuzz FuzzListDecode -fuzztime 10s
	$(GO) test ./internal/globaldb -run '^$$' -fuzz FuzzFetchBodies -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/globaldb -run '^$$' -fuzz FuzzCompactionMatchesReference -fuzztime 10s
	$(GO) test ./internal/globaldb -run '^$$' -fuzz FuzzReportKeyOrder -fuzztime 10s
	$(GO) test ./internal/seedrand -run '^$$' -fuzz FuzzSource -fuzztime 10s
	$(GO) test ./internal/detect -run '^$$' -fuzz FuzzAnalyse -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzPlan -fuzztime 10s

# The allocation ledger: every allocation of a serial fleet-10k-sized run,
# attributed to the package of the first frame outside the runtime and the
# standard library, per planned fetch. The profile misses the tiny
# allocations packed into an earlier one's 16-byte block, so its total runs
# a few percent under the runtime.MemStats line the file ends with.
allocs:
	$(GO) run ./cmd/csaw-fleet -clients 10000 -seed 1 -allocs ALLOCS.txt > /dev/null
	@cat ALLOCS.txt

# Combined statement coverage over the measurement pipeline (core + detect
# + trace), gated against the baseline recorded in COVERAGE.md.
cover:
	$(GO) test -coverprofile=cover.out ./internal/core ./internal/detect ./internal/trace
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	base=$$(awk '/^baseline:/ { sub(/%/, "", $$2); print $$2 }' COVERAGE.md); \
	awk -v t="$$total" -v b="$$base" 'BEGIN { \
		if (t + 0 < b + 0) { printf "FAIL: coverage %.1f%% below baseline %.1f%% (COVERAGE.md)\n", t, b; exit 1 } \
		printf "coverage %.1f%% (baseline %.1f%%)\n", t, b }'
