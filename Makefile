# godosn build & verification targets.

GO ?= go

.PHONY: all ci build vet test race fuzz-smoke bench-harness bench-gate pairs loc reach reach-check bench bench-quick bench-hot experiments experiments-quick smoke lint-print lint-wallclock lint-exports examples clean

all: build vet test

# Full verification gate: compile, vet, tests, the race detector, a short
# fuzz of every Fuzz* target, the benchmark harness's own vet + tests, the
# three hygiene lints (lint-exports: every internal/ function has a shipped
# caller), every example, the smoke list below, and the reach ratchet
# (reach-check: no package leaves more statements unreached than committed).
ci: build vet test race fuzz-smoke bench-harness lint-print lint-wallclock lint-exports examples smoke reach-check

# One smoke gate: dosnbench and dosnd are built once (into .smoke/, ignored), then every command in SMOKE runs
# in order; the first failure prints that command's output and stops. Each
# experiment enforces its own invariants in-run and exits non-zero on a
# violation, so "it ran" is the check. What each line guards:
#   e19        zero surfaced corruption at >= 99% availability under loss + churn + Byzantine replies
#   e21        warm caches hit, match the cold arm byte for byte, never serve a revoked reader
#   cache -race  the sharded cache's concurrent hammers (no fill outlives an Invalidate) and eviction-order determinism
#   breaker -race  eight goroutines mixing reports, overrides and the lock-free quarantine check; the quarantine count still matches the nodes
#   ownership -race  single-key lookups from two goroutines against batch walks that learn whole segments, InvalidateRoutes that clear them and Join/Leave changing the ring; every learned segment stays exact
#   batch put -race  workers-8 PutBatch destinations record their envelope outcomes concurrently: stats match workers 1, and offline, ack-lost and unavailable outcomes stay per group
#   heal memo -race  skipped copies plan what a full pass plans, with writers running
#   simnet -race  ten callers against every fault injector with exact ledgers; link draws independent of other links' traffic
#   pubkey -race  ten goroutines on one ECIES Sender (shared and own recipients, two-wrap Multis that outlive an ephemeral replacement, Forget) and on one key pair's memoised Decrypt
#   e7,e16     placed sealed copies on the DHT match 1-(1-u)^(k+1) within 4 sigma + 0.01, monotone in k and uptime; proxies >= 0.99
#   e22        load-aware arm >= 99% served at <= 3x baseline p99 while the bare arm degrades
#   e23        batching saves >= 3x msg/op at digest-identical reads and flat live heap
#   scenarios  every committed scenario: run-twice + workers 1v8 DeepEqual, invariants, pinned digest
#   e25 + -scenario-report + window/sink tests  guilty-window localisation, the per-window table, the sink contract on both transports
#   TestSweep + e26  sweeper budget/starvation/priority/cursor; batched anti-entropy >= 3x cheaper, same repairs
#   quarantine tests  one scrub verdict per node per pass (rot burst spares an honest holder, a liar needs Threshold passes); heal targets obey the placement veto
#   freshness  a short overwrite survives the sweeper and a garbled read, and an older copy judges nobody (the election's highest-verified-version rule, batched and per-key)
#   e20 -json  the instrumented report round-trips the strict v2 validator (telemetry section included)
#   e3,e18 -json  the plain report does too
#   dosnd -resilient  the resilient DHT session completes under 10% loss and prints its metrics
#   dosnd hybrid  a session on the hybrid overlay completes end to end, and a member whose social cache held a post reads it once it is republished after a revocation
# The attack walkthroughs are the examples, run by `make examples`.
SMOKE_OUT := .smoke
BENCH_BIN := $(SMOKE_OUT)/dosnbench
DOSND_BIN := $(SMOKE_OUT)/dosnd
define SMOKE
$(BENCH_BIN) -quick -exp e19
$(BENCH_BIN) -quick -exp e21
$(GO) test -race -count=1 -run 'TestCacheRaceHammer|TestCacheFillNeverOutlivesInvalidate|TestCacheEvictionOrderShardedWorkers1vs8' ./internal/cache/
$(GO) test -race -count=10 -run 'TestBreakerHammer' ./internal/resilience/
$(GO) test -race -count=1 -run 'TestOwnershipHammer' ./internal/overlay/dht/
$(GO) test -race -count=1 -run 'TestBatchMatchesSequentialAcrossWorkers|TestPutBatchFaultIsolation' ./internal/overlay/dht/
$(GO) test -race -count=5 -run 'TestHealConcurrentWithStores|TestHealMatchesReferenceModel' ./internal/overlay/dht/
$(GO) test -race -count=1 -run 'TestHammerKeepsLedgersExact|TestLinkDrawsIgnoreOtherLinks' ./internal/overlay/simnet/
$(GO) test -race -count=1 -run 'TestSenderHammer|TestDecryptHammer' ./internal/crypto/pubkey/
$(BENCH_BIN) -quick -exp e7,e16
$(BENCH_BIN) -quick -exp e22
$(BENCH_BIN) -quick -exp e23
$(BENCH_BIN) -scenario 'scenarios/*.scenario'
$(BENCH_BIN) -quick -exp e25
$(BENCH_BIN) -scenario scenarios/flash-crowd.scenario -scenario-report
$(GO) test -count=1 -run 'TestWindows|TestSink|TestSocketSink|TestFileSink|TestOpenSink|TestWindowStats|TestWindowedSeries|TestLocalize|TestReplayLocalizes|TestTraceSink' ./internal/telemetry/ ./internal/scenario/
$(GO) test -count=1 -run 'TestSweep' ./internal/resilience/scrub/
$(GO) test -count=1 -run 'TestRotBurst|TestScrubVerdicts|TestHeal' ./internal/resilience/scrub/ ./internal/overlay/dht/
$(GO) test -count=1 -run 'TestShortWriteIsRepairedByTheNextSweep|TestGarbledReadDoesNotRollBackAnOverwrite|TestElectKey|TestRecheck|TestOlderVersionJudgesNobody' ./internal/stack/ ./internal/resilience/scrub/
$(BENCH_BIN) -quick -exp e26
$(BENCH_BIN) -quick -exp e20 -json $(SMOKE_OUT)/telemetry.json
$(BENCH_BIN) -validate $(SMOKE_OUT)/telemetry.json
$(BENCH_BIN) -quick -exp e3,e18 -json $(SMOKE_OUT)/report.json
$(BENCH_BIN) -validate $(SMOKE_OUT)/report.json
$(DOSND_BIN) -users 16 -resilient -loss 0.1 -metrics
$(DOSND_BIN) -users 16 -overlay hybrid
endef
export SMOKE

smoke:
	$(GO) build -o $(BENCH_BIN) ./cmd/dosnbench
	$(GO) build -o $(DOSND_BIN) ./cmd/dosnd
	@echo "$$SMOKE" | while IFS= read -r cmd; do \
		echo "smoke: $$cmd"; \
		out=$$(sh -c "$$cmd" 2>&1) || { echo "$$out"; echo "smoke: FAILED: $$cmd"; exit 1; }; \
	done

# Library code reports through the telemetry registry (or t.Log in tests),
# never stdout; only the bench harness renders tables. Fails on any
# fmt.Print* under internal/ outside internal/bench.
lint-print:
	@bad=$$(grep -rn 'fmt\.Print' internal/ --include='*.go' | grep -v '^internal/bench/' || true); \
	if [ -n "$$bad" ]; then \
		echo "lint-print: fmt.Print* in library code (use telemetry or t.Log):"; \
		echo "$$bad"; \
		exit 1; \
	fi

# The windowed series and scenario clocks are tick-driven by contract: a
# wall-clock read anywhere in those layers would silently break run-twice
# and workers-1v8 byte-identity. Fails on any new time.Now outside the
# allowlist (currently empty).
lint-wallclock:
	@bad=$$(grep -rn 'time\.Now' internal/telemetry/ internal/scenario/ --include='*.go' || true); \
	if [ -n "$$bad" ]; then \
		echo "lint-wallclock: time.Now in deterministic layers (use the tick clock):"; \
		echo "$$bad"; \
		exit 1; \
	fi

# Every function or method under internal/, exported or not, needs a caller
# in a non-test file of either module (cmd/, examples/, benchmark/, internal/) or
# a line in tools/lintexports/allow.txt giving one of four reasons; a line
# naming a function that is gone or now has a caller fails too.
lint-exports:
	$(GO) run ./tools/lintexports -allow tools/lintexports/allow.txt . benchmark

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Every Fuzz* target for a fixed small budget, one `go test -fuzz` each (the
# flag takes one target in one package). A crasher is written to the
# package's testdata/fuzz and fails the run.
FUZZ_TIME := 5s
define FUZZ_TARGETS
./internal/social/privacy/ FuzzUnmarshal
./internal/crypto/abe/ FuzzParsePolicy
./internal/crypto/pubkey/ FuzzDecrypt
./internal/crypto/prf/ FuzzDerive
./internal/overlay/dht/ FuzzStoreOps
./internal/telemetry/ FuzzSinkEncode
./internal/scenario/ FuzzParse
./internal/resilience/scrub/ FuzzOpen
./internal/crypto/hashchain/ FuzzParseEntry
./internal/crypto/symmetric/ FuzzSealOpen
endef
export FUZZ_TARGETS

fuzz-smoke:
	@echo "$$FUZZ_TARGETS" | while read -r pkg target; do \
		echo "fuzz-smoke: $$pkg $$target"; \
		$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZ_TIME) $$pkg || exit 1; \
	done

# benchmark/ is its own module (godosn/benchmark), so `go test ./...` at the
# root never compiles it: vet and test it here so a change that breaks the
# frozen harness surface fails CI, not the next benchmark run.
bench-harness:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# The ledger gate (ROADMAP bookkeeping): run the full four-workload benchmark
# at seed 11, keep its result at the repository root as BENCH_<pr>.json, and
# compare it against the newest earlier BENCH_*.json (benchmark/baseline.json
# before the first one exists). -compare exits non-zero on any `worse` row.
# The harness stamps HEAD's commit; when the work tree the run was built from
# differs from HEAD (the ledger file aside), the stamp reads <sha>+wt, since
# the numbers are then the uncommitted change's. No measured value changes.
BENCH_PR := 63
bench-gate:
	@wt=$$(git status --porcelain -- . ':(exclude)BENCH_$(BENCH_PR).json' 2>/dev/null); \
	echo "bash benchmark/run.sh -all -seed 11"; \
	bash benchmark/run.sh -all -seed 11 || exit 1; \
	cp benchmark/out/results.json BENCH_$(BENCH_PR).json; \
	if [ -n "$$wt" ]; then sed -i '0,/^  "commit": "\([^"+]*\)",$$/s//  "commit": "\1+wt",/' BENCH_$(BENCH_PR).json; fi
	@prev=$$(ls BENCH_*.json | sed 's/^BENCH_\(.*\)\.json$$/\1/' | sort -n | awk '$$1 < $(BENCH_PR)' | tail -1); \
	if [ -n "$$prev" ]; then prev=BENCH_$$prev.json; else prev=benchmark/baseline.json; fi; \
	echo "bench-gate: $$prev -> BENCH_$(BENCH_PR).json"; \
	bash benchmark/run.sh -compare $$prev BENCH_$(BENCH_PR).json

# Alternating pairs (tools/pairs): time revision A against revision B (a
# revision, or "worktree" for the working tree) on workload W, N pairs at
# seed SEED, each side built by its own benchmark/run.sh from a checkout
# under .pairs/ (ignored). Prints each end-to-end metric's medians and
# quartiles, "B better in k of N" and a verdict: a count must repeat
# exactly, a time needs its bound or nine of ten pairs past A's quartile
# spread. Refuses GOGC, GOMAXPROCS and GOMEMLIMIT, as the benchmark does.
A ?= HEAD
B ?= worktree
W ?= stream-batched
N ?= 10
SEED ?= 11
pairs:
	$(GO) run ./tools/pairs -a $(A) -b $(B) -w $(W) -n $(N) -seed $(SEED)

# Go line counts per internal/ package, non-test and test, with a total —
# the before/after number simplicity PRs report.
loc:
	@find internal -name '*.go' | sort | xargs wc -l | awk ' \
		$$2 == "total" { next } \
		{ d = $$2; sub(/\/[^\/]*$$/, "", d); if (!(d in seen)) { seen[d] = 1; order[++n] = d } \
		  if ($$2 ~ /_test\.go$$/) { t[d] += $$1; tt += $$1 } else { c[d] += $$1; ct += $$1 } } \
		END { printf "%-40s %9s %9s\n", "package", "non-test", "test"; \
		      for (i = 1; i <= n; i++) printf "%-40s %9d %9d\n", order[i], c[order[i]], t[order[i]]; \
		      printf "%-40s %9d %9d\n", "total", ct, tt }'

# Which statements the shipped entry points reach (a report; reach-check
# below is the gate): dosnbench, dosnd and every example are built with
# coverage into .smoke/reach/, the benchmark module too, and then run with
# GOCOVERDIR set:
# dosnbench -quick with its -json report validated, two experiments at
# -parallel 8, the scenario library replayed and re-recorded, one scenario
# with -scenario-report and traced to a file and to an OTLP-shaped file,
# dosnd on every overlay bare and resilient under 10% loss and once with
# -metrics and -trace-out, every example and the benchmark's -smoke. Prints
# per-package statement coverage of internal/ and the statements no entry
# point reached, and leaves the merged profile in
# .smoke/reach/coverage.txt (`go tool cover -func` reads it) and the
# per-package table in .smoke/reach/unreached.txt. The -coverpkg
# pattern must name the main package as well, or no counter files are
# written.
REACH := $(CURDIR)/$(SMOKE_OUT)/reach
reach:
	rm -rf $(REACH) && mkdir -p $(REACH)/cov
	$(GO) build -cover -coverpkg=./... -o $(REACH)/dosnbench ./cmd/dosnbench
	$(GO) build -cover -coverpkg=./... -o $(REACH)/dosnd ./cmd/dosnd
	@for d in examples/*/; do \
		$(GO) build -cover -coverpkg=./... -o $(REACH)/example-$$(basename $$d) ./$$d || exit 1; \
	done
	cd benchmark && GOWORK=off $(GO) build -cover -coverpkg=godosn/...,godosn/benchmark -o $(REACH)/benchmark .
	@export GOCOVERDIR=$(REACH)/cov; set -e; \
	run() { echo "reach: $$*"; "$$@" >$(REACH)/last.log 2>&1 || { cat $(REACH)/last.log; exit 1; }; }; \
	run $(REACH)/dosnbench -quick -json $(REACH)/report.json; \
	run $(REACH)/dosnbench -validate $(REACH)/report.json; \
	run $(REACH)/dosnbench -quick -exp e3,e18 -parallel 8; \
	run $(REACH)/dosnbench -scenario 'scenarios/*.scenario'; \
	run $(REACH)/dosnbench -scenario scenarios/flash-crowd.scenario -scenario-report; \
	run $(REACH)/dosnbench -scenario scenarios/flash-crowd.scenario -trace-out $(REACH)/trace.jsonl; \
	run $(REACH)/dosnbench -scenario scenarios/flash-crowd.scenario -trace-out otlp+file://$(REACH)/otlp.jsonl; \
	run $(REACH)/dosnbench -scenario-record-library $(REACH)/library; \
	for o in dht gossip superpeer hybrid federation; do \
		run $(REACH)/dosnd -overlay $$o; \
		run $(REACH)/dosnd -overlay $$o -resilient -loss 0.1; \
	done; \
	run $(REACH)/dosnd -resilient -loss 0.1 -metrics -trace-out $(REACH)/dosnd-trace.jsonl; \
	for e in $(REACH)/example-*; do run $$e; done; \
	run $(REACH)/benchmark -smoke -out $(REACH)/benchmark-out
	$(GO) tool covdata percent -i=$(REACH)/cov -pkg=godosn/internal/...
	$(GO) tool covdata textfmt -i=$(REACH)/cov -pkg=godosn/internal/... -o $(REACH)/coverage.txt
	@awk 'NR > 1 { p = $$1; sub(/\/[^\/]*:.*/, "", p); n[p] += $$2; if ($$3 == 0) z[p] += $$2 } \
		END { for (p in n) printf "%-40s %6d statements %6d unreached\n", p, n[p], z[p] }' $(REACH)/coverage.txt | sort | tee $(REACH)/unreached.txt

# The reach ratchet: after `make reach`, fails when any internal/ package
# leaves more statements unreached than REACH_COUNTS commits for it (a
# package missing there counts as 0), and names every package whose count
# fell so the file can be lowered to match. Lines starting with # are
# comments.
REACH_COUNTS := tools/reach/unreached.txt
reach-check: reach
	@awk 'FNR == 1 { f++ } /^#/ || NF == 0 { next } \
		f == 1 { base[$$1] = $$2; next } \
		{ now[$$1] = $$4 } \
		END { for (p in base) if (!(p in now)) now[p] = 0; \
		      for (p in now) { b = (p in base) ? base[p] : 0; \
		        if (now[p] > b) { printf "reach-check: %s leaves %d statements unreached, %d committed\n", p, now[p], b | "sort"; bad = 1 } \
		        else if (now[p] < b) printf "reach-check: %s fell to %d unreached from %d committed; lower $(REACH_COUNTS)\n", p, now[p], b | "sort" } \
		      close("sort"); if (bad) { print "reach-check: FAILED"; exit 1 } }' $(REACH_COUNTS) $(REACH)/unreached.txt

# Raw testing.B numbers for every experiment family.
bench:
	$(GO) test -bench=. -benchmem ./...

bench-quick:
	$(GO) test -bench=. -benchtime=10x -run='^$$' .

# Hot-path microbenchmarks: per-scheme group Encrypt/Add/Remove (serial vs
# pool), DHT Put/Get/Heal, the single-key Store/Lookup under a missing
# route cache and one key's resolution (a route-cache hit and an evicting
# miss, from 1 and 2 goroutines), symmetric seal/open alloc deltas, ECIES
# Sender.Encrypt first-contact vs warm and Decrypt memo miss vs hit, one
# pooled HKDF-Expand (prf.Derive),
# the sharded cache (hit/miss/contended), one simnet echo RPC
# as one of 1 and of 2 callers sees it, and one verified read (hedged
# Lookup gated by scrub.Check, then scrub.Open). Then the anti-entropy cost curve:
# batched vs per-key scrub at 1k/10k/100k keys (10% corruption, k=3), one
# pass each; its msg/op is the simulated message count per scrubbed key,
# the number E26 pins.
bench-hot:
	$(GO) test -bench=. -benchmem -run='^$$' \
		./internal/social/privacy/ ./internal/overlay/dht/ ./internal/crypto/symmetric/ \
		./internal/crypto/pubkey/ ./internal/crypto/prf/ ./internal/cache/ ./internal/overlay/simnet/ \
		./internal/resilience/
	$(GO) test -bench='BenchmarkScrub' -benchtime=1x -run='^$$' .

# Regenerate the E1–E26 experiment tables (EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/dosnbench

experiments-quick:
	$(GO) run ./cmd/dosnbench -quick

# Every directory under examples/, in sorted order, so a new example is in
# ci without a list to extend. Every example must exit 0, and each scene
# that checks a claim exits non-zero when it is false: forkattack's fork
# (undetected or bridged), securesearch's proxy alias and collusion,
# privacyschemes' invitation integrity checks, advertising's provider view
# with and without flyByNight.
examples:
	@for d in examples/*/; do \
		echo "examples: $$d"; \
		$(GO) run ./$$d || { echo "examples: FAILED: $$d"; exit 1; }; \
	done

clean:
	$(GO) clean ./...
	rm -rf $(SMOKE_OUT)
