# Build and verification entry points. `make ci` is the standing
# correctness gate (see scripts/ci.sh); the other targets run its pieces
# individually during development.

GO ?= go

# Benchmark knobs: BENCH_OUT is where `make bench` records the JSON
# baseline; BENCH_BASE is what `make benchdiff` compares a fresh run to;
# BENCH_THRESHOLD is the max tolerated ns/op regression in percent.
# allocs/op has no threshold: any growth over the baseline fails.
BENCH_PKGS ?= ./internal/server ./internal/core ./internal/trace
BENCH_COUNT ?= 5
BENCH_OUT ?= BENCH_PR7.json
BENCH_BASE ?= BENCH_PR7.json
BENCH_THRESHOLD ?= 10

.PHONY: build test race lint lint-fix-check fuzz-smoke chaos resume-chaos router-chaos wal-chaos ci fmt bench benchdiff

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint = formatting + vet + the privacy-invariant analyzers.
lint:
	@unformatted=$$(gofmt -l . | grep -v '/testdata/' || true); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) run ./cmd/sociolint -baseline .sociolint-baseline.json ./...

# lint-fix-check additionally fails on stale baseline entries: when a
# baselined finding gets fixed, its suppression must be deleted too.
lint-fix-check:
	$(GO) run ./cmd/sociolint -baseline .sociolint-baseline.json -check-stale ./...

fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzReadSocialTSV$$' -fuzztime=10s ./internal/dataset
	$(GO) test -run='^$$' -fuzz='^FuzzReadPreferenceTSV$$' -fuzztime=10s ./internal/dataset
	$(GO) test -run='^$$' -fuzz='^FuzzRead$$' -fuzztime=10s ./internal/release
	$(GO) test -run='^$$' -fuzz='^FuzzClusterRank$$' -fuzztime=10s ./internal/mechanism
	$(GO) test -run='^$$' -fuzz='^FuzzUpdaterSnapshot$$' -fuzztime=10s ./internal/dynamic

# chaos drives the hardened server benchmark under -race with mixed
# error/panic/latency fault injection; it fails on any escaped panic,
# deadlock, or unexpected response status.
chaos:
	$(GO) test -race -run='^$$' -bench='^BenchmarkServerChaos$$' -benchtime=2000x ./internal/server

# resume-chaos kills the checkpointed offline pipeline at every fault
# point and proves each resumed run converges to the byte-identical
# release with ε journaled exactly once (see scripts/resume_chaos.sh).
resume-chaos:
	./scripts/resume_chaos.sh

# router-chaos drives the sharded serving tier (router + 3 shards) with
# open-loop Zipf load, SIGKILLs a shard mid-run, and asserts bounded
# errors, degraded-labeled batches, breaker open/close, and recovery
# (see scripts/router_chaos.sh).
router-chaos:
	./scripts/router_chaos.sh

# wal-chaos kills the streaming update path (mutation WAL + incremental
# re-release) at filesystem fault points and proves every resumed run
# converges to the byte-identical release store with Σε spent exactly
# once and no quarantined-record loss (see scripts/wal_chaos.sh).
wal-chaos:
	./scripts/wal_chaos.sh

ci:
	./scripts/ci.sh

# bench records a fresh benchmark baseline (min ns/op over BENCH_COUNT
# runs) into $(BENCH_OUT).
bench:
	$(GO) test -run='^$$' -bench=. -benchmem -count=$(BENCH_COUNT) $(BENCH_PKGS) | tee /tmp/bench_raw.txt
	$(GO) run ./scripts -parse /tmp/bench_raw.txt -out $(BENCH_OUT)

# benchdiff re-runs the benchmarks and fails if anything regressed more
# than $(BENCH_THRESHOLD)% ns/op against the recorded baseline
# $(BENCH_BASE), or grew allocs/op over it at all (hard ceiling).
benchdiff:
	$(GO) test -run='^$$' -bench=. -benchmem -count=$(BENCH_COUNT) $(BENCH_PKGS) > /tmp/bench_new_raw.txt
	$(GO) run ./scripts -parse /tmp/bench_new_raw.txt -out /tmp/bench_new.json
	$(GO) run ./scripts -old $(BENCH_BASE) -new /tmp/bench_new.json -threshold $(BENCH_THRESHOLD)

fmt:
	gofmt -w $$(find . -name '*.go' -not -path './internal/analysis/testdata/*')
