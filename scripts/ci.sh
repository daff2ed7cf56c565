#!/usr/bin/env bash
# ci.sh — the repository's standing correctness gate.
#
# Runs, in order: formatting check, go vet, build, race-enabled tests, the
# sociolint privacy-invariant analyzers, the deterministic fault-injection
# suite (crash-safe store recovery, reload degradation, panic containment,
# load shedding — under -race), the crash/resume matrix for the
# checkpointed offline pipeline and the budget journal (scripts/
# resume_chaos.sh), the crash/recovery matrix for the streaming update
# path (scripts/wal_chaos.sh), the router chaos smoke for the sharded
# serving tier (scripts/router_chaos.sh), and a short fuzz smoke over the
# dataset and release parsers and the cluster ranker. Every step must pass;
# the first failure aborts with a non-zero exit. `make ci` is the one-command
# entry point, locally and in any future pipeline.
set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n== %s ==\n' "$*"; }

step "gofmt (check only)"
# testdata fixtures are excluded: they are analyzer inputs, not sources.
unformatted=$(gofmt -l . | grep -v '/testdata/' || true)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi
echo "ok"

step "go vet"
go vet ./...

step "go build"
go build ./...

step "go test -race"
go test -race ./...

step "sociolint (privacy invariants, flow-sensitive; stale baseline entries fail)"
# Hard gate: any finding not justified in .sociolint-baseline.json or by an
# inline //sociolint:ignore fails CI, and so does a baseline entry that no
# longer matches anything (-check-stale), so suppressions can only shrink
# truthfully.
go run ./cmd/sociolint -baseline .sociolint-baseline.json -check-stale -v ./...

step "fault injection (crash safety, reload degradation, panic containment, shedding)"
# The full ./... -race run above already includes these; re-running the
# failure-path suites by name keeps them un-skippable and makes this gate's
# coverage explicit even if package lists change.
go test -race ./internal/faults
go test -race -run 'TestStore|TestReadCorruptCorpus' ./internal/release
go test -race -run 'TestHot|TestFailedReload|TestReload|TestPanicRecovery|TestChaos|TestLimiterSheds|TestDeadline' ./internal/server
go test -race -run 'TestManagerConcurrentPublishBudget' ./internal/dynamic

step "crash/resume matrix (checkpointed pipeline, budget journal)"
./scripts/resume_chaos.sh

step "wal chaos (streaming updates: crash anywhere, converge byte-identically)"
# Kills the WAL-driven streaming update path at filesystem fault points
# (journal rename, record write, sync) and asserts each resumed run
# converges to the byte-identical release store with Σε spent exactly
# once and zero quarantined-record loss.
./scripts/wal_chaos.sh

step "router chaos smoke (3 shards + router + loadgen, SIGKILL one shard)"
# Kills one of three shard servers under open-loop Zipf load and asserts
# the router keeps answering: bounded error rate, batch partials labeled
# degraded (silent truncation fails), breaker opens then re-closes after
# the shard restarts, and the capacity number lands in the CI log.
./scripts/router_chaos.sh

step "benchmark budget gate (ns/op >50% or ANY allocs/op growth vs BENCH_PR7.json fails)"
# Two quick passes against the recorded baseline. The ns/op threshold is
# deliberately generous — CI machines are noisy; that axis exists to catch
# order-of-magnitude mistakes (an accidental always-on sampler, a lock on
# the span hot path), not single-digit drift. allocs/op is the sharp axis:
# allocation counts are machine-independent, so the gate fails on any
# growth over the baseline even when ns/op is within threshold. `make
# benchdiff` with the defaults is the precise local check.
make benchdiff BENCH_COUNT=2 BENCH_THRESHOLD=50

step "fuzz smoke (10s per target)"
go test -run='^$' -fuzz='^FuzzReadSocialTSV$' -fuzztime=10s ./internal/dataset
go test -run='^$' -fuzz='^FuzzReadPreferenceTSV$' -fuzztime=10s ./internal/dataset
go test -run='^$' -fuzz='^FuzzRead$' -fuzztime=10s ./internal/release
go test -run='^$' -fuzz='^FuzzClusterRank$' -fuzztime=10s ./internal/mechanism
go test -run='^$' -fuzz='^FuzzUpdaterSnapshot$' -fuzztime=10s ./internal/dynamic

printf '\nci: all gates passed\n'
