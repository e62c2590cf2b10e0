#!/bin/sh
# Tier-1 gate: build, vet, and the full test suite under the race
# detector, then once more with shuffled test order to catch
# inter-test state leakage.
set -eu
cd "$(dirname "$0")/.."
set -x
go build ./...
go vet ./...
# internal/experiments under the race detector needs 11-12 minutes on a
# 2-CPU box, past go test's default 10-minute package timeout.
go test -race -timeout 30m ./...
go test -shuffle=on -timeout 30m ./...
# The corruption/scrub/hedge composition tests exercise the most
# cross-subsystem state; run them twice under the race detector to
# catch order-dependent residue the single pass can miss.
go test -race -count=2 -run 'TestScrub|TestCorruption|TestSilent|TestLatent|TestTorn|TestHedgeFault' ./internal/core
# Crash/chaos composition: the crash state machine plus the chaos
# experiment (both NVRAM durability modes); run twice under the race
# detector to catch order-dependent residue. The golden test holds seven
# fault-tolerance and multi-brick experiments' output to the committed
# bytes, at one epoch worker. TestSameAtWorkersAndReruns runs the chaos,
# SLO-cluster and brick-loss worlds, and TestShardedMatchesSequential the
# big-array world (batched prime included), at 1/2/4 workers and compares
# their digests, so under the race detector they also check that no two
# workers share one shard's state (about five and a half minutes a pass
# under -race on 2 CPUs, hence the timeout).
go test -race -count=2 -run 'TestCrash|TestScheduledCrash|TestBatchThenCrash|TestRepeatedCrash' ./internal/core
go test -race -count=2 -timeout 30m -run 'TestChaos|TestClusterExperimentsGolden|TestSameAtWorkersAndReruns|TestShardedMatchesSequential' ./internal/chaos ./internal/experiments
# Cluster volume: the replicated-router suite (failover, breaker,
# divergence/backfill reconciliation, DeclareDead, zero-alloc guard)
# twice under the race detector, the cluster-backed gateway tests, and
# the brick-loss experiment smoke (R=2 must absorb the outage with zero
# client errors; TestSameAtWorkersAndReruns above checks its digests).
go test -race -count=2 ./internal/cluster
go test -race -count=2 -run 'TestRealTimeCluster|TestUnavailableRetryAfter|TestScenarioValidate' ./internal/service ./internal/chaos
go run ./cmd/mimdraid -exp brick-loss -iometer-ios 300 > /dev/null
# Service front-end: the gateway determinism digest under the race
# detector, then the mimdserve smoke (two identical loads through the
# full HTTP stack must produce byte-identical digests) — once plain and
# once with the SLO control plane attached.
go test -race -count=2 -run 'TestDeterministicDigest|TestServerHTTP' ./internal/service
go run ./cmd/mimdserve -smoke
go run ./cmd/mimdserve -smoke -slo
# SLO control plane: the controller's ladder/hysteresis unit tests and
# the end-to-end brownout path through the gateway, twice under the
# race detector.
go test -race -count=2 ./internal/slo
go test -race -count=2 -run 'TestSLOBrownoutE2E' ./internal/service
# Fuzz smoke: short bounded runs of the NVRAM snapshot decoder and the
# crash/recovery-scan fuzzers (the seed corpora alone regression-test
# the known crashers), then of the prepared access-time evaluation
# against the long-hand mechanical model (bit-identical or it fails) at
# the disk and at the estimator level.
go test -run '^$' -fuzz '^FuzzAdoptNVRAM$' -fuzztime 5s ./internal/core
go test -run '^$' -fuzz '^FuzzRecoveryScan$' -fuzztime 5s ./internal/core
go test -run '^$' -fuzz '^FuzzPreparedAccess$' -fuzztime 5s ./internal/disk
go test -run '^$' -fuzz '^FuzzPreparedEstimate$' -fuzztime 5s ./internal/calib
# The benchmark is its own module (bench/go.mod), invisible to ./... above:
# run its smoke test so a change that breaks what bench/ builds against
# fails here and not at the next measurement.
(cd bench && go test ./...)
# And the benchmark command itself, all five workloads at one-sixth scale
# (about 15 s): it exits non-zero when a workload's output checks fail or an
# end-to-end metric comes out zero, which the smoke test above does not see.
bash bench/run.sh -seconds 1 > /dev/null
