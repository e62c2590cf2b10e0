#!/bin/sh
#   scripts/bench.sh guard
#
# Gates three hot-path allocation properties with `go test -bench`. (Timing
# and the end-to-end numbers live in bench/ and BENCHMARK.json: `make
# bench`, and host-time comparisons are alternating parent/change pairs as
# bench/README.md describes, not a stored ns/op baseline.)
#
# First, the disabled-metrics overhead: the DES and scheduler benchmarks
# (which build arrays with no obs.Registry attached) must report zero
# allocs/op — the observability layer must stay free when disabled.
# Second, the pooled request path: the end-to-end Figure 6 benchmark must
# stay under FIG6_ALLOC_CAP allocs/op (default 100000; it measures about
# 69600, and 162500 with delayed-mode writes unpooled) — a regression here
# means a request, extent-run, or completion object stopped being
# recycled — and the chaos experiment (crash-enabled, scrubbing bricks,
# where the integrity oracle is on) under CHAOS_ALLOC_CAP (default
# 23150000, 1.1x its 21.04M; it measures 20.95M since the oracle's copy
# state is a dense table, 21.13M while the oracle kept requests out of the
# pool; 99% of what is left is the scrubber resolving chunks). Third,
# the array layer on its own: a delayed-mode write in
# BenchmarkArrayClosedLoop must report at most 1 allocs/op (go test prints
# whole numbers: it measures 1.1, its live-mirror slice, and 11 when the
# write's request, arena or copies stop recycling), and so must its two
# integrity-oracle legs, a third of the requests writes with VerifyReads and
# Crash.Enabled (RAID-10 measures 1 and the SR-Array 0; 3 and 1 while the
# oracle kept its copy state in per-chunk hash-map entries). Fourth, trace
# synthesis: one BenchmarkGenerate run, retune passes included, must stay
# under 955 allocs/op for the cello-base day (1.1x its 867; 9150 while the
# read-after-write bucket tables were hash maps) and 210 for TPC-C's
# 20 minutes (1.1x its 190) — a map back on the per-pass path trips it.
# BENCHTIME overrides the first gate's -benchtime (default 10000x).
set -eu
cd "$(dirname "$0")/.."

if [ "${1:-}" = "guard" ]; then
    out=$(go test -run '^$' -bench 'BenchmarkDESPushPop|BenchmarkSchedPick' \
        -benchtime "${BENCHTIME:-10000x}" -benchmem ./internal/des/ ./internal/sched/)
    echo "$out"
    # Benchmark lines: name iters ns/op B/op allocs/op. Any nonzero
    # allocs/op on these hot paths means the nil-recorder guard broke.
    # containerheap is the stdlib comparison baseline, allocating by design.
    echo "$out" | tr '\t' ' ' | awk '
        /containerheap/ { next }
        /allocs\/op/ {
            for (i = 1; i <= NF; i++) if ($(i+1) == "allocs/op" && $i+0 != 0) {
                print "FAIL: " $1 " allocates (" $i " allocs/op) with metrics disabled"
                bad = 1
            }
        }
        END { exit bad }'
    e2e=$(go test -run '^$' -bench 'BenchmarkFigure6CelloBase$|BenchmarkChaos$' -benchtime 1x -benchmem .)
    echo "$e2e"
    echo "$e2e" | tr '\t' ' ' | awk -v fig6cap="${FIG6_ALLOC_CAP:-100000}" -v chaoscap="${CHAOS_ALLOC_CAP:-23150000}" '
        /^BenchmarkFigure6CelloBase/ { name = "Figure6 pooled request path"; cap = fig6cap }
        /^BenchmarkChaos/ { name = "Chaos with the integrity oracle on"; cap = chaoscap }
        /^Benchmark(Figure6CelloBase|Chaos)/ {
            for (i = 1; i <= NF; i++) if ($(i+1) == "allocs/op") {
                seen++
                if ($i + 0 > cap) {
                    printf "FAIL: %s allocates %d allocs/op (cap %d)\n", name, $i, cap
                    bad = 1
                } else {
                    printf "%s: %d allocs/op (cap %d): ok\n", name, $i, cap
                }
            }
        }
        END {
            if (seen != 2) { print "FAIL: missing a BenchmarkFigure6CelloBase or BenchmarkChaos result"; exit 1 }
            exit bad
        }'
    arr=$(go test -run '^$' -bench 'BenchmarkArrayClosedLoop' -benchtime 20000x -benchmem ./internal/core/)
    echo "$arr"
    echo "$arr" | tr '\t' ' ' | awk '
        /BenchmarkArrayClosedLoop\/write-delayed/ { name = "a delayed-mode write" }
        /BenchmarkArrayClosedLoop\/oracle-raid10/ { name = "a RAID-10 request with the oracle on" }
        /BenchmarkArrayClosedLoop\/oracle-sr-array/ { name = "an SR-Array request with the oracle on" }
        /BenchmarkArrayClosedLoop\/(write-delayed|oracle-raid10|oracle-sr-array)/ {
            for (i = 1; i <= NF; i++) if ($(i+1) == "allocs/op") {
                seen++
                if ($i + 0 > 1) {
                    printf "FAIL: %s allocates %d allocs/op (cap 1)\n", name, $i
                    bad = 1
                }
            }
        }
        END {
            if (seen != 3) { print "FAIL: missing a BenchmarkArrayClosedLoop write-delayed or oracle result"; exit 1 }
            exit bad
        }'
    gen=$(go test -run '^$' -bench 'BenchmarkGenerate' -benchtime 1x -benchmem ./internal/tracegen/)
    echo "$gen"
    echo "$gen" | tr '\t' ' ' | awk '
        /^BenchmarkGenerate\/cello-base-24h/ { cap = 955 }
        /^BenchmarkGenerate\/tpcc-20m/ { cap = 210 }
        /^BenchmarkGenerate\// {
            for (i = 1; i <= NF; i++) if ($(i+1) == "allocs/op") {
                seen++
                if ($i + 0 > cap) {
                    printf "FAIL: %s allocates %d allocs/op (cap %d)\n", $1, $i, cap
                    bad = 1
                } else {
                    printf "%s: %d allocs/op (cap %d): ok\n", $1, $i, cap
                }
            }
        }
        END {
            if (seen != 2) { print "FAIL: missing a BenchmarkGenerate result"; exit 1 }
            exit bad
        }'
    echo "guard: hot paths allocation-free with metrics disabled; pooled request path, chaos, delayed-mode writes, oracle-on requests and trace synthesis under their alloc caps"
    exit 0
fi

echo "usage: scripts/bench.sh guard" >&2
exit 2
