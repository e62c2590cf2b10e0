#!/bin/sh
#   scripts/bench.sh guard
#
# Gates two hot-path allocation properties with `go test -bench`. (Timing
# and the end-to-end numbers live in bench/ and BENCHMARK.json: `make
# bench`, and host-time comparisons are alternating parent/change pairs as
# bench/README.md describes, not a stored ns/op baseline.)
#
# First, the disabled-metrics overhead: the DES and scheduler benchmarks
# (which build arrays with no obs.Registry attached) must report zero
# allocs/op — the observability layer must stay free when disabled.
# Second, the pooled request path: the end-to-end Figure 6 benchmark must
# stay under FIG6_ALLOC_CAP allocs/op (default 260000, one fifth of the
# pre-pooling baseline) — a regression here means a request, extent-run,
# or completion object stopped being recycled. BENCHTIME overrides the
# first gate's -benchtime (default 10000x).
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
    fig6=$(go test -run '^$' -bench 'BenchmarkFigure6CelloBase$' -benchtime 1x -benchmem .)
    echo "$fig6"
    echo "$fig6" | tr '\t' ' ' | awk -v cap="${FIG6_ALLOC_CAP:-260000}" '
        /BenchmarkFigure6CelloBase/ {
            for (i = 1; i <= NF; i++) if ($(i+1) == "allocs/op") {
                if ($i + 0 > cap) {
                    printf "FAIL: Figure6 pooled request path allocates %d allocs/op (cap %d)\n", $i, cap
                    exit 1
                }
                printf "Figure6 pooled request path: %d allocs/op (cap %d): ok\n", $i, cap
            }
        }'
    echo "guard: hot paths allocation-free with metrics disabled; pooled request path under alloc cap"
    exit 0
fi

echo "usage: scripts/bench.sh guard" >&2
exit 2
