#!/bin/sh
# Runs the benchmark suite and writes the raw `go test -json` stream to
# BENCH_<date>.json so the performance trajectory is tracked across PRs.
#
#   BENCH='Figure6|DESPushPop' BENCHTIME=3x scripts/bench.sh
#
# BENCH filters the benchmark set (default: all), BENCHTIME sets
# -benchtime (default 1x: one full pass per experiment).
#
#   scripts/bench.sh guard
#
# Guard mode gates two hot-path properties. First, the disabled-metrics
# overhead: the DES and scheduler benchmarks (which build arrays with no
# obs.Registry attached) must report zero allocs/op — the observability
# layer must stay free when disabled. Second, the pooled request path: the
# end-to-end Figure 6 benchmark must stay under FIG6_ALLOC_CAP allocs/op
# (default 260000, one fifth of the pre-pooling baseline) — a regression
# here means a request, extent-run, or completion object stopped being
# recycled. Set BASELINE=<file> to also fail if DESPushPop or
# SchedPickSATF/rsatf/q128 ns/op regresses more than 25% against a previous
# run's stream.
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
    if [ -n "${BASELINE:-}" ]; then
        # Each pattern names one benchmark line; the same 25% rule for all.
        for bench in 'BenchmarkDESPushPop' 'BenchmarkSchedPickSATF/rsatf/q128'; do
            now=$(echo "$out" | tr '\t' ' ' | grep "^$bench" | head -1 |
                awk '{ for (i=1;i<=NF;i++) if ($(i+1)=="ns/op") print $i }')
            old=$(tr '\t' ' ' <"$BASELINE" | grep -o "$bench[^\"]*ns/op" | head -1 |
                awk '{ for (i=1;i<=NF;i++) if ($(i+1)=="ns/op") print $i }')
            if [ -n "$now" ] && [ -n "$old" ]; then
                awk -v b="${bench#Benchmark}" -v n="$now" -v o="$old" 'BEGIN {
                    if (n > o * 1.25) { printf "FAIL: %s %.1f ns/op vs baseline %.1f (+%.0f%%)\n", b, n, o, (n/o-1)*100; exit 1 }
                    printf "%s %.1f ns/op vs baseline %.1f ns/op: ok\n", b, n, o
                }'
            fi
        done
    fi
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

out="BENCH_$(date +%Y%m%d).json"
go test -json -run '^$' -bench "${BENCH:-.}" -benchtime "${BENCHTIME:-1x}" -benchmem ./... >"$out"
grep -c '"Action":"output"' "$out" >/dev/null # sanity: stream is non-empty
echo "wrote $out"
