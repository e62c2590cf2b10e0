#!/usr/bin/env bash
# Builds the benchmark and runs it, from the root of a checkout:
#
#   bash bench/run.sh --workload trace-open --seed 1 --seconds 6 --trace 0
#
# Everything the build writes (binary, Go build cache, Go's own config) stays
# under .bench_build/ in the checkout. The benchmark is its own module
# (bench/go.mod, replace repro => ../), so it needs the repository around it:
# in a directory that holds only bench/ the build fails and nothing is printed.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$root/.bench_build
mkdir -p "$build"
export GOCACHE=$build/go-cache GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd "$here" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
