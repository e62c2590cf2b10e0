#!/bin/sh
# Non-test Go line count outside bench/ (its own module) and .bench_build/
# (the benchmark's build directory): the size ROADMAP.md and CHANGES.md
# quote, and the number a simplicity change must lower.
#
# Usage: scripts/loc.sh
set -eu
cd "$(dirname "$0")/.."
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -print0 |
	xargs -0 cat | wc -l
