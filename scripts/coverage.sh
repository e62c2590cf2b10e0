#!/bin/sh
# Coverage census: run the whole suite once with cross-package coverage
# (about 4-6 minutes on 2 CPUs, which is why check.sh does not call it).
# It fails when total statement coverage is below 90.0%, and on any
# function that no test executes and that scripts/coverage-baseline.txt
# does not list. Baseline lines are
# "<file> <function> # reason", without line numbers, so unrelated edits
# do not churn the list; listed functions that are now covered are
# reported so the baseline can shrink.
#
# Usage: scripts/coverage.sh
set -eu
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
if ! go test -coverpkg=./... -coverprofile="$tmp/cover.out" ./... > "$tmp/test.log" 2>&1; then
	cat "$tmp/test.log"
	exit 1
fi
go tool cover -func="$tmp/cover.out" > "$tmp/func.txt"
awk '$NF == "0.0%" { sub(/:[0-9]+:$/, "", $1); print $1, $2 }' "$tmp/func.txt" |
	sort -u > "$tmp/zero.txt"
grep -v -e '^#' -e '^$' scripts/coverage-baseline.txt | sed 's/[[:space:]]*#.*//' | sort -u > "$tmp/base.txt"
tail -n 1 "$tmp/func.txt"
status=0
if ! tail -n 1 "$tmp/func.txt" | awk '{ sub(/%$/, "", $NF); exit !($NF + 0 >= 90.0) }'; then
	echo "total coverage is below 90.0%"
	status=1
fi
covered=$(comm -13 "$tmp/zero.txt" "$tmp/base.txt")
if [ -n "$covered" ]; then
	echo "covered or gone now; drop from scripts/coverage-baseline.txt:"
	echo "$covered"
fi
new=$(comm -23 "$tmp/zero.txt" "$tmp/base.txt")
if [ -n "$new" ]; then
	echo "functions no test executes (test them, delete them, or list them in scripts/coverage-baseline.txt):"
	echo "$new"
	status=1
fi
exit $status
