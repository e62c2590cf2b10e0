GO ?= go

.PHONY: build test check bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The full gate: compile, vet, and the test suite under the race detector
# (the parallel experiment runner makes -race meaningful).
check:
	scripts/check.sh

# The repository's benchmark (BENCHMARK.json): all five workloads, one JSON
# result line each. bench/README.md has the protocol for comparing commits.
bench:
	bash bench/run.sh
