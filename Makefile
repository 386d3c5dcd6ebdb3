GO ?= go

.PHONY: build test vet race smoke bench check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The first line fails on any file gofmt would change, the benchmark
# module's included. The third compiles and asmdecl-checks the packages
# with AVX kernels as every platform without them sees them. The fourth
# vets the nested benchmark module, whose imports of internal/... fail
# here in seconds when a change breaks them.
vet:
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/cpu ./internal/nn ./internal/index
	cd benchmark && $(GO) vet ./...

# Every Go test in the module under the race detector, once: the pool
# fault-injection harness, the workspace/trainer bit-identity pins, the
# serving, gateway, index, lifecycle and red-team suites all run here.
# The explicit timeout covers low-core machines, where the
# adversarial-training test (two 30-epoch runs with per-sample PGD)
# exceeds Go's 600s default under the race detector.
race:
	$(GO) test -race -timeout 2400s ./...

# End-to-end smokes of the real binaries on ephemeral ports: serve,
# gateway, index, swap, redteam (scripts/smoke.sh <name> runs one).
smoke:
	sh scripts/smoke.sh all

# The repository's one benchmark (BENCHMARK.json, benchmark/README.md).
bench:
	bash benchmark/run.sh

# The gate. The nested benchmark module is vetted (by vet) and tested
# here so a deletion that breaks its import surface fails before it
# merges. The untrusted-input parser is fuzzed against its line-splitting
# oracle, the fused graph sweep against the four naive traversals, and the
# forward kernels (the one inference path), the backward kernels and the
# batch-major training pass against the test oracle, beyond the committed
# seeds.
check: build vet race smoke
	cd benchmark && $(GO) test -short ./...
	$(GO) test -run '^$$' -fuzz FuzzParseMatchesOracle -fuzztime 10s ./internal/ir
	$(GO) test -run '^$$' -fuzz FuzzSweepMatchesNaive -fuzztime 10s ./internal/graph
	$(GO) test -run '^$$' -fuzz FuzzForwardKernels -fuzztime 10s ./internal/nn
	$(GO) test -run '^$$' -fuzz FuzzBackwardKernels -fuzztime 10s ./internal/nn
	$(GO) test -run '^$$' -fuzz FuzzTrainRows -fuzztime 10s ./internal/nn
