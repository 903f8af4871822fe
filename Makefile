# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test vet bench perf perf-check figures faults serve result-race examples clean

all: build vet test

build:
	$(GO) build ./...

# Static diagnostics: Go's own vet, the softcache-analyze invariant suite
# over the codebase itself (see docs/ANALYSIS.md "Codebase analyzers"),
# then softcache-vet over the example DSL program and every built-in
# benchmark, the latter with the tag-precision audit (error-severity
# findings fail). The analyzers run as a go vet tool, so _test.go files
# are checked too.
vet:
	$(GO) vet ./...
	tmp=$$(mktemp -d) && $(GO) build -o $$tmp/softcache-analyze ./cmd/softcache-analyze && \
		$(GO) vet -vettool=$$tmp/softcache-analyze ./...; \
		status=$$?; rm -rf "$$tmp"; exit $$status
	$(GO) run ./cmd/softcache-vet -source examples/dsl/stencil.loop
	$(GO) run ./cmd/softcache-vet -workload all -scale test -audit

test:
	$(GO) test ./...

# Quick benchmark pass at test scale (set SOFTCACHE_BENCH_SCALE=paper for
# full-size runs).
bench:
	$(GO) test -bench=. -benchmem ./...

# Every pinned perf row (kernel, fused and decode layers at test and paper
# scale); refreshes the committed BENCH_kernel.json baseline (run on a quiet
# machine). See docs/PERF.md.
perf:
	$(GO) run ./cmd/softcache-perf -out BENCH_kernel.json

# The test-scale rows gated against the committed baseline: every row's
# ns/record within 15% (what CI runs).
perf-check:
	$(GO) run ./cmd/softcache-perf -quick -baseline BENCH_kernel.json \
		-out /tmp/bench-current.json -max-regress 0.15

# Regenerate every figure of the paper at full scale, refreshing
# EXPERIMENTS.md, results/*.csv and results/figures.html.
figures:
	$(GO) run ./cmd/softcache-bench -all -scale paper \
		-md EXPERIMENTS.md -csv results -html results/figures.html

# Push the fault-injection corpus through the trace -> simulate pipeline:
# every corrupted input must end in an error, never a panic.
faults:
	$(GO) run ./cmd/softcache-bench -faults

# Run the simulation service daemon on the default port. See docs/SERVE.md.
serve:
	$(GO) run ./cmd/softcache-served

# The result-cache equivalence layer under the race detector — what CI's
# "result-cache equivalence suite" step runs. See docs/SERVE.md "Result
# cache".
result-race:
	$(GO) test -race -count=1 ./internal/resultcache
	$(GO) test -race -count=1 -run 'Result|Fingerprint|PrefixCollision|RestartedShard' \
		./internal/serve ./internal/cluster ./cmd/softcache-served
	$(GO) test -race -count=10 ./internal/flight
	$(GO) test -race -count=10 -run TraceCache ./internal/serve
	$(GO) test -race -count=10 -run TestServeSoak ./internal/serve

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/matvec
	$(GO) run ./examples/spmv_scarce
	$(GO) run ./examples/blocking
	$(GO) run ./examples/prefetch
	$(GO) run ./examples/dsl

clean:
	$(GO) clean ./...
