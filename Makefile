# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test vet bench bench-pair perf figures serve result-race examples clean

all: build vet test

build:
	$(GO) build ./...

# Static diagnostics: Go's own vet and the softcache-analyze invariant
# suite (a go vet tool, built once; see docs/ANALYSIS.md "Codebase
# analyzers") over this module and over benchmark/, a module of its own
# that reaches this one through a replace directive, findings in _test.go
# files included; then softcache-vet over the example DSL program and
# every built-in benchmark, the latter with the tag-precision audit
# (error-severity findings fail).
vet:
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...
	tmp=$$(mktemp -d) && $(GO) build -o $$tmp/softcache-analyze ./cmd/softcache-analyze && \
		$(GO) vet -vettool=$$tmp/softcache-analyze ./... && \
		(cd benchmark && $(GO) vet -vettool=$$tmp/softcache-analyze ./...); \
		status=$$?; rm -rf "$$tmp"; exit $$status
	$(GO) run ./cmd/softcache-vet -source examples/dsl/stencil.loop
	$(GO) run ./cmd/softcache-vet -workload all -scale test -audit

test:
	$(GO) test ./...

# Quick benchmark pass at test scale (set SOFTCACHE_BENCH_SCALE=paper for
# full-size runs).
bench:
	$(GO) test -bench=. -benchmem ./...

# The repository benchmark on this checkout against BASE, in PAIRS
# alternating pairs of SECONDS-long WORKLOAD runs: every run, then each
# metric's per-side median and quartiles, the change's wins and the ratio
# of the medians. BASE defaults to the merge-base of HEAD and main.
# WORKLOAD=perf pairs the quick perf rows instead, each side running its
# own softcache-perf (SECONDS does not apply). Nothing is gated.
WORKLOAD ?= figures
PAIRS ?= 10
SECONDS ?= 20
bench-pair:
	$(GO) run ./cmd/softcache-benchpair $(if $(BASE),-base $(BASE)) \
		-workload $(WORKLOAD) -pairs $(PAIRS) -seconds $(SECONDS)

# Every pinned perf row (kernel, fused and decode layers at test and paper
# scale); refreshes the committed BENCH_kernel.json trajectory record (run
# on a quiet machine) and fails when the corpus-weighted sctz decode is
# slower than flat. See docs/PERF.md.
perf:
	$(GO) run ./cmd/softcache-perf -out BENCH_kernel.json

# Regenerate every figure of the paper at full scale, refreshing
# EXPERIMENTS.md, results/*.csv and results/figures.html.
figures:
	$(GO) run ./cmd/softcache-bench -all -scale paper \
		-md EXPERIMENTS.md -csv results -html results/figures.html

# Run the simulation service daemon on the default port. See docs/SERVE.md.
serve:
	$(GO) run ./cmd/softcache-served

# The result-cache equivalence layer under the race detector, on its own:
# the cache's tests and the differential suites once, then the coalescing
# primitive, the trace cache and the daemon's soak test ten times over.
# CI runs the first two lines as part of its `go test -race ./...` and the
# last three in its repeated race step. See docs/SERVE.md "Result cache".
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
