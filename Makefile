GO ?= go

.PHONY: build test race vet lint lint-fix-baseline bench bench-json bench-smoke bench-compare profile obs-smoke fault-smoke forensics-smoke app-smoke scale-smoke ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check the concurrency layer: the run-level worker pool in
# internal/exp is the only concurrency — every simulation runs on one
# goroutine, enforced by the floodlint goroutine rule.
# The simdebug tag arms the packet-pool lifecycle assertions, so the
# same run also catches double-release / use-after-release bugs.
race:
	$(GO) test -race -tags simdebug -timeout 3600s ./internal/exp/...

vet:
	$(GO) vet ./...

# Static analysis: go vet, gofmt, plus floodlint, the in-tree analyzer
# suite that enforces the determinism, pooling, units and
# event-ordering invariants (see DESIGN.md §7). Writes floodlint.sarif
# for CI annotation; exit is nonzero on any unformatted Go file (the
# deliberately broken lint fixtures under internal/lint/testdata/ and
# dot-directories such as build caches excepted) and on any floodlint
# finding not grandfathered in .floodlint.baseline.json.
lint: vet
	@unformatted=$$(find . -name '*.go' -not -path './.*' -not -path './internal/lint/testdata/*' | xargs gofmt -l); \
	if [ -n "$$unformatted" ]; then echo "gofmt: unformatted files:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/floodlint -sarif floodlint.sarif ./...

# Regenerate the lint baseline: the current findings become the
# grandfathered set. Review the diff before committing — a shrinking
# baseline is progress, a growing one is debt that needs a reason.
lint-fix-baseline:
	$(GO) run ./cmd/floodlint -write-baseline ./...

# Engine microbenchmarks (push/pop, zero-alloc callbacks, cancel) plus
# the per-figure benchmarks at the package root.
bench:
	$(GO) test -bench=BenchmarkEngineCore -benchmem ./internal/sim
	$(GO) test -bench=. -benchmem .

# Machine-readable benchmark snapshot for regression tracking: engine
# and metrics micro benchmarks plus the BenchmarkRun* macro benchmarks
# (whole simulations) and the route-memory pair; format documented in
# EXPERIMENTS.md. benchjson exits non-zero if a hot-path benchmark
# allocates or the structural router loses its 100x memory edge.
bench-json:
	{ $(GO) test -run '^$$' -bench 'BenchmarkEngineCore|BenchmarkMetrics' -benchmem \
		./internal/sim ./internal/metrics; \
	  $(GO) test -run '^$$' -bench 'BenchmarkRun|BenchmarkForensicsOff|BenchmarkRouteMemory' -benchmem -benchtime 10x \
		./internal/exp; } | $(GO) run ./cmd/benchjson -o BENCH_PR10.json

# One-iteration macro benchmarks: catches bit-rot in the benchmark
# harness (and hot-path allocation regressions via benchjson's gate,
# including the BenchmarkForensicsOff/BenchmarkRunIncast pair rule that
# asserts disabled forensics hooks are allocation-free) without the
# minutes-long stable-measurement runs.
bench-smoke:
	{ $(GO) test -run '^$$' -bench 'BenchmarkEngineCore|BenchmarkMetrics' -benchmem -benchtime 100x \
		./internal/sim ./internal/metrics; \
	  $(GO) test -run '^$$' -bench 'BenchmarkRun|BenchmarkForensicsOff|BenchmarkRouteMemory' -benchmem -benchtime 1x \
		./internal/exp; } | $(GO) run ./cmd/benchjson > /dev/null

# Regression compare: a fresh benchmark run diffed against the
# committed BENCH_PR10.json snapshot, best-of-3 on both the micro and
# macro passes — benchjson collapses repeated names to the fastest run
# of each, because scheduling noise and CPU steal on shared hardware
# only ever add time, so the minimum is the honest estimate. The wide
# tolerance (35%) absorbs the remaining noise — this gate exists to
# catch step-change regressions (an accidental O(n^2), a hot path
# starting to allocate), not single-digit drift; the committed
# snapshots track that across PRs. Allocation counts are
# deterministic, so the pair rules and the zero-alloc gates stay exact.
bench-compare:
	{ $(GO) test -run '^$$' -bench 'BenchmarkEngineCore|BenchmarkMetrics' -benchmem -count 3 \
		./internal/sim ./internal/metrics; \
	  $(GO) test -run '^$$' -bench 'BenchmarkRun|BenchmarkForensicsOff|BenchmarkRouteMemory' -benchmem -benchtime 5x -count 3 \
		./internal/exp; } | $(GO) run ./cmd/benchjson -compare BENCH_PR10.json -tol 35 > /dev/null

# CPU + heap profile of the macro incast benchmark; inspect with
# `go tool pprof cpu.out`. floodsim -cpuprofile/-memprofile profile a
# full experiment instead.
profile:
	$(GO) test -run '^$$' -bench 'BenchmarkRunIncast' -benchtime 50x \
		-cpuprofile cpu.out -memprofile mem.out ./internal/exp
	@echo "profiles written: cpu.out mem.out (go tool pprof <file>)"

# Observability smoke: one real experiment with -obs enabled; asserts
# the NDJSON/manifest parse and the manifest's table hash matches the
# rendered tables (plus obs-on/off and cross-parallelism byte-identity).
obs-smoke:
	$(GO) test -run 'TestObs' -count=1 ./internal/exp

# Fault-injection smoke: short seeded recovery runs (combined 20% loss,
# link flaps, switch restart, wedged-run watchdog, cross-parallelism
# bit-identity) under the race detector with the simdebug pool
# lifecycle assertions armed.
fault-smoke:
	$(GO) test -race -tags simdebug -count=1 ./internal/fault
	$(GO) test -race -tags simdebug -count=1 -timeout 1200s \
		-run 'TestFloodgateRecovers|TestFloodgateResyncs|TestWatchdog|TestFaultedRunsBitIdentical|TestRunConfigValidation|TestRunJobsIsolates' \
		./internal/sim ./internal/exp

# Forensics smoke: one real experiment through floodsim with the causal
# tracing layer on; asserts the CLI wiring end to end (the NDJSON report
# lands next to the obs artifacts) and that the flag pairing error path
# stays a usage error. Byte-identity across parallelism is pinned by
# TestForensicsParallelDeterminism in `make test`.
forensics-smoke:
	$(GO) run ./cmd/floodsim -exp fig2 -scale 0.1 -obs .forensics-smoke -forensics > /dev/null
	@ls .forensics-smoke/fig2/*.forensics.ndjson > /dev/null || \
		{ echo "forensics-smoke: no .forensics.ndjson written"; exit 1; }
	@rm -rf .forensics-smoke

# Application-plane smoke: a tiny closed-loop sloincast run end to end
# through floodsim (deadline timers, retries, breaker, SLO table), plus
# the experiment's acceptance gates — timeouts actually fire under
# DCQCN with retry amplification above 1, Floodgate stays clean, and
# the rendered SLO table parses column for column. Serial-vs-pool
# bit-identity for the app plane runs in `make test`
# (TestSLOIncastParallelDeterminism).
app-smoke:
	$(GO) run ./cmd/floodsim -exp sloincast -scale 0.1 > /dev/null
	$(GO) test -count=1 ./internal/app
	$(GO) test -count=1 -run 'TestSLOIncastDifferentiates|TestSLOIncastSmoke|TestRunFlowFile' ./internal/exp
	$(GO) test -count=1 -run 'TestSpec' ./internal/workload

# Structural-routing smoke: the scaleincast experiment end to end
# through floodsim on the small Clos preset (exercises -topo wiring,
# structural inference at freeze, the route-memory table) plus the
# quick router gates — full-pair BFS equivalence on every builder,
# dense fallback selection, the >= 100x k=16 memory ratio, and the
# scale gauges. The 102,400-host acceptance run and the sampled
# equivalence check on the big fabrics stay in `make test`
# (TestScaleIncastCompletes, TestRouterEquivalenceSampled).
scale-smoke:
	$(GO) run ./cmd/floodsim -exp scaleincast -topo clos > /dev/null
	$(GO) test -count=1 -run 'TestRouterEquivalence$$|TestRouterSelection|TestRouteBytesRatio|TestNextPortsRejectsNonHost' ./internal/topo
	$(GO) test -count=1 -run 'TestScaleIncastSmoke|TestScaleGauges|TestScaleTopoPresets|TestExperimentFabricsUseStructuralRouter' ./internal/exp

ci: build lint test race obs-smoke fault-smoke forensics-smoke app-smoke scale-smoke bench-smoke bench-compare
