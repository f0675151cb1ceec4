# Convenience targets for the aa reproduction.

GO ?= go

.PHONY: all build test vet perfbench-vet fmtcheck tidy-check race check-smoke fuzz-smoke bench-smoke telemetry-smoke metrics-smoke serve-smoke batch-smoke cache-smoke trace-smoke replay-smoke relay-smoke cover-floor staticcheck vulncheck bench-json bench-regress bench-1m ci bench figures examples cover clean

all: build vet fmtcheck test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# perfbench is its own module (replace aa => ../), outside ./..., so
# nothing else compiles it; vetting it catches an internal/ API change
# that would break the benchmark. go vet writes no binary.
perfbench-vet:
	cd perfbench && $(GO) vet ./...

# Fail if any file needs gofmt (same check CI runs).
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# go.mod must be tidy. -diff needs Go 1.23+; skips with a notice on
# older toolchains (CI runs it on the stable lane only).
tidy-check:
	@if $(GO) mod tidy -help 2>&1 | grep -q -- '-diff'; then \
		$(GO) mod tidy -diff; \
	else \
		echo "go mod tidy -diff unsupported by this toolchain; skipping"; \
	fi

# Full test suite under the race detector.
race:
	$(GO) test -race ./...

# Differential-verification harness over every figure workload, plus the
# solver invariant property tests, plus DESIGN.md §10's rule that only
# the core and the engine call core.Assign1/core.Assign2, plus the rule
# that every registered aa_* metric has a reader, plus the rule that no
# exported func in internal/ is named only by tests (mirrors the CI
# check-smoke steps).
check-smoke:
	$(GO) test -run='TestDifferential|TestSolversSatisfyInvariants' -count=1 ./internal/check
	./scripts/callsites.sh
	./scripts/metric_readers.sh
	./scripts/test_only_exports.sh

# Ten seconds of fuzzing per target: the concave-allocation invariants,
# the check-layer targets, PCHIP monotonicity, the wire decoder
# (differential against encoding/json, and batch framing across read
# boundaries), the assignment codec (differential against
# encoding/json both ways) and the number scanner (the JSON grammar and
# strconv.ParseFloat's bits). go test allows one -fuzz match per
# invocation, hence the separate runs. Minimizing a new input gets 2s
# (the default, 60s, can take the whole window), so each target keeps
# fuzzing; every run's last "fuzz:" line shows its execs and new inputs.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzConcaveFeasibleAndDominant -fuzztime=10s -fuzzminimizetime=2s ./internal/alloc
	$(GO) test -run='^$$' -fuzz=FuzzFeasibleConcave -fuzztime=10s -fuzzminimizetime=2s ./internal/check
	$(GO) test -run='^$$' -fuzz=FuzzDifferentialAssign -fuzztime=10s -fuzzminimizetime=2s ./internal/check
	$(GO) test -run='^$$' -fuzz=FuzzPCHIPMonotone -fuzztime=10s -fuzzminimizetime=2s ./internal/interp
	$(GO) test -run='^$$' -fuzz=FuzzDecodeRequest -fuzztime=10s -fuzzminimizetime=2s ./internal/instio
	$(GO) test -run='^$$' -fuzz=FuzzBatchStream -fuzztime=10s -fuzzminimizetime=2s ./internal/instio
	$(GO) test -run='^$$' -fuzz=FuzzAssignmentCodec -fuzztime=10s -fuzzminimizetime=2s ./internal/instio
	$(GO) test -run='^$$' -fuzz=FuzzScanNumber -fuzztime=10s -fuzzminimizetime=2s ./internal/instio

# Every benchmark compiled and run once.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Disabled/enabled telemetry cost on the Algorithm 2 pipeline.
telemetry-smoke:
	$(GO) test -run='^$$' -bench=TelemetryOverhead -benchtime=1x .

# Live /metrics endpoint scrape against a running aabench.
metrics-smoke:
	./scripts/metrics_smoke.sh

# End-to-end aaserve check: solve + batch over HTTP, live aa_engine_*
# metrics, graceful SIGTERM drain.
serve-smoke:
	./scripts/serve_smoke.sh

# Streaming /solve/batch check: a ~35 MB batch must stream back
# byte-identical to the per-instance /solve answers, twice
# (determinism), with the server's peak RSS below the body size, and a
# small -max-batch-bytes must produce the typed 413.
batch-smoke:
	./scripts/batch_stream_smoke.sh

# End-to-end solve-result cache check: aaserve with -cache memory must
# serve a repeated solve byte-identically with aa_cache_hits_total
# moved, and ?cache=bypass must solve without touching the cache.
cache-smoke:
	./scripts/cache_smoke.sh

# End-to-end tracing check: solve over HTTP with a caller-supplied
# traceparent, then require a well-formed JSONL trace file whose spans
# join the caller's trace with every parent resolving.
trace-smoke:
	./scripts/trace_smoke.sh

# Deterministic-replay gate: diurnal, flash, failures and a recorded
# trace replayed twice with the same seed; any byte difference between
# the canonical reports fails.
replay-smoke:
	./scripts/replay_smoke.sh

# Cluster-tier check: three aaserve nodes behind an aarelay — failover
# mid-replay with a byte-identical report and zero failed solves, node
# recovery, shared relay cache, least-loaded shift off a saturated
# node, 429 rate limiting, and one connected trace tree across client,
# relay and nodes.
relay-smoke:
	./scripts/relay_smoke.sh

# Statement-coverage floors for the packages listed in
# scripts/coverage_floor.sh.
cover-floor:
	./scripts/coverage_floor.sh

# Static analysis beyond go vet. Skips with a notice when the binary is
# not installed (CI installs it; no module dependency is added).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Known-vulnerability scan of the dependency graph (stdlib only here,
# so this mostly guards the toolchain version). Same skip rule.
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# Emit a bench/BENCH_<git rev>.json snapshot of the solver-core benchmark
# matrix (ns/op + allocs/op) without gating. BENCHTIME=1s for more stable
# numbers.
bench-json:
	EMIT_ONLY=1 ./scripts/bench_regress.sh

# The benchmark-regression gate CI runs: snapshot, fast-path speedup
# floor (Assign1 >= 5x, SuperOptimal >= 2x over the retained references
# at n=10k; zero allocs in the session solve), and comparison against
# bench/baseline.json with a 20% calibrated threshold.
bench-regress:
	./scripts/bench_regress.sh

# The opt-in n=10^6 tier: Assign2 alone and the full solve at a million
# threads, folded into the snapshot. benchgate then requires both to
# allocate nothing per op.
bench-1m:
	AA_BENCH_1M=1 ./scripts/bench_regress.sh

# Mirror of .github/workflows/ci.yml.
ci: build vet perfbench-vet fmtcheck tidy-check staticcheck vulncheck race check-smoke fuzz-smoke bench-smoke telemetry-smoke bench-regress metrics-smoke serve-smoke batch-smoke cache-smoke trace-smoke replay-smoke relay-smoke cover-floor

# One benchmark per paper figure/claim plus micro-benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate the paper's evaluation at full scale (tables + CSV).
figures:
	$(GO) run ./cmd/aabench -fig all -ext -rom -trials 1000 -csv results

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/cachepartition
	$(GO) run ./examples/hosting
	$(GO) run ./examples/cloudbroker
	$(GO) run ./examples/onlinerebalance
	$(GO) run ./examples/heterogeneous

cover:
	$(GO) test -cover ./...

clean:
	rm -f aabench
	rm -rf results
