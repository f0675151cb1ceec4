#!/usr/bin/env bash
# Benchmark-regression gate: run the solver-core benchmark matrix (solve,
# superopt, assign1, assign2 across the six figure workloads at n in
# {100, 1k, 10k}, assign2 on an instance that defeats its priced-out
# fast path, the retained reference implementations, the machine
# calibration probe, the zero-alloc session solve, and the solve-cache
# rungs: warm repair vs cold at the core, exact-hit/warm-start/cold
# through the engine), emit a
# BENCH_<rev>.json snapshot, assert the fast-path speedup floor, and —
# when bench/baseline.json exists — fail on any benchmark more than
# MAX_RATIO slower than the calibrated baseline or allocating more.
#
# Environment knobs:
#   BENCHTIME  per-benchmark budget passed to go test (default 100ms)
#   REV        revision label for the snapshot (default: git short hash)
#   OUT        snapshot path (default bench/BENCH_<rev>.json)
#   BASELINE   baseline path (default bench/baseline.json)
#   MAX_RATIO  ns/op regression threshold (default 1.20)
#   EMIT_ONLY  set to 1 to write the snapshot and skip both gates
#   AA_BENCH_1M    set to 1 to add the n=10^6 tier (Assign2 alone and
#                  the full solve); benchgate then requires both to
#                  allocate nothing per op
#   BENCHTIME_1M   per-benchmark budget for the 10^6 tier (default 1x)
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-100ms}"
REV="${REV:-$(git rev-parse --short HEAD 2>/dev/null || echo dev)}"
OUT="${OUT:-bench/BENCH_${REV}.json}"
BASELINE="${BASELINE:-bench/baseline.json}"

mkdir -p bench
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

echo "bench_regress: core benchmarks (benchtime=$BENCHTIME)..."
go test -run '^$' \
  -bench '^Benchmark(Calibrate|SuperOptimal|SuperOptimalRef|Assign1|Assign1Ref|Assign2|Assign2Ref|Assign2Fallback|Solve|Assign2Warm|Assign2WarmColdRef)$' \
  -benchtime "$BENCHTIME" ./internal/core/ | tee -a "$tmp"

if [ "${AA_BENCH_1M:-0}" = 1 ]; then
  echo "bench_regress: million-thread tier (AA_BENCH_1M=1)..."
  AA_BENCH_1M=1 go test -run '^$' \
    -bench '^Benchmark(Assign2Serial1M|Solve1M)$' \
    -benchtime "${BENCHTIME_1M:-1x}" -timeout 30m ./internal/core/ | tee -a "$tmp"
fi

echo "bench_regress: session baseline, engine pipeline and cache benchmarks..."
go test -run '^$' -bench '^Benchmark(SolveSession$|EngineSolve$|Cache(ColdSolve|WarmStart|ExactHit)$)' \
  -benchtime "$BENCHTIME" ./internal/engine/ | tee -a "$tmp"

go run ./cmd/benchgate -emit -rev "$REV" <"$tmp" >"$OUT"
echo "bench_regress: wrote $OUT"

if [ "${EMIT_ONLY:-0}" = 1 ]; then
  exit 0
fi

# Run both gates even when the first fails, so one log always shows
# both outcomes; exit non-zero if either failed.
speedups=0
go run ./cmd/benchgate -speedups -current "$OUT" || speedups=$?

compare=0
if [ -f "$BASELINE" ]; then
  go run ./cmd/benchgate -compare -baseline "$BASELINE" -current "$OUT" \
    -max-ratio "${MAX_RATIO:-1.20}" || compare=$?
else
  echo "bench_regress: no baseline at $BASELINE; skipping compare" \
    "(commit $OUT as bench/baseline.json to arm the gate)"
fi

echo "bench_regress: speedup gate exit $speedups, baseline compare exit $compare"
if [ "$speedups" != 0 ] || [ "$compare" != 0 ]; then
  exit 1
fi
