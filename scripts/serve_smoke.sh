#!/usr/bin/env bash
# serve_smoke.sh — end-to-end check of the aaserve HTTP service.
#
# Builds aaserve and aagen, starts the server on an ephemeral port,
# generates a figure-corpus instance, POSTs it to /solve with checking
# on, and fails unless the response is a feasible assignment (utility
# within the super-optimal bound, every thread placed) and the live
# /metrics exposition shows the engine pipeline counters, the failure
# counter (after an exhausted node budget) and every solver stage's
# latency histogram moving. Ends
# with a SIGTERM and requires a clean drain. Run from the repository
# root; CI runs it after the metrics smoke.
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/lib.sh

tmpdir="$(mktemp -d)"
stderr_log="$tmpdir/stderr.log"
cleanup() {
    [ -n "${pid:-}" ] && kill "$pid" 2>/dev/null || true
    [ -n "${pid:-}" ] && wait "$pid" 2>/dev/null || true
    rm -rf "$tmpdir"
}
trap cleanup EXIT INT TERM

go build -o "$tmpdir/aaserve" ./cmd/aaserve
go build -o "$tmpdir/aagen" ./cmd/aagen

"$tmpdir/aagen" -dist powerlaw -m 6 -c 1000 -n 40 -seed 5 >"$tmpdir/instance.json"

"$tmpdir/aaserve" -addr 127.0.0.1:0 -workers 2 2>"$stderr_log" &
pid=$!

# Wait for the listening line on stderr (up to ~10 s).
wait_listening "$stderr_log" "$pid" \
    "serve_smoke: aaserve exited before listening" \
    "serve_smoke: never saw the listening line on stderr"
addr="$listen_addr"

# Solve with per-request checking: a non-200 here means the pipeline
# rejected its own solution.
if ! curl -fsS -X POST --data-binary @"$tmpdir/instance.json" \
    "http://$addr/solve?check=1" >"$tmpdir/assignment.json"; then
    echo "serve_smoke: solve request failed" >&2
    cat "$stderr_log" >&2
    exit 1
fi

# The response must place all 40 threads and respect the bound. With
# python3 available we check the numbers; otherwise just the shape.
if command -v python3 >/dev/null 2>&1; then
    python3 - "$tmpdir/assignment.json" <<'EOF' || { echo "serve_smoke: bad assignment" >&2; exit 1; }
import json, sys
a = json.load(open(sys.argv[1]))
assert len(a["server"]) == 40, f'placed {len(a["server"])}/40 threads'
assert len(a["alloc"]) == 40
assert a["utility"] > 0
assert a["utility"] <= a["superOptimalBound"] * (1 + 1e-9), "utility above bound"
EOF
else
    for field in '"server"' '"alloc"' '"utility"' '"superOptimalBound"'; do
        grep -q "$field" "$tmpdir/assignment.json" || {
            echo "serve_smoke: response missing $field" >&2
            exit 1
        }
    done
fi

# A batch solve through the queue.
printf '[%s,%s]' "$(cat "$tmpdir/instance.json")" "$(cat "$tmpdir/instance.json")" \
    >"$tmpdir/batch.json"
if ! curl -fsS -X POST --data-binary @"$tmpdir/batch.json" \
    "http://$addr/solve/batch" >"$tmpdir/batch_out.json"; then
    echo "serve_smoke: batch request failed" >&2
    exit 1
fi

# Algorithm 1 and local search, so every solver stage has run once.
for backend in a1 ls; do
    if ! curl -fsS -o /dev/null -X POST --data-binary @"$tmpdir/instance.json" \
        "http://$addr/solve?backend=$backend"; then
        echo "serve_smoke: $backend solve failed" >&2
        exit 1
    fi
done

# A branch-and-bound solve over a one-node budget fails inside the
# engine: a 422 (the client's own limit), and a counted failure.
code="$(curl -s -o /dev/null -w '%{http_code}' -X POST \
    --data-binary @"$tmpdir/instance.json" "http://$addr/solve?backend=exact&maxnodes=1")"
if [ "$code" != 422 ]; then
    echo "serve_smoke: exhausted node budget answered $code, want 422" >&2
    exit 1
fi

# The live exposition must show the engine pipeline counters and every
# solver stage's latency histogram moving.
curl -fsS "http://$addr/metrics" >"$tmpdir/metrics.txt"
status=0
for want in \
    aa_engine_requests_total \
    aa_engine_solve_latency_seconds_bucket \
    aa_core_superopt_total \
    aa_pool_submitted_total; do
    if ! grep -q "^$want" "$tmpdir/metrics.txt" && ! grep -q "^${want}{" "$tmpdir/metrics.txt"; then
        echo "serve_smoke: MISSING $want" >&2
        status=1
    fi
done
for moved in \
    'aa_engine_requests_total\{backend="assign2"\}' \
    'aa_engine_failures_total\{backend="exact"\}' \
    aa_core_superopt_seconds_count \
    aa_core_assign1_seconds_count \
    aa_core_assign2_seconds_count \
    aa_core_localsearch_seconds_count; do
    if ! grep -Eq "^$moved [1-9]" "$tmpdir/metrics.txt"; then
        echo "serve_smoke: $moved did not move" >&2
        status=1
    fi
done
if [ "$status" != 0 ]; then
    echo "--- scraped exposition ---" >&2
    cat "$tmpdir/metrics.txt" >&2
    exit 1
fi

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
pid=""
if [ "$rc" != 0 ]; then
    echo "serve_smoke: aaserve exited $rc after SIGTERM" >&2
    cat "$stderr_log" >&2
    exit 1
fi

echo "serve_smoke: OK (solve + batch + $(grep -c '^aa_' "$tmpdir/metrics.txt") aa_* sample lines from http://$addr)"
