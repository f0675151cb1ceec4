#!/usr/bin/env bash
# replay_smoke.sh — the deterministic-replay CI gate.
#
# Builds aareplay and runs the diurnal, flash and failures scenario
# families twice each with the same seed and -canonical (wall-clock
# section stripped), then byte-compares the two reports: any difference
# means the replay pipeline leaked nondeterminism (map-order float
# accumulation, unkeyed randomness, wall-clock in the canonical report)
# and fails the gate. Those three run full-resolve; churn (hybrid,
# drift-heavy) and failures under -policy incremental (the evacuate
# path) cover the incremental reactions. Without a cache the report's
# bound F̂ comes from each full re-solve; churn under -policy
# full-resolve -cache memory (hits and warm starts) covers the path
# where the report computes F̂ itself. A recorded-trace round trip
# rides along as the last family.
#
# Environment knobs:
#   SEED      replay seed (default 1)
#   OUT_DIR   keep the reports here for CI artifact upload
#             (default: a temp dir removed at exit)
set -euo pipefail
cd "$(dirname "$0")/.."

SEED="${SEED:-1}"

tmpdir="$(mktemp -d)"
cleanup() {
    rm -rf "$tmpdir"
}
trap cleanup EXIT INT TERM

out_dir="${OUT_DIR:-$tmpdir/reports}"
mkdir -p "$out_dir"

go build -o "$tmpdir/aareplay" ./cmd/aareplay

run_twice() {
    local name="$1"; shift
    echo "replay_smoke: $name (seed=$SEED) ..."
    "$tmpdir/aareplay" "$@" -seed "$SEED" -canonical -out "$out_dir/$name.a.json" \
        -csv "$out_dir/$name.a.csv"
    "$tmpdir/aareplay" "$@" -seed "$SEED" -canonical -out "$out_dir/$name.b.json" \
        -csv "$out_dir/$name.b.csv"
    if ! cmp -s "$out_dir/$name.a.json" "$out_dir/$name.b.json"; then
        echo "replay_smoke: FAIL: $name reports differ between same-seed runs" >&2
        diff "$out_dir/$name.a.json" "$out_dir/$name.b.json" | head -20 >&2 || true
        exit 1
    fi
    if ! cmp -s "$out_dir/$name.a.csv" "$out_dir/$name.b.csv"; then
        echo "replay_smoke: FAIL: $name trajectories differ between same-seed runs" >&2
        exit 1
    fi
}

run_twice diurnal -scenario diurnal
run_twice flash -scenario flash
run_twice failures -scenario failures
run_twice churn -scenario churn
run_twice failures-incremental -scenario failures -policy incremental
run_twice churn-cached -scenario churn -policy full-resolve -cache memory

# Recorded-trace determinism: the same envelope must replay identically.
cat >"$tmpdir/recorded.json" <<'EOF'
{
  "name": "smoke-recorded", "servers": 3, "capacity": 100, "gridPoints": 16,
  "events": [
    {"t": 1, "kind": "arrive", "id": 0, "v": 4, "w": 2},
    {"t": 2, "kind": "arrive", "id": 1, "v": 3, "w": 1},
    {"t": 3, "kind": "arrive", "id": 2, "v": 5, "w": 3},
    {"t": 4, "kind": "fail", "id": 1},
    {"t": 5, "kind": "drift", "id": 0, "v": 2, "w": 2},
    {"t": 7, "kind": "recover", "id": 1},
    {"t": 9, "kind": "depart", "id": 2}
  ]
}
EOF
run_twice recorded -trace "$tmpdir/recorded.json"

echo "replay_smoke: OK (reports in $out_dir)"
