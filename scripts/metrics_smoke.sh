#!/usr/bin/env bash
# metrics_smoke.sh — end-to-end check of the live telemetry endpoint.
#
# Starts aabench with -metrics-addr=localhost:0 on a workload large
# enough to still be running when we scrape, waits for the "serving"
# line on stderr to learn the bound port, curls /metrics once, and
# fails unless every required aa_* metric is present in the exposition.
# Run from the repository root; CI runs it after the race tests.
set -euo pipefail
cd "$(dirname "$0")/.."

tmpdir="$(mktemp -d)"
stderr_log="$tmpdir/stderr.log"
metrics="$tmpdir/metrics.txt"
cleanup() {
    [ -n "${pid:-}" ] && kill "$pid" 2>/dev/null || true
    [ -n "${pid:-}" ] && wait "$pid" 2>/dev/null || true
    rm -rf "$tmpdir"
}
trap cleanup EXIT INT TERM

go build -o "$tmpdir/aabench" ./cmd/aabench

# A big enough trial count that the run is alive for the scrape; the
# process is killed once the scrape succeeds, so total cost stays small.
"$tmpdir/aabench" -fig fig1a -trials 2000 -workers 2 \
    -metrics-addr=localhost:0 >/dev/null 2>"$stderr_log" &
pid=$!

# Wait for the bound address to appear on stderr (up to ~10 s).
addr=""
i=0
while [ $i -lt 100 ]; do
    addr="$(sed -n 's|.*serving .* on http://\([^ ]*\)$|\1|p' "$stderr_log" | head -n1)"
    [ -n "$addr" ] && break
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "metrics_smoke: aabench exited before serving" >&2
        cat "$stderr_log" >&2
        exit 1
    fi
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$addr" ]; then
    echo "metrics_smoke: never saw the serving line on stderr" >&2
    cat "$stderr_log" >&2
    exit 1
fi

# Scrape once, with retries while the first solves land.
ok=0
i=0
while [ $i -lt 50 ]; do
    if curl -fsS "http://$addr/metrics" >"$metrics" 2>/dev/null; then
        ok=1
        break
    fi
    sleep 0.1
    i=$((i + 1))
done
if [ "$ok" != 1 ]; then
    echo "metrics_smoke: could not scrape http://$addr/metrics" >&2
    exit 1
fi

status=0
for want in \
    aa_core_superopt_total \
    aa_core_bisection_iterations_total \
    aa_core_linearize_total \
    aa_core_assign2_total \
    aa_pool_submitted_total \
    aa_pool_queue_depth \
    aa_pool_solve_latency_seconds_bucket \
    aa_experiment_points_total \
    aa_experiment_trials_total; do
    if ! grep -q "^$want" "$metrics" && ! grep -q "^${want}{" "$metrics"; then
        echo "metrics_smoke: MISSING $want" >&2
        status=1
    fi
done
if [ "$status" != 0 ]; then
    echo "--- scraped exposition ---" >&2
    cat "$metrics" >&2
    exit 1
fi

echo "metrics_smoke: OK ($(grep -c '^aa_' "$metrics") aa_* sample lines from http://$addr/metrics)"
