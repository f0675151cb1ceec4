#!/usr/bin/env bash
# batch_stream_smoke.sh — end-to-end check of the streaming /solve/batch
# pipeline.
#
# Builds aaserve and aagen, assembles a multi-megabyte batch of
# generated instances, and checks the streaming contract end to end:
#
#   1. wire compatibility — the streaming response is byte-identical to
#      the four base instances' /solve bodies, each indented one level,
#      framed as the JSON array a json.Encoder would write;
#   2. determinism — the same streaming request twice returns
#      byte-identical bodies;
#   3. bounded memory — the streaming server's peak RSS (VmHWM) stays
#      BELOW the request body size, which buffering the batch could not
#      do (skipped where /proc is unavailable);
#   4. the 413 guard — a server with a small -max-batch-bytes rejects
#      the batch with HTTP 413 and the typed batch_too_large JSON error.
#
# Environment knobs:
#   BATCH_COUNT  instances in the batch (default 400)
#   BATCH_N      threads per instance (default 500)
#
# The defaults build a ~35 MB body — large enough that holding the
# batch in memory would show in VmHWM, small enough for a CI lane.
set -euo pipefail
cd "$(dirname "$0")/.."

BATCH_COUNT="${BATCH_COUNT:-400}"
BATCH_N="${BATCH_N:-500}"

tmpdir="$(mktemp -d)"
pids=()
cleanup() {
    for p in "${pids[@]:-}"; do
        [ -n "$p" ] && kill "$p" 2>/dev/null || true
    done
    for p in "${pids[@]:-}"; do
        [ -n "$p" ] && wait "$p" 2>/dev/null || true
    done
    rm -rf "$tmpdir"
}
trap cleanup EXIT INT TERM

go build -o "$tmpdir/aaserve" ./cmd/aaserve
go build -o "$tmpdir/aagen" ./cmd/aagen

# Four base instances cycled through the batch: distinct solves, cheap
# generation.
for seed in 1 2 3 4; do
    "$tmpdir/aagen" -dist powerlaw -m 8 -c 1000 -n "$BATCH_N" -seed "$seed" \
        >"$tmpdir/inst$seed.json"
done
{
    printf '['
    i=0
    while [ "$i" -lt "$BATCH_COUNT" ]; do
        [ "$i" -gt 0 ] && printf ','
        cat "$tmpdir/inst$(((i % 4) + 1)).json"
        i=$((i + 1))
    done
    printf ']'
} >"$tmpdir/batch.json"
body_bytes="$(wc -c <"$tmpdir/batch.json")"
echo "batch_stream_smoke: batch of $BATCH_COUNT instances, $body_bytes bytes"

# start_server <logfile> [flags...] — starts aaserve on an ephemeral
# port and sets server_addr/server_pid. Runs in the parent shell (no
# command substitution: a subshell's stdout pipe would be held open by
# the backgrounded server, and the pid must land in pids for cleanup).
start_server() {
    local log="$1"
    shift
    "$tmpdir/aaserve" -addr 127.0.0.1:0 -workers 2 "$@" >/dev/null 2>"$log" &
    server_pid=$!
    pids+=("$server_pid")
    server_addr=""
    local i=0
    while [ $i -lt 100 ]; do
        server_addr="$(sed -n 's|.*listening on http://\([^ ]*\)$|\1|p' "$log" | head -n1)"
        [ -n "$server_addr" ] && break
        if ! kill -0 "$server_pid" 2>/dev/null; then
            echo "batch_stream_smoke: aaserve exited before listening" >&2
            cat "$log" >&2
            exit 1
        fi
        sleep 0.1
        i=$((i + 1))
    done
    if [ -z "$server_addr" ]; then
        echo "batch_stream_smoke: never saw the listening line" >&2
        cat "$log" >&2
        exit 1
    fi
}

start_server "$tmpdir/stream.log"
stream_addr="$server_addr" stream_pid="$server_pid"

post_batch() {
    curl -fsS -X POST -H 'Content-Type: application/json' \
        --data-binary @"$tmpdir/batch.json" "http://$1/solve/batch" -o "$2"
}

post_batch "$stream_addr" "$tmpdir/stream_a.json"
post_batch "$stream_addr" "$tmpdir/stream_b.json"

# The expected body: each base instance's /solve answer indented one
# level (every line but the first gains two spaces, no trailing
# newline), cycled in batch order between "[\n  " ... ",\n  " ... "\n]\n".
for seed in 1 2 3 4; do
    curl -fsS -X POST --data-binary @"$tmpdir/inst$seed.json" \
        "http://$stream_addr/solve" -o "$tmpdir/solve$seed.json"
    printf '%s' "$(sed '2,$s/^/  /' "$tmpdir/solve$seed.json")" >"$tmpdir/elem$seed.json"
done
{
    printf '[\n  '
    i=0
    while [ "$i" -lt "$BATCH_COUNT" ]; do
        [ "$i" -gt 0 ] && printf ',\n  '
        cat "$tmpdir/elem$(((i % 4) + 1)).json"
        i=$((i + 1))
    done
    printf '\n]\n'
} >"$tmpdir/expected.json"

if ! cmp -s "$tmpdir/stream_a.json" "$tmpdir/stream_b.json"; then
    echo "batch_stream_smoke: FAIL: repeated streaming responses differ" >&2
    exit 1
fi
if ! cmp -s "$tmpdir/stream_a.json" "$tmpdir/expected.json"; then
    echo "batch_stream_smoke: FAIL: streaming response differs from the /solve answers" >&2
    cmp "$tmpdir/stream_a.json" "$tmpdir/expected.json" >&2 || true
    exit 1
fi

# Bounded memory: after two full-batch streams the server's lifetime
# peak RSS must still be below the size of ONE request body — the
# streaming pipeline never holds the batch.
if [ -r "/proc/$stream_pid/status" ]; then
    hwm_kb="$(awk '/^VmHWM:/ {print $2}' "/proc/$stream_pid/status")"
    hwm_bytes=$((hwm_kb * 1024))
    if [ "$hwm_bytes" -ge "$body_bytes" ]; then
        echo "batch_stream_smoke: FAIL: streaming server peak RSS ${hwm_bytes}B >= body ${body_bytes}B" >&2
        exit 1
    fi
    echo "batch_stream_smoke: peak RSS ${hwm_bytes}B < body ${body_bytes}B"
else
    echo "batch_stream_smoke: /proc unavailable; skipping the RSS bound"
fi

# The 413 guard: a tiny -max-batch-bytes must reject the batch with the
# typed JSON error before solving anything.
start_server "$tmpdir/limited.log" -max-batch-bytes 1000
limited_addr="$server_addr"
code="$(curl -sS -o "$tmpdir/too_large.json" -w '%{http_code}' -X POST \
    -H 'Content-Type: application/json' \
    --data-binary @"$tmpdir/batch.json" "http://$limited_addr/solve/batch")"
if [ "$code" != 413 ]; then
    echo "batch_stream_smoke: FAIL: oversized batch got HTTP $code, want 413" >&2
    cat "$tmpdir/too_large.json" >&2
    exit 1
fi
if ! grep -q '"code": "batch_too_large"' "$tmpdir/too_large.json"; then
    echo "batch_stream_smoke: FAIL: 413 body missing batch_too_large code" >&2
    cat "$tmpdir/too_large.json" >&2
    exit 1
fi

echo "batch_stream_smoke: OK ($BATCH_COUNT instances, stream==/solve, deterministic, RSS-bounded, 413 typed)"
