#!/usr/bin/env bash
# cache_smoke.sh — end-to-end check of the aaserve solve-result cache.
#
# Builds aaserve and aagen, starts the server with -cache memory on an
# ephemeral port, POSTs the same instance twice, and fails unless the
# second response is byte-identical to the first with the
# aa_cache_hits_total counter moved. A ?cache=bypass request must solve
# without touching the cache (bypass counter moves, hit/miss counters
# don't). Run from the repository root; CI runs it after the serve
# smoke.
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

"$tmpdir/aaserve" -addr 127.0.0.1:0 -workers 2 -cache memory -cache-size 64 \
    2>"$stderr_log" &
pid=$!

wait_listening "$stderr_log" "$pid" \
    "cache_smoke: aaserve exited before listening" \
    "cache_smoke: never saw the listening line on stderr"
addr="$listen_addr"

solve() {
    curl -fsS -X POST --data-binary @"$tmpdir/instance.json" "http://$addr/solve$1"
}

# metric NAME — current value of an aa_cache_* counter (0 if absent:
# counters register on first increment).
metric() {
    curl -fsS "http://$addr/metrics" | awk -v n="$1" '$1 == n {print $2}' | head -n1 |
        grep . || echo 0
}

# Populate, then hit: the repeat solve must be byte-identical and
# served from the cache.
solve "" >"$tmpdir/first.json"
solve "" >"$tmpdir/second.json"
if ! cmp -s "$tmpdir/first.json" "$tmpdir/second.json"; then
    echo "cache_smoke: cached response differs from populating one" >&2
    diff "$tmpdir/first.json" "$tmpdir/second.json" >&2 || true
    exit 1
fi
hits="$(metric aa_cache_hits_total)"
misses="$(metric aa_cache_misses_total)"
stores="$(metric aa_cache_stores_total)"
if [ "$hits" != 1 ] || [ "$misses" != 1 ] || [ "$stores" != 1 ]; then
    echo "cache_smoke: counters after populate+repeat: hits=$hits misses=$misses stores=$stores (want 1/1/1)" >&2
    exit 1
fi

# Bypass: solves fine, counts only a bypass.
solve "?cache=bypass" >"$tmpdir/bypass.json"
if ! cmp -s "$tmpdir/first.json" "$tmpdir/bypass.json"; then
    echo "cache_smoke: bypass solve of the same instance returned different bytes" >&2
    exit 1
fi
bypasses="$(metric aa_cache_bypasses_total)"
hits2="$(metric aa_cache_hits_total)"
misses2="$(metric aa_cache_misses_total)"
if [ "$bypasses" != 1 ] || [ "$hits2" != "$hits" ] || [ "$misses2" != "$misses" ]; then
    echo "cache_smoke: bypass touched the cache: bypasses=$bypasses hits=$hits2 misses=$misses2" >&2
    exit 1
fi

kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
pid=""
if [ "$rc" != 0 ]; then
    echo "cache_smoke: aaserve exited $rc after SIGTERM" >&2
    cat "$stderr_log" >&2
    exit 1
fi

echo "cache_smoke: OK (hit byte-identical, hits=$hits misses=$misses bypasses=$bypasses at http://$addr)"
