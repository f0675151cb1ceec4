#!/usr/bin/env bash
# callsites.sh — the call-site rules of DESIGN.md §10. Every solve
# outside internal/core and internal/engine goes through the engine, so
# no other non-test Go file calls core.Assign1 or core.Assign2 directly.
# Every split of a server (or pool) among its threads goes through
# core's per-server split, so no non-test Go file outside internal/alloc,
# internal/core and internal/check calls the water-filling allocator
# (alloc.Concave, ConcaveWith, ConcaveValuesWith). Every read of a
# /solve query key (backend, seed, maxnodes, check, cache, deadline)
# goes through engine.ParseQuery, so no non-test Go file outside
# internal/engine reads one, and node and relay cannot drift apart.
# The relay routes on the queue depth a node's /readyz reports, so no
# non-test Go file outside internal/telemetry requests /metrics/history
# (a string literal naming the path): the routing signal must not drift
# back onto the metrics history ring.
# Prints each offending line and exits 1 if one appears.
set -euo pipefail
cd "$(dirname "$0")/.."

# hits PATTERN DIR... prints the non-comment lines of non-test Go files
# outside the given directories that match PATTERN.
hits() {
    local pattern=$1
    shift
    local excl=()
    for d in "$@"; do
        excl+=(-e "^$d/")
    done
    git ls-files '*.go' |
        grep -v '_test\.go$' |
        grep -v "${excl[@]}" |
        xargs grep -nE "$pattern" |
        grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true
}

status=0
solve="$(hits '\bcore\.Assign[12]\(' internal/core internal/engine)"
if [ -n "$solve" ]; then
    echo "callsites: FAIL: direct core.Assign1/core.Assign2 calls outside internal/core and internal/engine (solve through internal/engine):" >&2
    echo "$solve" >&2
    status=1
fi
split="$(hits '\balloc\.Concave(With|ValuesWith)?\(' internal/alloc internal/core internal/check)"
if [ -n "$split" ]; then
    echo "callsites: FAIL: alloc.Concave* calls outside internal/alloc, internal/core and internal/check (split through core.Workspace.SplitGroup):" >&2
    echo "$split" >&2
    status=1
fi
query="$(hits '\.Get\("(backend|seed|maxnodes|check|cache|deadline)"\)' internal/engine)"
if [ -n "$query" ]; then
    echo "callsites: FAIL: /solve query keys read outside internal/engine (parse them with engine.ParseQuery):" >&2
    echo "$query" >&2
    status=1
fi
history="$(hits '"/metrics/history["?]' internal/telemetry)"
if [ -n "$history" ]; then
    echo "callsites: FAIL: /metrics/history requested outside internal/telemetry (route on the AA-Queue-Depth header of /readyz):" >&2
    echo "$history" >&2
    status=1
fi
[ "$status" = 0 ] && echo "callsites: ok"
exit "$status"
