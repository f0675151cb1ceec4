#!/usr/bin/env bash
# callsites.sh — the call-site rule of DESIGN.md §10: every solve outside
# internal/core and internal/engine goes through the engine, so no other
# non-test Go file calls core.Assign1 or core.Assign2 directly. Prints
# each offending line and exits 1 if one appears.
set -euo pipefail
cd "$(dirname "$0")/.."

hits="$(git ls-files '*.go' |
    grep -v '_test\.go$' |
    grep -v -e '^internal/core/' -e '^internal/engine/' |
    xargs grep -nE '\bcore\.Assign[12]\(' |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)"

if [ -n "$hits" ]; then
    echo "callsites: FAIL: direct core.Assign1/core.Assign2 calls outside internal/core and internal/engine (solve through internal/engine):" >&2
    echo "$hits" >&2
    exit 1
fi
echo "callsites: ok"
