#!/usr/bin/env bash
# coverage_floor.sh — per-package statement-coverage floors.
#
# Runs go test -coverprofile on the packages named in FLOORS and fails
# if any drops below its committed floor. The floors are set a few
# points under the measured coverage at the time they were added — the
# gate catches coverage erosion, not day-to-day noise. Profiles are
# written under COVER_DIR for CI artifact upload.
#
# Environment knobs:
#   COVER_DIR  where to write coverage profiles (default: coverage/)
set -euo pipefail
cd "$(dirname "$0")/.."

COVER_DIR="${COVER_DIR:-coverage}"
mkdir -p "$COVER_DIR"

tmp="$(mktemp)"
cleanup() {
    rm -f "$tmp"
}
trap cleanup EXIT INT TERM

# package floor%
FLOORS="
./internal/replay 82
./internal/online 85
./internal/telemetry 85
./internal/cache 85
./internal/router 85
./internal/ratelimit 85
./internal/engine 85
./internal/solverpool 94
./internal/instio 85
./internal/core 89
./internal/hetero 91
"

fail=0
while read -r pkg floor; do
    [ -z "$pkg" ] && continue
    name="$(basename "$pkg")"
    profile="$COVER_DIR/$name.out"
    go test -count=1 -coverprofile="$profile" "$pkg" >"$tmp" 2>&1 || {
        cat "$tmp" >&2
        exit 1
    }
    pct="$(go tool cover -func="$profile" | awk '/^total:/ {gsub(/%/, "", $3); print $3}')"
    if awk -v p="$pct" -v f="$floor" 'BEGIN { exit !(p < f) }'; then
        echo "coverage_floor: FAIL: $pkg at ${pct}%, floor ${floor}%" >&2
        fail=1
    else
        echo "coverage_floor: $pkg ${pct}% (floor ${floor}%)"
    fi
done <<EOF2
$FLOORS
EOF2

exit "$fail"
