#!/usr/bin/env bash
# metric_readers.sh — every aa_* metric has a reader. Each name that
# non-test Go outside perfbench/ registers (a literal passed to
# Counter, Gauge, Histogram or Label) must be named by a script under
# scripts/, a _test.go file, perfbench/ or cmd/aabench; a histogram
# counts as read through its _bucket, _sum or _count series too.
# cmd/aaserve/metrics_test.go lists every name the node exposes, so it
# is not counted as a reader. Prints each unread name and exits 1 if one
# appears.
set -euo pipefail
cd "$(dirname "$0")/.."

registered="$(git ls-files '*.go' |
    grep -v -e '_test\.go$' -e '^perfbench/' |
    xargs grep -hPzo '(?:Counter|Gauge|Histogram|Label)\(\s*"\Kaa_[a-z0-9_]+' |
    tr '\0' '\n' | sort -u)"

readers="$( (git ls-files 'scripts/*' 'perfbench/*' 'cmd/aabench/*'
    git ls-files '*_test.go') |
    grep -v -e '^scripts/metric_readers\.sh$' -e '^cmd/aaserve/metrics_test\.go$' |
    sort -u)"

unread=""
for name in $registered; do
    if ! echo "$readers" | xargs grep -qE "\\b${name}(_bucket|_sum|_count)?\\b"; then
        unread="$unread$name"$'\n'
    fi
done

if [ -n "$unread" ]; then
    echo "metric_readers: FAIL: aa_* metrics registered but read by no script, test, perfbench or aabench (delete them or add a reader):" >&2
    printf '%s' "$unread" >&2
    exit 1
fi
echo "metric_readers: ok ($(echo "$registered" | wc -l) names)"
