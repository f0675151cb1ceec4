#!/usr/bin/env bash
# End-to-end benchmark entry point. Run from the repository root:
#
#   bash perfbench/run.sh --workload solve-small --seed 1 --seconds 8 --trace 0
#
# Builds aaserve, aarelay, aareplay and the benchmark client from this
# checkout into .bench_build/ (the Go build cache lives there too, so
# nothing is written outside the checkout), then runs the client, which
# prints one JSON result object as its last line of stdout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ] || [ ! -f "$root/go.mod" ]; then
	echo "perfbench: run from the repository root (need go.mod and perfbench/go.mod)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -o "$out/bin/" ./cmd/aaserve ./cmd/aarelay ./cmd/aareplay >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" -work "$out" "$@"
