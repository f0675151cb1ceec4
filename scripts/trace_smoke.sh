#!/usr/bin/env bash
# trace_smoke.sh — end-to-end check of request-scoped tracing.
#
# Builds aaserve and aagen, starts the server with -trace-out on an
# ephemeral port, and solves one instance over HTTP with a
# caller-supplied W3C traceparent header. After a SIGTERM drain the
# server's trace file must be well-formed JSONL (no truncated final
# record), the http.request span must continue the caller's trace and
# parent, the engine.solve span must nest under http.request, and every
# parent_id in the file must resolve — the only edge allowed to point
# outside the file is the caller-supplied one. The response must echo a
# traceparent on the caller's trace. Run from the repository root; CI
# runs it after the serve smoke.
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/lib.sh

# A fixed caller context, so the assertions are deterministic.
caller_trace="4bf92f3577b34da6a3ce929d0e0e4736"
caller_span="00f067aa0ba902b7"
caller_tp="00-$caller_trace-$caller_span-01"

tmpdir="$(mktemp -d)"
stderr_log="$tmpdir/stderr.log"
trace_file="$tmpdir/trace.jsonl"
cleanup() {
    [ -n "${pid:-}" ] && kill "$pid" 2>/dev/null || true
    [ -n "${pid:-}" ] && wait "$pid" 2>/dev/null || true
    rm -rf "$tmpdir"
}
trap cleanup EXIT INT TERM

go build -o "$tmpdir/aaserve" ./cmd/aaserve
go build -o "$tmpdir/aagen" ./cmd/aagen

"$tmpdir/aagen" -dist uniform -m 4 -c 1000 -n 30 -seed 7 >"$tmpdir/instance.json"

"$tmpdir/aaserve" -addr 127.0.0.1:0 -workers 2 -trace-out "$trace_file" \
    2>"$stderr_log" &
pid=$!

wait_listening "$stderr_log" "$pid" \
    "trace_smoke: aaserve exited before listening" \
    "trace_smoke: never saw the listening line on stderr"
addr="$listen_addr"

# Solve with the caller's traceparent; keep the response headers.
if ! curl -fsS -D "$tmpdir/headers.txt" -X POST \
    -H "traceparent: $caller_tp" \
    --data-binary @"$tmpdir/instance.json" \
    "http://$addr/solve" >"$tmpdir/assignment.json"; then
    echo "trace_smoke: solve request failed" >&2
    cat "$stderr_log" >&2
    exit 1
fi

# The response must carry a traceparent continuing the caller's trace.
if ! grep -i "^traceparent: 00-$caller_trace-" "$tmpdir/headers.txt" >/dev/null; then
    echo "trace_smoke: response traceparent missing or off-trace" >&2
    cat "$tmpdir/headers.txt" >&2
    exit 1
fi
grep -iq "^x-request-id:" "$tmpdir/headers.txt" || {
    echo "trace_smoke: response missing X-Request-ID" >&2
    exit 1
}

# Drain: the shutdown path must flush the buffered trace sink, so the
# last JSONL record survives intact.
kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
pid=""
if [ "$rc" != 0 ]; then
    echo "trace_smoke: aaserve exited $rc after SIGTERM" >&2
    cat "$stderr_log" >&2
    exit 1
fi

if command -v python3 >/dev/null 2>&1; then
    python3 - "$trace_file" "$caller_trace" "$caller_span" <<'EOF' || { echo "trace_smoke: bad trace file" >&2; cat "$trace_file" >&2; exit 1; }
import json, sys
path, caller_trace, caller_span = sys.argv[1:4]
spans, ids = [], set()
with open(path) as f:
    for line in f:
        line = line.rstrip("\n")
        if not line:
            continue
        rec = json.loads(line)  # any truncated record fails here
        if rec.get("type") == "span":
            spans.append(rec)
            ids.add(rec["span_id"])
assert spans, "trace file has no spans"

# Every parent resolves in-file, except the caller-supplied edge.
for s in spans:
    parent = s.get("parent_id", "")
    if parent and parent not in ids:
        assert parent == caller_span, \
            f'span {s["name"]} has dangling parent {parent}'

req = [s for s in spans if s["name"] == "http.request"]
assert req, "no http.request span"
r = req[0]
assert r["trace_id"] == caller_trace, f'http.request trace {r["trace_id"]}'
assert r["parent_id"] == caller_span, f'http.request parent {r["parent_id"]}'

solve = [s for s in spans if s["name"] == "engine.solve"
         and s.get("parent_id") == r["span_id"]]
assert solve, "engine.solve not nested under http.request"
assert solve[0]["trace_id"] == caller_trace

dispatch = [s for s in spans if s["name"] == "engine.dispatch"
            and s.get("parent_id") == solve[0]["span_id"]]
assert dispatch, "engine.dispatch not nested under engine.solve"

core = [s for s in spans if s["name"].startswith("core.")
        and s.get("parent_id") == dispatch[0]["span_id"]]
assert core, "no core stage span under engine.dispatch"
print(f"trace_smoke: {len(spans)} spans, caller trace joined through "
      f"http.request -> engine.solve -> {core[0]['name']}")
EOF
else
    # No python3: at least require well-shaped lines on the caller trace.
    grep -q "\"name\":\"http.request\"" "$trace_file" || {
        echo "trace_smoke: no http.request span" >&2
        exit 1
    }
    grep -q "\"trace_id\":\"$caller_trace\"" "$trace_file" || {
        echo "trace_smoke: caller trace id absent from trace file" >&2
        exit 1
    }
fi

echo "trace_smoke: OK ($(wc -l <"$trace_file") trace records from http://$addr)"
