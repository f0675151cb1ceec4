#!/usr/bin/env bash
# relay_smoke.sh — end-to-end check of the aarelay cluster tier.
#
# Starts three aaserve nodes and an aarelay in front of them, then
# drives the cluster through its contract:
#
#   1. Determinism across the relay: a flash-scenario replay through the
#      relay must produce a byte-identical canonical report to the same
#      replay straight at a single node — even though one node is
#      SIGTERMed mid-replay (failover + client retry must hide it:
#      "failed": 0 in the report).
#   2. Recovery: the killed node restarts on its old address and the
#      relay's prober must return it to the ready set.
#   3. Shared cache: a repeated solve must be answered by the relay
#      cache byte-identically, with aa_cache_hits_total moving on the
#      relay and no extra solve reaching the nodes.
#   4. Least-loaded routing: with one node's solver pool saturated,
#      fresh solves must shift to the other nodes — asserted from each
#      node's own aa_engine_requests_total counters. The nodes run with
#      the default 10 s metrics history, too stale to steer anything:
#      the load signal is the queue depth each node reports in /readyz.
#   5. Failover and rate limiting: a second relay that still counts a
#      stopped node ready must fail over off it, then answer 429 with a
#      Retry-After header once the client's bucket is empty; its
#      aa_relay_* and aa_router_* counters must all have moved.
#   6. One trace tree: the union of the replay client's, the relay's
#      and every node's JSONL trace files must form a single connected
#      tree — every parent span resolves in the union, node requests
#      hang under relay.forward spans, relay requests hang under the
#      client's replay.event spans.
#
# Run from the repository root; CI runs it after the replay smoke.
#
# Environment knobs:
#   SEED      replay seed (default 7)
#   OUT_DIR   keep reports and trace files here for CI artifact upload
#             (default: a temp dir removed at exit)
set -euo pipefail
cd "$(dirname "$0")/.."

SEED="${SEED:-7}"

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

out_dir="${OUT_DIR:-$tmpdir/out}"
mkdir -p "$out_dir"

go build -o "$tmpdir/aaserve" ./cmd/aaserve
go build -o "$tmpdir/aarelay" ./cmd/aarelay
go build -o "$tmpdir/aareplay" ./cmd/aareplay
go build -o "$tmpdir/aagen" ./cmd/aagen

# wait_addr <logfile> <pid>: echo the address from the listening line.
# The log is created by the child's own 2> redirect, after the fork, so
# it may not exist yet on the first poll: wait for it like for the line.
wait_addr() {
    local log="$1" pid="$2" addr="" i=0
    while [ $i -lt 100 ]; do
        if [ -f "$log" ]; then
            addr="$(sed -n 's|.*listening on http://\([^ ]*\)$|\1|p' "$log" | head -n1)"
        fi
        [ -n "$addr" ] && break
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "relay_smoke: process exited before listening" >&2
            cat "$log" >&2
            exit 1
        fi
        sleep 0.1
        i=$((i + 1))
    done
    if [ -z "$addr" ]; then
        echo "relay_smoke: never saw the listening line in $log" >&2
        cat "$log" >&2
        exit 1
    fi
    echo "$addr"
}

# start_node <name> <listen>: leaves the pid in node_pid. Runs in the
# main shell (not a substitution) so the script can wait on it.
start_node() {
    local name="$1" listen="$2"
    "$tmpdir/aaserve" -addr "$listen" -workers 1 -queue 16 \
        -trace-out "$out_dir/$name.jsonl" \
        >/dev/null 2>"$tmpdir/$name.log" &
    node_pid=$!
}

start_node n1 127.0.0.1:0; n1_pid=$node_pid; pids+=("$n1_pid")
start_node n2 127.0.0.1:0; n2_pid=$node_pid; pids+=("$n2_pid")
start_node n3 127.0.0.1:0; n3_pid=$node_pid; pids+=("$n3_pid")
n1="$(wait_addr "$tmpdir/n1.log" "$n1_pid")"
n2="$(wait_addr "$tmpdir/n2.log" "$n2_pid")"
n3="$(wait_addr "$tmpdir/n3.log" "$n3_pid")"

# --- 1a. Single-node baseline: the byte-identity reference. -----------
echo "relay_smoke: baseline replay against $n1 (seed=$SEED) ..."
"$tmpdir/aareplay" -scenario flash -seed "$SEED" -canonical -addr "$n1" \
    -out "$out_dir/baseline.json"

"$tmpdir/aarelay" -addr 127.0.0.1:0 -nodes "$n1,$n2,$n3" \
    -probe-interval 100ms \
    -cache shared -cache-key smoke-secret \
    -trace-out "$out_dir/relay.jsonl" 2>"$tmpdir/relay.log" &
relay_pid=$!
pids+=("$relay_pid")
relay="$(wait_addr "$tmpdir/relay.log" "$relay_pid")"

# --- 1b. Replay through the relay, killing n2 mid-run. ----------------
echo "relay_smoke: replay through relay $relay, killing n2 mid-run ..."
"$tmpdir/aareplay" -scenario flash -seed "$SEED" -canonical -addr "$relay" \
    -trace-out "$out_dir/client.jsonl" -out "$out_dir/relay_run.json" &
replay_pid=$!
sleep 0.5
kill -TERM "$n2_pid" 2>/dev/null || true
rc=0
wait "$replay_pid" || rc=$?
if [ "$rc" != 0 ]; then
    echo "relay_smoke: replay through relay exited $rc" >&2
    cat "$tmpdir/relay.log" >&2
    exit 1
fi
wait "$n2_pid" 2>/dev/null || {
    echo "relay_smoke: n2 did not drain cleanly after SIGTERM" >&2
    exit 1
}
pids=("$n1_pid" "$n3_pid" "$relay_pid") # n2 is gone; keep the rest

if ! grep -q '"failed": 0' "$out_dir/relay_run.json"; then
    echo "relay_smoke: FAIL: solves failed despite failover + retry:" >&2
    grep -o '"failed": [0-9]*' "$out_dir/relay_run.json" | head -1 >&2
    exit 1
fi
if ! cmp -s "$out_dir/baseline.json" "$out_dir/relay_run.json"; then
    echo "relay_smoke: FAIL: relay report differs from single-node baseline" >&2
    diff "$out_dir/baseline.json" "$out_dir/relay_run.json" | head -20 >&2
    exit 1
fi
echo "relay_smoke: relay replay byte-identical to baseline, 0 failed solves"

# --- 2. Restart n2 on its old address; the prober must readmit it. ----
start_node n2b "$n2"
n2_pid=$node_pid
pids+=("$n2_pid")
wait_addr "$tmpdir/n2b.log" "$n2_pid" >/dev/null
i=0
until curl -fsS "http://$relay/nodes" | grep -A2 "\"addr\": \"$n2\"" |
    grep -q '"state": "ready"'; do
    i=$((i + 1))
    if [ $i -gt 50 ]; then
        echo "relay_smoke: FAIL: restarted n2 never returned to ready" >&2
        curl -fsS "http://$relay/nodes" >&2 || true
        exit 1
    fi
    sleep 0.1
done
echo "relay_smoke: restarted n2 back in the ready set"

# --- 3. Shared relay cache: repeat solve served from the relay. -------
"$tmpdir/aagen" -dist powerlaw -m 4 -c 1000 -n 30 -seed 11 >"$tmpdir/repeat.json"
hits_before="$(curl -fsS "http://$relay/metrics" | sed -n 's/^aa_cache_hits_total \([0-9]*\)$/\1/p')"
curl -fsS -X POST --data-binary @"$tmpdir/repeat.json" "http://$relay/solve" \
    >"$tmpdir/repeat.a.json"
curl -fsS -X POST --data-binary @"$tmpdir/repeat.json" "http://$relay/solve" \
    >"$tmpdir/repeat.b.json"
if ! cmp -s "$tmpdir/repeat.a.json" "$tmpdir/repeat.b.json"; then
    echo "relay_smoke: FAIL: cached repeat not byte-identical" >&2
    exit 1
fi
hits_after="$(curl -fsS "http://$relay/metrics" | sed -n 's/^aa_cache_hits_total \([0-9]*\)$/\1/p')"
if [ "${hits_after:-0}" -le "${hits_before:-0}" ]; then
    echo "relay_smoke: FAIL: aa_cache_hits_total did not move ($hits_before -> $hits_after)" >&2
    exit 1
fi
echo "relay_smoke: shared cache hit, byte-identical repeat"

# --- 4. Least-loaded shift away from a saturated node. ----------------
# engine_count <addr>: the node's assign2 request counter (the backend
# quick solves use; the saturating exact solves count separately).
engine_count() {
    curl -fsS "http://$1/metrics" |
        sed -n 's/^aa_engine_requests_total{backend="assign2"} \([0-9]*\)$/\1/p'
}
c1_before="$(engine_count "$n1")"
c2_before="$(engine_count "$n2")"
c3_before="$(engine_count "$n3")"

# Saturate n1's single worker: three branch-and-bound solves, sent
# straight at the node so only the queue depth its /readyz reports (not
# the relay's in-flight count) can steer traffic away. The deadline is
# what bounds them, as it does every backend; the searches also stop
# when their clients are killed below.
"$tmpdir/aagen" -dist powerlaw -m 4 -c 1000 -n 26 -seed 3 >"$tmpdir/slow.json"
slow_pids=()
for _ in 1 2 3; do
    curl -s -o /dev/null -X POST --data-binary @"$tmpdir/slow.json" \
        "http://$n1/solve?backend=exact&deadline=10s" &
    slow_pids+=($!)
done
sleep 0.5 # a few probe sweeps observe n1's queue depth

for i in $(seq 1 12); do
    "$tmpdir/aagen" -dist powerlaw -m 4 -c 1000 -n 20 -seed "$((100 + i))" \
        >"$tmpdir/quick.json"
    curl -fsS -o /dev/null -X POST --data-binary @"$tmpdir/quick.json" \
        "http://$relay/solve"
done

c1="$(( $(engine_count "$n1") - ${c1_before:-0} ))"
c2="$(( $(engine_count "$n2") - ${c2_before:-0} ))"
c3="$(( $(engine_count "$n3") - ${c3_before:-0} ))"
echo "relay_smoke: least-loaded spread with n1 saturated: n1=$c1 n2=$c2 n3=$c3"
if [ "$c1" -gt 2 ] || [ "$((c2 + c3))" -lt 10 ]; then
    echo "relay_smoke: FAIL: traffic did not shift off the saturated node" >&2
    exit 1
fi
for p in "${slow_pids[@]}"; do
    kill "$p" 2>/dev/null || true
    wait "$p" 2>/dev/null || true
done

# --- 5. Failover and rate limiting on a second relay. ----------------
# relay2 fronts n2 and n3 and probes only at startup, so it still counts
# n2 ready after n2 stops: its first request (equal loads, so the tie
# goes to n2, first in -nodes) meets a refused connection, marks n2 down
# and fails over to n3. The client's second request finds its token
# bucket empty.
"$tmpdir/aarelay" -addr 127.0.0.1:0 -nodes "$n2,$n3" \
    -probe-interval 1h -rate 0.5 -burst 1 2>"$tmpdir/relay2.log" &
relay2_pid=$!
pids+=("$relay2_pid")
relay2="$(wait_addr "$tmpdir/relay2.log" "$relay2_pid")"
kill -TERM "$n2_pid" 2>/dev/null || true
wait "$n2_pid" 2>/dev/null || {
    echo "relay_smoke: restarted n2 did not drain cleanly after SIGTERM" >&2
    exit 1
}
pids=("$n1_pid" "$n3_pid" "$relay_pid" "$relay2_pid")
code1="$(curl -s -o /dev/null -w '%{http_code}' -X POST \
    --data-binary @"$tmpdir/repeat.json" "http://$relay2/solve")"
code2="$(curl -s -D "$tmpdir/limited.headers" -o /dev/null -w '%{http_code}' \
    -X POST --data-binary @"$tmpdir/repeat.json" "http://$relay2/solve")"
if [ "$code1" != 200 ] || [ "$code2" != 429 ]; then
    echo "relay_smoke: FAIL: failover/rate limit codes $code1,$code2 (want 200,429)" >&2
    exit 1
fi
grep -iq '^retry-after: [0-9]' "$tmpdir/limited.headers" || {
    echo "relay_smoke: FAIL: 429 without Retry-After" >&2
    cat "$tmpdir/limited.headers" >&2
    exit 1
}
curl -fsS "http://$relay2/metrics" >"$tmpdir/relay2.metrics"
for want in \
    aa_relay_requests_total \
    aa_relay_failovers_total \
    aa_relay_rate_limited_total \
    aa_router_picks_total \
    aa_router_node_failures_total \
    aa_router_probes_total; do
    if ! grep -Eq "^$want [1-9]" "$tmpdir/relay2.metrics"; then
        echo "relay_smoke: FAIL: $want did not move" >&2
        grep '^aa_r' "$tmpdir/relay2.metrics" >&2
        exit 1
    fi
done
echo "relay_smoke: failover off a stopped node, 429 with Retry-After, relay counters moved"

# --- Drain everything so the trace sinks flush. -----------------------
for p in "${pids[@]}"; do
    kill -TERM "$p" 2>/dev/null || true
done
for p in "${pids[@]}"; do
    rc=0
    wait "$p" || rc=$?
    if [ "$rc" != 0 ]; then
        echo "relay_smoke: a process exited $rc after SIGTERM" >&2
        exit 1
    fi
done
pids=()

# --- 6. One connected trace tree across client, relay and nodes. ------
if command -v python3 >/dev/null 2>&1; then
    python3 - "$out_dir/client.jsonl" "$out_dir/relay.jsonl" \
        "$out_dir"/n*.jsonl <<'EOF' || { echo "relay_smoke: bad trace tree" >&2; exit 1; }
import json, sys

def load(path):
    spans = []
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if not line:
                continue
            rec = json.loads(line)  # truncated record fails here
            if rec.get("type") == "span":
                spans.append(rec)
    return spans

client, relay = load(sys.argv[1]), load(sys.argv[2])
nodes = [s for p in sys.argv[3:] for s in load(p)]
union = {s["span_id"] for s in client + relay + nodes}

for s in client + relay + nodes:
    parent = s.get("parent_id", "")
    assert not parent or parent in union, \
        f'span {s["name"]} has dangling parent {parent}'

events = {s["span_id"] for s in client if s["name"] == "replay.event"}
forwards = {s["span_id"] for s in relay if s["name"] == "relay.forward"}
assert events, "client produced no replay.event spans"
assert forwards, "relay produced no relay.forward spans"

relay_reqs = [s for s in relay
              if s["name"] == "http.request" and s.get("parent_id") in events]
assert relay_reqs, "no relay http.request hangs under a client replay.event"
node_reqs = [s for s in nodes
             if s["name"] == "http.request" and s.get("parent_id") in forwards]
assert node_reqs, "no node http.request hangs under a relay.forward"
print(f"relay_smoke: trace tree connected: {len(events)} events, "
      f"{len(relay_reqs)} relayed requests, {len(node_reqs)} node requests, "
      f"{len(union)} spans total")
EOF
else
    echo "relay_smoke: python3 unavailable; skipping trace-tree check"
fi

echo "relay_smoke: OK (artifacts in $out_dir)"
