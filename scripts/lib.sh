# lib.sh — shell helpers shared by the smoke scripts; source it, do not
# run it.

# wait_listening <log> <pid> <exited-msg> <never-msg>: poll <log> (up
# to ~10 s) for the "listening on http://ADDR" line a server prints on
# stderr, and set listen_addr to ADDR. The log is created by the
# child's own 2> redirect, after the fork, so it may not exist yet on
# the first poll: wait for it like for the line. If <pid> exits first,
# or the line never comes, print the matching message and the log to
# stderr and exit 1.
wait_listening() {
    local log="$1" pid="$2" exited="$3" never="$4" i=0
    listen_addr=""
    while [ $i -lt 100 ]; do
        if [ -f "$log" ]; then
            listen_addr="$(sed -n 's|.*listening on http://\([^ ]*\)$|\1|p' "$log" | head -n1)"
        fi
        [ -n "$listen_addr" ] && return 0
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "$exited" >&2
            cat "$log" >&2
            exit 1
        fi
        sleep 0.1
        i=$((i + 1))
    done
    echo "$never" >&2
    cat "$log" >&2
    exit 1
}
