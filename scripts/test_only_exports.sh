#!/usr/bin/env bash
# test_only_exports.sh — production packages keep only code a program
# runs. Every exported func or method declared in a non-test Go file
# under internal/ must be named by non-test Go somewhere in the repo
# (cmd/, examples/, perfbench/, aa.go and internal/ itself all count;
# comments are stripped, and the declaration does not name itself).
# A name only tests call belongs in a _test.go file or nowhere. Methods
# of unexported types are skipped (only an interface reaches them), and
# so are methods the standard library calls through its interfaces
# (Unwrap through errors.Is, Len/Less/Swap through sort, ...).
#
# Names are matched as whole words, so a same-named field or method
# elsewhere hides an unused one: the scan errs toward passing.
# The allowlist below holds the reference oracles that tests compare
# against and no program calls; an entry the scan no longer flags fails
# too, so the list cannot go stale. Prints each unlisted name (as
# file: pkg.Name or pkg.Type.Method) and exits 1 if one appears.
set -euo pipefail
cd "$(dirname "$0")/.."

# name  reason (one line each)
allowlist="$(cat <<'EOF'
check.Differential        the differential-verification oracle: every figure workload solved and cross-checked, run by the check-smoke tests
core.HasPartition         the PARTITION decision oracle beside the NP-hardness reduction (paper Theorem 1), run by its tests
cachesim.OfflineReference the full offline profiling pipeline the adaptive controller is measured against in its tests
EOF
)"

# Methods the standard library calls through an interface.
stdlib_methods="Error String Unwrap Is As Format GoString MarshalJSON UnmarshalJSON MarshalText UnmarshalText ServeHTTP Read Write Close Len Less Swap Push Pop"

# strip prints a Go file with its comments removed and its string and
# rune literals kept, so a "//" inside a literal is not a comment.
strip() {
    perl -0777 -pe 's{("(?:[^"\\\n]|\\.)*"|`[^`]*`|'"'"'(?:[^'"'"'\\\n]|\\.)*'"'"')|//[^\n]*|/\*.*?\*/}{defined $1 ? $1 : ""}gse' "$1"
}

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# all holds every non-test file with comments stripped; decls lists
# "file pkg name receiver" for every func declaration in them, so each
# declaration can be discounted from its name's word count.
git ls-files '*.go' | grep -v '_test\.go$' | while read -r f; do
    strip "$f" >"$tmp/src"
    cat "$tmp/src" >>"$tmp/all"
    echo >>"$tmp/all"
    pkg="$(basename "$(dirname "$f")")"
    perl -ne 'print "'"$f $pkg"' $2 ", ($1 // ""), "\n" if /^func\s+(?:\(\s*(?:\w+\s+)?\*?(\w+)[^)]*\)\s*)?(\w+)\s*[\[(]/' "$tmp/src" >>"$tmp/decls"
done

grep -oE '\b[A-Za-z_][A-Za-z0-9_]*\b' "$tmp/all" | sort | uniq -c >"$tmp/words"

flagged="$(awk -v stdlib="$stdlib_methods" '
    BEGIN { n = split(stdlib, s, " "); for (i = 1; i <= n; i++) iface[s[i]] = 1; n = 0 }
    NR == FNR { uses[$2] = $1; next }
    {
        decls[$3]++
        if ($1 !~ /^internal\// || $3 !~ /^[A-Z]/ || ($4 != "" && ($4 !~ /^[A-Z]/ || $3 in iface))) next
        key = $2 "." ($4 != "" ? $4 "." : "") $3
        cand[++n] = $1 ": " key; name[n] = $3
    }
    END { for (i = 1; i <= n; i++) if (uses[name[i]] <= decls[name[i]]) print cand[i] }
' "$tmp/words" "$tmp/decls" | sort)"

allowed="$(echo "$allowlist" | awk '{ print $1 }' | sort)"
unlisted="$(echo "$flagged" | awk 'NR == FNR { ok[$1] = 1; next } $0 != "" && !($2 in ok)' <(echo "$allowed") -)"
stale="$(comm -23 <(echo "$allowed") <(echo "$flagged" | awk '{ print $2 }' | sort))"

status=0
if [ -n "$unlisted" ]; then
    echo "test_only_exports: FAIL: exported names in internal/ that no non-test Go file names (delete them or move them into a _test.go file):" >&2
    echo "$unlisted" >&2
    status=1
fi
if [ -n "$stale" ]; then
    echo "test_only_exports: FAIL: allowlisted names the scan no longer flags (drop them from the allowlist):" >&2
    echo "$stale" >&2
    status=1
fi
[ "$status" = 0 ] && echo "test_only_exports: ok ($(wc -l <"$tmp/decls") func declarations, $(echo "$allowed" | wc -l) allowlisted oracles)"
exit "$status"
