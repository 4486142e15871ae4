#!/bin/sh
# unused.sh lists the zero-reference exports: every exported func, or
# exported method on an exported receiver, defined in a non-test file under
# internal/ whose name appears as a whole word on no other line of any .go
# file in the repo (tests and benchmark/ included; comment lines do not
# count, or every doc comment would be a reference). A same-named method on
# another type does count, which keeps implicitly called interface methods
# (Unwrap, String) off the list, and so does a name's own test: deleting
# that export would delete the test. check.sh fails on a non-empty list, so
# a dead export or an API-ladder rung nobody calls cannot quietly regrow.
set -eu
cd "$(dirname "$0")/.."

defs="$(mktemp "${TMPDIR:-/tmp}/unused_defs.XXXXXX")"
trap 'rm -f "$defs"' EXIT
grep -rnE '^func (\([A-Za-z_]+ \*?[A-Z][A-Za-z0-9_]*(\[[^]]*\])?\) )?[A-Z][A-Za-z0-9_]*[[(]' \
        --include='*.go' internal \
    | grep -v '_test\.go:' \
    | sed -E 's/^([^:]+:[0-9]+):func (\([^)]*\) )?([A-Za-z0-9_]+).*/\3 \1/' \
    | sort >"$defs"

# Pass 1 reads the definitions (name, file:line); pass 2 counts, per name,
# the non-comment lines of every .go file that mention it.
find . -name '*.go' -exec cat {} + | awk '
    FILENAME == defs { where[$1] = where[$1] " " $2; next }
    /^[ \t]*\/\// { next }
    {
        n = split($0, w, /[^A-Za-z0-9_]+/)
        split("", seen)
        for (i = 1; i <= n; i++)
            if ((w[i] in where) && !(w[i] in seen)) { seen[w[i]]; lines[w[i]]++ }
    }
    END {
        for (name in where)
            if (lines[name] <= 1) {
                m = split(where[name], at, " ")
                for (j = 1; j <= m; j++) print at[j] ": " name
            }
    }' defs="$defs" "$defs" - | sort
