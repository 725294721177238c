#!/usr/bin/env bash
# Net Rust outside tests, per crate: the number ROADMAP's simplicity items
# gate on ("net Rust outside tests clearly negative").
#
#   scripts/loc.sh              per-crate count of the working tree
#   scripts/loc.sh --diff REV   per-crate delta, working tree minus REV
#
# Counted: every `src/**/*.rs` of the root package and of each `crates/*`
# member (binaries under `src/bin` included), up to but not including the
# file's first `#[cfg(test)]` whose next line opens a `mod` (the unit-test
# module). A `#[cfg(test)]` on any other item skips only itself and the
# item's first line (a test-only `use`). Not counted: `tests/`, `examples/`,
# `benchmark/`, `shims/`, and — because a refactor must not score by
# reflowing or deleting prose — blank lines and comment-only lines.
set -euo pipefail
cd "$(dirname "$0")/.."

# count_tree DIR: print "<crate> <lines>" for every crate under DIR.
count_tree() {
    local root=$1 crate src
    for src in "$root"/src "$root"/crates/*/src; do
        [ -d "$src" ] || continue
        crate=${src#"$root"/}
        crate=${crate%/src}
        [ "$crate" = src ] && crate=.
        find "$src" -name '*.rs' -print0 | while IFS= read -r -d '' file; do
            awk '
                /^[[:space:]]*#\[cfg\(test\)\]/ {
                    if ((getline item) > 0 && item ~ /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]/) exit
                    next
                }
                /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
                { n++ }
                END { print n + 0 }' "$file"
        done | awk -v crate="$crate" '{ n += $1 } END { print crate, n + 0 }'
    done
}

if [ "${1:-}" = "--diff" ]; then
    rev=${2:?usage: scripts/loc.sh --diff <rev>}
    base=$(mktemp -d)
    trap 'rm -rf "$base"' EXIT
    git archive "$rev" src crates | tar -x -C "$base"
    count_tree "$base" >"$base/before"
    # A crate present on one side only counts as 0 on the other.
    printf '%-18s %8s %8s %7s\n' crate "$rev" tree delta
    count_tree . | awk '
        NR == FNR { before[$1] = $2; seen[$1] = 1; next }
        { after[$1] = $2; seen[$1] = 1 }
        END {
            for (c in seen) {
                d = after[c] - before[c]
                if (d != 0) printf "%-18s %8d %8d %+7d\n", c, before[c], after[c], d
            }
        }' "$base/before" - | sort |
        awk '{ print; total += $4 } END { printf "%-18s %8s %8s %+7d\n", "workspace", "", "", total }'
else
    count_tree . | awk '
        { printf "%-18s %8d\n", $1, $2; total += $2 }
        END { printf "%-18s %8d\n", "workspace", total }'
fi
