#!/usr/bin/env bash
# The figure CSVs of `repro --bin all --fast`, working tree against a base
# revision: the check that a change moved no figure.
#
#   scripts/figures.sh --diff REV
#
# Extracts REV with `git archive` into a temp dir and builds its `tm-repro`
# there (release, offline, locked, with its own target dir), builds the
# working tree's the same way in `target/` (or `$CARGO_TARGET_DIR`), runs
# `all --fast` for both, and prints which CSVs differ and every `paper
# check:` line (with its continuation lines) that differs. `lazy_aborts.csv`
# comes from real threads and is exempt. Exits non-zero only when a build or
# a run fails: a difference is for the reader to judge.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${1:-}" != "--diff" ] || [ -z "${2:-}" ]; then
    echo "usage: scripts/figures.sh --diff <rev>" >&2
    exit 2
fi
rev=$2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$rev" | tar -x -C "$tmp/base"

# sweep SRC TARGET OUT: build SRC's repro binaries into TARGET, run the fast
# sweep into OUT, and keep its `paper check:` lines in OUT/checks.txt.
sweep() {
    local src=$1 target=$2 out=$3
    cargo build --release --offline --locked --quiet -p tm-repro \
        --manifest-path "$src/Cargo.toml" --target-dir "$target"
    mkdir -p "$out"
    "$target/release/all" --fast --results-dir "$out" >"$out/stdout.txt" 2>"$out/stderr.txt" ||
        { cat "$out/stderr.txt" >&2; exit 1; }
    awk '/^paper check/ { p = 1; print; next }
         p && /^[[:space:]]+[^[:space:]]/ { print; next }
         { p = 0 }' "$out/stdout.txt" >"$out/checks.txt"
}

sweep "$tmp/base" "$tmp/base/target" "$tmp/before"
sweep . "${CARGO_TARGET_DIR:-target}" "$tmp/after"

same=0
differ=0
# Every CSV either side wrote; one missing on a side counts as differing.
for name in $(ls "$tmp/before" "$tmp/after" | grep '\.csv$' | sort -u); do
    [ "$name" = lazy_aborts.csv ] && continue
    if cmp -s "$tmp/before/$name" "$tmp/after/$name"; then
        same=$((same + 1))
    else
        differ=$((differ + 1))
        echo "differs: $name"
    fi
done
echo "$same CSVs identical, $differ differ (lazy_aborts.csv not compared)"

checks=$(grep -c '^paper check' "$tmp/after/checks.txt" || true)
if diff -u --label "$rev" --label tree "$tmp/before/checks.txt" "$tmp/after/checks.txt"; then
    echo "$checks paper check lines identical"
fi
