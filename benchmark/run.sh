#!/usr/bin/env bash
# Build the benchmark (release) and run it with the arguments given.
#   benchmark/run.sh --workload W --seed N --seconds T --trace 0|1   one run
#   benchmark/run.sh --seed N [--runs K]                             everything
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh --check
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
# Share the root target/ unless the caller chose a target directory.
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --locked --quiet \
  --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/tm-benchmark" "$@"
