#!/usr/bin/env bash
# Builds the benchmark and the cmp-serve binary it drives (release,
# offline), then runs the benchmark with the given arguments.
#
#   bash benchmark/run.sh --workload paper-4c --seed 7 --seconds 30 --trace 0
#   bash benchmark/run.sh run [--trace] [--smoke]
#   bash benchmark/run.sh compare <parent-dir> <change-dir>
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default: target), results to target/benchmark/.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --quiet --release --offline --manifest-path "$here/Cargo.toml"
cargo build --quiet --release --offline --manifest-path "$root/Cargo.toml" \
  -p cmp-serve --bin cmp-serve
exec "$target/release/cmp-benchmark" "$@"
