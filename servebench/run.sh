#!/usr/bin/env bash
# Build suud, suu-router and the benchmark runner from source, then run
# it. Run from the repository root:
#
#   bash servebench/run.sh --workload hot-hits --seed 1 --seconds 10 --trace 0
#   bash servebench/run.sh --self-test
#
# Build outputs go to $CARGO_TARGET_DIR (default .bench_build); fixtures
# and per-run scratch go to .servebench. The last stdout line is the
# result JSON.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"

cargo build --release --offline -q --manifest-path "$root/Cargo.toml" \
    -p suu-serve --bin suud --bin suu-router
cargo build --release --offline -q --manifest-path "$here/Cargo.toml"

exec "$CARGO_TARGET_DIR/release/servebench" \
    --bin-dir "$CARGO_TARGET_DIR/release" \
    --work-dir "$root/.servebench" \
    --benchmark-json "$root/BENCHMARK.json" \
    "$@"
