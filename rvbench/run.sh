#!/usr/bin/env bash
# Builds the shipped `rvmond` daemon and the benchmark from source, then
# runs one benchmark workload. Run from the repository root:
#
#   bash rvbench/run.sh --workload engine-bloat --seed 1 --seconds 15 --trace 0
#
# Build output goes to stderr; the last stdout line is the result JSON.
# Artifacts land in $CARGO_TARGET_DIR (default .bench_build), run output
# (trace files, scratch daemon roots) in .bench_out.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
repo_dir="$(dirname "$bench_dir")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --release --offline --quiet --manifest-path "$repo_dir/Cargo.toml" --bin rvmond >&2
cargo build --release --offline --quiet --manifest-path "$bench_dir/Cargo.toml" >&2

exec "$CARGO_TARGET_DIR/release/rvbench" --rvmond "$CARGO_TARGET_DIR/release/rvmond" "$@"
