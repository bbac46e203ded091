#!/usr/bin/env bash
# Build cfmapd, cfmapd-router and the benchmark from source, then run the
# benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload map-cold --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last line on stdout is the JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --manifest-path Cargo.toml --bin cfmapd --bin cfmapd-router >&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/cfmap-perfbench" --bin-dir "$CARGO_TARGET_DIR/release" "$@"
