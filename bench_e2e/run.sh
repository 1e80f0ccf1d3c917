#!/usr/bin/env bash
# Builds the release `coldtall` CLI and the benchmark harness from this
# checkout, then runs the harness with the given arguments:
#
#   bash bench_e2e/run.sh --workload cli --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the last line of stdout is the JSON result.
# Artifacts land in $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin coldtall >&2
cargo build --release --offline --quiet --manifest-path bench_e2e/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/bench_e2e" "$@"
