#!/usr/bin/env bash
# The repo's one-stop verification gate: rustfmt-clean sources, every
# workspace test run once (unit, integration, golden-file and doc
# tests), and warning-free clippy and rustdoc. It is run by hand
# (`bash scripts/check.sh`); README, DESIGN.md § 16 and the verify
# recipe name it as the gate. No CI config or git hook calls it. Why a
# test matters is in its own doc comment.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
# Documentation is part of the API surface: a broken intra-doc link or
# an undocumented public item on the strict modules fails the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet
