#!/usr/bin/env bash
# The repo's one-stop verification gate: the full test suite (unit,
# integration, golden-file, doc tests) plus a warning-free clippy pass
# over every target. CI, the verify skill, and pre-commit hooks all
# call this script so "green" means the same thing everywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo test -q
# The adversarial-input gate runs explicitly so a filtered or partial
# test invocation can never silently skip it: no CLI argument or
# environment variable may reach a panic, and no line of a seeded,
# fixed-budget mutation fuzzer over both store formats and the serve
# request line may either.
cargo test -q --test fault_injection
# The perf gate: the batched execution paths must report exactly one
# geometry solve per distinct temperature-stripped design-point key
# (the `geometry.solves` counter over the full study x temperature
# grid). Counter-based, so it cannot flake on machine load the way a
# wall-clock threshold would.
cargo test -q --test batch perf_smoke
# The evaluation-kernel perf gate: on a warm explorer the batched
# evaluation path must be strictly faster per row than the scalar
# per-row loop (interleaved median timing, so a one-off scheduler
# hiccup lands on both sides alike).
cargo test -q --test eval_batch perf_smoke
# The characterization-kernel perf gate: the SoA multi-temperature
# stripe over pre-solved geometries must beat the per-point oracle per
# dispatch while staying bit-identical (same interleaved-median
# discipline as the eval gate).
cargo test -q --test batch multi_temperature_stripe_is_faster_than_per_point
# The warm-start replay gate: a geometry store written by one process
# must restore the full study set into a fresh explorer byte-identically
# with zero geometry solves, and corrupt or stale-epoch lines must be
# skipped, never trusted and never fatal. A store line that is not
# UTF-8 is one more skipped line: a warmed `coldtall sweep` still exits
# 0 with the plain sweep's bytes and re-appends nothing.
cargo test -q -p coldtall-serve geomstore
cargo test -q --test cli warm_start_skips_a_non_utf8_store_line
# The adaptive-search gates: the branch-and-bound frontier must be
# bit-identical to the exhaustive extraction (at 1 and 4 pool threads,
# under every constraint combination), and the search must provably
# avoid work — points skipped > 0 with strictly fewer evaluations than
# the grid holds. Counter-based, never wall-clock.
cargo test -q --test search matches_exhaustive
cargo test -q --test search perf_smoke
# The serve gates: the daemon on an ephemeral port must answer
# concurrent TCP clients bit-identically to direct library calls, and a
# registry written by a 4-thread daemon must replay into a 1-thread
# daemon whose sweep is byte-identical (the registry-replay golden
# check). Explicit here so a filtered run can never skip the
# subprocess-spawning suite.
cargo test -q --test serve concurrent_tcp_clients_get_bit_identical_responses
cargo test -q --test serve registry_replay_warms_a_fresh_daemon_bit_identically
# The incremental-sync gates: the cache cursor must skip unchanged
# shards, restart on a cursor from another cache, and never hide an
# entry from a sync racing two publishers; each run-registry and
# geometry-store sync must append exactly the keys new since the last,
# write the same bytes as a full-cache walk, and re-offer what a failed
# append left out. Count- and bytes-based, never wall-clock.
cargo test -q -p coldtall-core cursor
cargo test -q -p coldtall-serve sync
# The wire-bytes pin: fixed request lines (sweep, search, characterize,
# evaluate, a typed error) must render to pinned byte lengths and
# FNV-1a hashes, and the daemon must send exactly those bytes.
cargo test -q -p coldtall-serve proto
cargo test -q --test serve wire_bytes_are_pinned
# The wire-number kernel: every float the protocol prints must be
# byte-identical to `format!("{x}")` over a fixed-seed sample of 1M
# random bit patterns, every biased exponent, powers of ten +-3 ULP,
# integers and the extremes, with exact ties rounding up as std does.
cargo test -q -p coldtall-serve num::tests
# The store line cap: a run-registry or geometry-store line longer than
# 1 MiB (mid-file, or running to EOF with no newline) is one skipped
# line, never buffered whole, and the records around it still replay.
cargo test -q -p coldtall-serve corrupt
# The store-format pin: fixed run-registry and geometry records must
# write files of pinned byte length and FNV-1a, so a store written by
# one build replays unchanged in the next.
cargo test -q --test serve store_bytes_are_pinned
# The untrusted-input gates: JSON nested past the depth cap and a TCP
# request line past the length cap get typed errors, and the daemon
# keeps answering fresh requests afterwards. The JSON string scan
# copies whole runs (linear time) and must decode exactly as the
# per-char scan did.
cargo test -q -p coldtall-obs nesting_is_capped
cargo test -q -p coldtall-obs string_scan_matches_a_per_char_reference
cargo test -q --test serve hostile_lines
# The cryo-NVM gates: every study artifact (including the Δ(T)
# STT-MRAM region study) must regenerate byte-identically to its
# golden under results/, and the adaptive search over the cryo-STT
# region (77-387 K x 1-8 dies, both tentpoles) must match the
# exhaustive sweep's frontier bit-for-bit while still skipping work.
cargo test -q --test golden_results artifacts_match_golden_files
cargo test -q --test search cryo_stt_region_search_matches_exhaustive
cargo clippy --workspace --all-targets -- -D warnings
# Documentation is part of the API surface: a broken intra-doc link or
# an undocumented public item on the strict modules fails the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet
