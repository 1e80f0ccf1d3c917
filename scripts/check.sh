#!/usr/bin/env bash
# The repo's one-stop verification gate: the full test suite (unit,
# integration, golden-file, doc tests) plus a warning-free clippy pass
# over every target. CI, the verify skill, and pre-commit hooks all
# call this script so "green" means the same thing everywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo test -q --workspace
# The adversarial-input gate runs explicitly so a filtered or partial
# test invocation can never silently skip it: no CLI argument or
# environment variable may reach a panic, and no line of a seeded,
# fixed-budget mutation fuzzer over both store formats and the serve
# request line may either.
cargo test -q --test fault_injection
# The perf gate: `Explorer::run`, the one plan executor, must report
# exactly one geometry solve per distinct temperature-stripped
# design-point key (the `geometry.solves` counter over the full study x
# temperature grid) and one dispatch per geometry batch.
# Counter-based, so it cannot flake on machine load the way a
# wall-clock threshold would.
cargo test -q --test batch perf_smoke
# The evaluation-kernel perf gate: on a warm explorer `Explorer::run`
# must be strictly faster per row than the scalar per-cell loop of
# `Explorer::evaluate` (interleaved median timing, so a one-off
# scheduler hiccup lands on both sides alike).
cargo test -q --test eval_batch perf_smoke
# The characterization-kernel perf gate: the multi-temperature stripe
# over pre-solved geometries (what `run` dispatches per geometry batch)
# must beat characterizing each point on its own (a solve plus a
# one-temperature scan per point) per dispatch while staying
# bit-identical (same interleaved-median discipline as the eval gate).
cargo test -q --test batch multi_temperature_stripe_is_faster_than_per_point
# The one organization scan, per point and as a stripe, picks the brute-force argmin over every feasible candidate.
cargo test -q --test batch column_scan_matches_brute_force
# The 360 single-use geometries `variation_study` samples pick the brute-force argmin too.
cargo test -q --test batch variation_study_cells_match_brute_force
# The search's component floors are the brute force's per-field minima, bit for bit.
cargo test -q --test batch floors_are_the_per_field_minima_of_evaluate
# The one fan-out: `dynamic_temperature` never fans out, `variation_study` fans out once (360 tasks, one busy sample per worker).
cargo test -q --test pool_regions
# An invalid `COLDTALL_THREADS` warns exactly once per process, also when the Monte-Carlo study fans out.
cargo test -q --test cli invalid_threads_env_warns_once_and_falls_back
# The thermal schedule warms its candidates as one geometry batch (1 dispatch, 1 solve).
cargo test -q -p coldtall-core candidates_warm_as_one_geometry_batch
# One characterization path: a one-cell miss is a geometry batch of one, so after a plan and after a geometry-store warm start it counts one `geometry.hits` and no solve, and a point no backend claims is `Error::NoBackend` from the dispatch rule, plan compilation, `try_evaluate` and `try_characterize`, never a panic.
cargo test -q --test batch one_cell_misses_reuse_planned_and_warm_started_geometries
cargo test -q --test fault_injection unclaimed_points_are_no_backend_on_the_one_cell_entries
# Table II's modal winner breaks ties by configuration order, never by hash-map iteration order.
cargo test -q -p coldtall-core modal_ties_fall_to_configuration_order
# The warm-start replay gate: a geometry store written by one process
# must restore the full study set into a fresh explorer byte-identically
# with zero geometry solves, and corrupt or stale-epoch lines must be
# skipped, never trusted and never fatal. A store line that is not
# UTF-8 is one more skipped line: a warmed `coldtall sweep` still exits
# 0 with the plain sweep's bytes and re-appends nothing.
cargo test -q -p coldtall-serve geomstore
cargo test -q --test cli warm_start_skips_a_non_utf8_store_line
# The read-count gate: `open` reads a store 0 times, its first replay or scan once, and `Server::start` each store once.
cargo test -q -p coldtall-serve log::tests
cargo test -q -p coldtall-serve start_reads_each_store_once
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
# The incremental-sync gates: the cache cursor is a position in the
# cache's insertion-ordered log, so a walk must offer only the entries
# appended since the last, restart on a cursor from another cache, and
# never hide an entry from a sync racing two publishers; each
# run-registry and geometry-store sync must append exactly the keys new
# since the last, write the same bytes as a full-cache walk, and
# re-offer what a failed append left out. Count- and bytes-based, never
# wall-clock.
cargo test -q -p coldtall-core cursor
cargo test -q -p coldtall-serve sync
# The admission cap is checked under the cache's one write lock, so four
# racing publishers of 100 distinct keys each land exactly 8 under a cap
# of 8 and have the other 392 refused.
cargo test -q -p coldtall-core admission_cap_is_exact_under_concurrent_publishers
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
# The report kernel: `sci` prints every byte its `format!` oracle prints, ties to even.
cargo test -q -p coldtall-core report::tests::sci_matches_format
# The one-buffer `TextTable` renders and exports CSV byte for byte as the nested-`Vec` oracle.
cargo test -q -p coldtall-core report::tests::table_matches_the_nested_vec_oracle
# The store line cap: a run-registry or geometry-store line longer than
# 1 MiB (mid-file, or running to EOF with no newline) is one skipped
# line, never buffered whole, and the records around it still replay.
cargo test -q -p coldtall-serve corrupt
# The store-format pin: fixed run-registry and geometry records must
# write files of pinned byte length and FNV-1a, so a store written by
# one build replays unchanged in the next.
cargo test -q --test serve store_bytes_are_pinned
# The untrusted-input gates: JSON nested past the depth cap, a request
# line past the length cap and a line that is not UTF-8 get typed
# errors on both frontends, and the daemon keeps answering fresh
# requests afterwards (stdin skips the rest of an over-long line in
# capped chunks; TCP closes that connection). The JSON string scan
# copies whole runs (linear time) and must decode exactly as the
# per-char scan did.
cargo test -q -p coldtall-obs nesting_is_capped
cargo test -q -p coldtall-obs string_scan_matches_a_per_char_reference
cargo test -q -p coldtall-serve stdin_hostile_lines_get_typed_errors_and_the_session_continues
cargo test -q -p coldtall-serve read_frame_caps_each_line_at_one_byte_past_the_limit
cargo test -q --test serve hostile_lines
# The resolved-backend bound: with the cache capped at 8 entries, 2,000
# characterize requests at distinct temperatures leave the routing map
# answering for exactly the 8 cached keys, so no client can grow the
# daemon past `--cache-cap`.
cargo test -q -p coldtall-core resolved_backends_are_bounded_by_the_cache_cap
# One front door: CLI stdout bytes stay pinned, the CLI and the wire accept and refuse the same inputs, and the cache cap bounds the search floor cache.
cargo test -q --test cli cli_stdout_bytes_are_pinned
cargo test -q --test cli cli_and_wire_answer_alike
cargo test -q -p coldtall-core floor_cache_is_bounded_by_the_cache_cap
# The geometry-cache bound: a client can name 29 temperature-stripped keys, and at a cap of 8 every study point (and each again at 77 K) leaves at most 8 geometries with answers equal to an uncapped handler's.
cargo test -q -p coldtall-core geometry_cache_is_bounded_by_the_cache_cap
# Hybrid partitions are memoized per (configuration, capacity): the same hybrid on another benchmark characterizes nothing and answers as a fresh explorer does.
cargo test -q -p coldtall-core another_benchmark_on_the_same_hybrid_characterizes_nothing
# The cryo-NVM gates: every study artifact (including the Δ(T)
# STT-MRAM region study) must regenerate byte-identically to its
# golden under results/, and the adaptive search over the cryo-STT
# region (77-387 K x 1-8 dies, both tentpoles) must match the
# exhaustive sweep's frontier bit-for-bit while still skipping work.
cargo test -q --test golden_results artifacts_match_golden_files
cargo test -q --test search cryo_stt_region_search_matches_exhaustive
# The same bytes through the CLI: `replicate --check` passes here, `replicate` prints every golden and keeps its counters at 1 and 4 threads, `--csv` prints the generators' CSV, and a closed pipe exits 0.
cargo run -q --bin coldtall -- replicate --check
cargo test -q --test cli replicate
cargo test -q --test cli metrics_counters_identical_across_thread_counts
cargo test -q --test cli sweep_into_closed_pipe_exits_cleanly
cargo clippy --workspace --all-targets -- -D warnings
# Documentation is part of the API surface: a broken intra-doc link or
# an undocumented public item on the strict modules fails the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet
