//! Fault injection: drive the CLI and the library with adversarial
//! inputs and assert typed, panic-free failure.
//!
//! The contract under test (ISSUE 3 tentpole): no combination of CLI
//! arguments or environment variables can reach a panic — every
//! invalid input is either a typed [`coldtall::core::Error`] (library)
//! or an `error: ...` line on stderr with exit code 1 (CLI) — and no
//! evaluation the explorer produces ever carries a NaN field.

use std::process::Command;

use coldtall::array::{ArraySpec, Stacking};
use coldtall::cachesim::LlcTraffic;
use coldtall::cell::{CellModel, MemoryTechnology, Tentpole};
use coldtall::core::{Explorer, MemoryConfig};
use coldtall::tech::ProcessNode;
use coldtall::units::{Capacity, Kelvin};

fn run_with_env(args: &[&str], envs: &[(&str, &str)]) -> (bool, String, String) {
    let mut command = Command::new(env!("CARGO_BIN_EXE_coldtall"));
    command.args(args);
    for (key, value) in envs {
        command.env(key, value);
    }
    let output = command.output().expect("binary runs");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// Asserts the adversarial invocation fails *gracefully*: exit code 1,
/// an `error: ...` diagnostic on stderr, and no panic backtrace.
fn assert_graceful_failure(args: &[&str]) {
    let (ok, _, err) = run_with_env(args, &[]);
    assert!(!ok, "must reject: coldtall {args:?}");
    assert!(
        err.contains("error:"),
        "coldtall {args:?} must explain itself on stderr, got: {err}"
    );
    assert!(
        !err.contains("panicked"),
        "coldtall {args:?} reached a panic: {err}"
    );
}

#[test]
fn hostile_cli_arguments_never_panic() {
    let cases: &[&[&str]] = &[
        // Out-of-range and malformed numeric values, every command.
        &["characterize", "--temp", "0"],
        &["characterize", "--temp", "-77"],
        &["characterize", "--temp", "nan"],
        &["characterize", "--temp", "inf"],
        &["characterize", "--temp", "1e9"],
        &["characterize", "--temp", ""],
        &["characterize", "--dies", "255"],
        &["characterize", "--dies", "-1"],
        &["characterize", "--dies", "two"],
        &["evaluate", "--dies", "0", "--tech", "pcm"],
        &["evaluate", "--bench", "doom3"],
        &["evaluate", "--bench", ""],
        &["evaluate", "--tech", "flash"],
        &["evaluate", "--tentpole", "hopeful"],
        &["recommend", "--bench", "NAMD"],
        &["recommend", "--max-area", "banana"],
        &["recommend", "--max-area", "-1"],
        // Structural abuse of the option grammar.
        &["characterize", "--temp"],
        &["characterize", "--temp", "--tech", "sram"],
        &["characterize", "--temp=77", "--temp", "300"],
        &["evaluate", "--benhc", "mcf"],
        &["sweep", "--bench", "mcf"],
        // `replicate` takes distinct artifact names (Fig. 2 is not one)
        // and two exclusive, valueless switches; `table2` is gone.
        &["replicate", "fig2"],
        &["replicate", "fig1", "fig1"],
        &["replicate", "--csv", "--csv"],
        &["replicate", "--csv", "--check"],
        &["replicate", "--cvs"],
        &["replicate", "--csv=1"],
        &["replicate", "--bench", "namd"],
        &["table2"],
        &["list", "--tech", "sram"],
        // Stacked volatile memories outside the study.
        &["characterize", "--tech", "edram", "--dies", "8"],
        // Backend pinning abuse: unknown names, empty names, a pin
        // that contradicts the registry's resolution, and commands
        // that do not accept the option at all.
        &["characterize", "--backend", "nvsim"],
        &["characterize", "--backend", ""],
        &["characterize", "--backend", "destiny"],
        &["evaluate", "--backend", "cryomem", "--tech", "pcm", "--dies", "4"],
        &["evaluate", "--backend", "CRYOMEM"],
        &["sweep", "--backend", "cryomem"],
        &["recommend", "--backend", "destiny"],
        &["backends", "--tech", "sram"],
        &["backends", "extra-positional"],
        // Adaptive search: unknown objective names, region filters
        // that match nothing, an infeasible-everywhere region (every
        // plane refresh-dead at 350 K), malformed numeric caps, and
        // structural flag abuse.
        &["search", "--objective", "speed"],
        &["search", "--objective", "POWER"],
        &["search", "--objective", ""],
        &["search", "--tech", "edram", "--dies", "8"],
        &["search", "--tech", "flash"],
        &["search", "--tech", "edram", "--temps", "350"],
        &["search", "--temps", "banana"],
        &["search", "--temps", "500"],
        &["search", "--dies", "3"],
        &["search", "--max-latency", "abc"],
        &["search", "--max-power"],
        &["search", "--bench", "namd"],
        &["search", "extra-positional"],
        &["search", "--objective=power", "--objective", "area"],
    ];
    for args in cases {
        assert_graceful_failure(args);
    }
}

/// `replicate --check` where there is no `results/` names what is missing.
#[test]
fn replicate_check_without_results_names_the_missing_file() {
    let dir = std::env::temp_dir().join(format!("coldtall-replicate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let output = Command::new(env!("CARGO_BIN_EXE_coldtall"))
        .args(["replicate", "--check"])
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    let _ = std::fs::remove_dir(&dir);
    let err = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr: {err}");
    assert!(
        err.contains("error: 19 of 19") && err.contains("results/table2.txt: unreadable"),
        "stderr: {err}"
    );
    assert!(!err.contains("panicked"), "stderr: {err}");
}

#[test]
fn hostile_environment_never_breaks_a_run() {
    // Every command must survive garbage COLDTALL_THREADS: warn once,
    // auto-detect, and produce its normal output. The Monte-Carlo study
    // is the one command whose work the thread count reaches.
    let variation = std::fs::read_to_string("results/variation_study.txt").expect("golden");
    for threads in ["garbage", "0", "-4", "184467440737095516160", "³"] {
        let (ok, out, err) =
            run_with_env(&["recommend", "--bench", "povray"], &[("COLDTALL_THREADS", threads)]);
        assert!(ok, "COLDTALL_THREADS={threads} must not break recommend: {err}");
        assert!(out.contains("77K"), "output unchanged under bad env");
        assert!(
            !err.contains("panicked"),
            "COLDTALL_THREADS={threads} reached a panic: {err}"
        );
        let (ok, out, err) =
            run_with_env(&["replicate", "variation_study"], &[("COLDTALL_THREADS", threads)]);
        assert!(
            ok && out == variation && !err.contains("panicked"),
            "COLDTALL_THREADS={threads} broke replicate: {err}"
        );
    }
}

#[test]
fn hostile_env_and_bad_args_compose() {
    // A bad argument with a bad environment still dies with a clean
    // diagnostic, not a panic.
    let (ok, _, err) = run_with_env(
        &["evaluate", "--bench", "doom"],
        &[("COLDTALL_THREADS", "zero")],
    );
    assert!(!ok);
    assert!(err.contains("error: unknown benchmark 'doom'"), "stderr: {err}");
    assert!(!err.contains("panicked"));
}

#[test]
fn kelvin_rejects_every_non_physical_temperature() {
    for bad in [0.0, -1.0, -273.15, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert!(
            Kelvin::try_new(bad).is_err(),
            "Kelvin::try_new({bad}) must fail"
        );
    }
    assert!(Kelvin::try_new(f64::MIN_POSITIVE).is_ok(), "tiny but legal");
}

#[test]
fn spec_builders_reject_bad_geometry_without_panicking() {
    let node = ProcessNode::ptm_22nm_hp();
    let cell = CellModel::tentpole(MemoryTechnology::Pcm, Tentpole::Optimistic, &node);
    let spec = ArraySpec::llc_16mib(cell, &node);
    // The array layer allows any 1-8 die stack (the 1/2/4/8 study set
    // is a core-level restriction); zero and over-tall stacks fail.
    for dies in [0u8, 9, 16, 255] {
        assert!(spec.clone().try_with_dies(dies).is_err(), "dies={dies}");
    }
    // Face-to-face bonding joins exactly two dies.
    assert!(spec.clone().try_with_stacking(Stacking::FaceToFace, 4).is_err());
    assert!(spec.clone().try_with_stacking(Stacking::Planar, 2).is_err());
    // A capacity smaller than one line cannot hold a line.
    assert!(spec.clone().try_with_capacity(Capacity::from_bytes(8)).is_err());
    assert!(spec.clone().try_with_line_bits(0).is_err());
    // The happy path still works after all those failed moves.
    assert!(spec.try_with_dies(8).is_ok());
}

#[test]
fn traffic_rejects_non_finite_and_negative_rates() {
    for (r, w) in [
        (f64::NAN, 0.0),
        (0.0, f64::NAN),
        (f64::INFINITY, 1.0),
        (-1.0, 0.0),
        (0.0, -0.5),
    ] {
        assert!(LlcTraffic::try_new(r, w).is_err(), "({r}, {w}) must fail");
    }
    assert!(LlcTraffic::try_new(0.0, 0.0).is_ok(), "idle is legal");
}

#[test]
fn config_and_benchmark_lookups_are_typed() {
    for dies in [0u8, 3, 6, 12, 200] {
        assert!(
            MemoryConfig::try_envm_3d(MemoryTechnology::Pcm, Tentpole::Optimistic, dies).is_err(),
            "dies={dies}"
        );
    }
    for name in ["", "flash", "dram4", "SRAM ", "🦀"] {
        assert!(MemoryConfig::parse_technology(name).is_err(), "tech {name:?}");
    }
    let explorer = Explorer::with_defaults();
    for name in ["", "doom", "Namd", "namd "] {
        let err = explorer
            .try_evaluate(&MemoryConfig::sram_350k(), name)
            .expect_err("unknown benchmark must be typed");
        assert!(err.to_string().contains("unknown benchmark"), "{err}");
    }
}

/// The finite-or-explicitly-infeasible invariant, swept exhaustively:
/// every row of the full study (including refresh-dead and saturated
/// ones) validates — `INFINITY` sentinels are declared through the
/// feasibility verdict and NaN appears nowhere.
#[test]
fn every_study_row_validates_nan_free() {
    let explorer = Explorer::with_defaults();
    let rows = explorer
        .try_sweep_configs(&MemoryConfig::study_set())
        .expect("full study validates");
    assert_eq!(rows.len(), 31 * 23);
    for row in &rows {
        assert!(
            row.validate().is_ok(),
            "{} on {} violates the invariant",
            row.config_label,
            row.benchmark
        );
        assert!(!row.relative_latency.is_nan());
        assert!(!row.relative_power.is_nan());
        assert!(!row.footprint_mm2.is_nan());
        assert!(!row.lifetime_years.is_nan());
        if row.relative_latency.is_infinite() {
            assert!(
                !row.feasibility.is_serviceable(),
                "{}: an infinite latency must come with an unserviceable verdict",
                row.config_label
            );
        }
    }
}

/// A registry with no backends at all — the worst misconfiguration a
/// library embedder can produce — fails with typed errors at every
/// entry point, never a panic.
#[test]
fn zero_backend_registry_fails_typed_at_every_entry_point() {
    use coldtall::core::{BackendRegistry, Error, SweepPlan};
    let empty = BackendRegistry::new();

    let err = empty.resolve(&MemoryConfig::sram_350k()).unwrap_err();
    assert!(matches!(err, Error::NoBackend { .. }), "{err}");
    assert!(err.to_string().contains("no characterization backend"));

    let err = SweepPlan::study().compile(&empty).unwrap_err();
    assert!(matches!(err, Error::NoBackend { .. }), "{err}");

    let metrics = coldtall::obs::Registry::new();
    let err = Explorer::try_with_backends(
        ProcessNode::ptm_22nm_hp(),
        coldtall::array::Objective::EnergyDelayProduct,
        BackendRegistry::new(),
        &metrics,
    )
    .expect_err("an explorer cannot exist without a baseline backend");
    assert!(matches!(err, Error::NoBackend { .. }), "{err}");
}

/// Adversarial-but-legal corners of the library API: extreme yet valid
/// temperatures evaluate without panicking and produce validated rows.
#[test]
fn extreme_legal_temperatures_evaluate_cleanly() {
    let explorer = Explorer::with_defaults();
    for t in [60.0, 77.0, 150.0, 300.0, 400.0] {
        let temp = Kelvin::try_new(t).expect("legal temperature");
        let config = MemoryConfig::volatile_2d(MemoryTechnology::Sram, temp);
        let row = explorer
            .try_evaluate(&config, "namd")
            .unwrap_or_else(|e| panic!("SRAM at {t} K must evaluate: {e}"));
        assert!(row.validate().is_ok());
    }
}

/// Deterministic mutation fuzzing of the parsers that read bytes from
/// outside the program: both store line formats and the serve request
/// line. A fixed seed and iteration budget (not wall-clock) keep every
/// run identical; a failure reproduces from the seed alone.
mod fuzz {
    use coldtall::array::OrgGeometry;
    use coldtall::cell::{MemoryTechnology, Tentpole};
    use coldtall::core::{DesignPointKey, Explorer, MemoryConfig};
    use coldtall::obs::json;
    use coldtall::serve::{parse_request, render_parse_error, GeometryStore, RunRegistry};
    use coldtall_rng::SmallRng;
    use std::path::PathBuf;

    const SEED: u64 = 0x00c0_1d7a_11f0_22ed;
    /// Store files written per format, and lines per file.
    const FILES: usize = 150;
    const LINES_PER_FILE: usize = 8;
    /// Mutated request lines.
    const REQUESTS: usize = 4000;

    fn temp_path(tag: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("coldtall-fuzz-{tag}-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn below(rng: &mut SmallRng, n: usize) -> usize {
        usize::try_from(rng.gen_range(0..n as u64)).expect("index fits")
    }

    fn pick<'a>(rng: &mut SmallRng, items: &[&'a [u8]]) -> &'a [u8] {
        items[below(rng, items.len())]
    }

    /// Start offsets of `needle` in `line`.
    fn positions(line: &[u8], needle: &[u8]) -> Vec<usize> {
        line.windows(needle.len())
            .enumerate()
            .filter_map(|(i, w)| (w == needle).then_some(i))
            .collect()
    }

    /// The end of the value starting at `from`: the next `,`, `}` or `]`.
    fn value_end(line: &[u8], from: usize) -> usize {
        line[from..]
            .iter()
            .position(|b| matches!(b, b',' | b'}' | b']'))
            .map_or(line.len(), |n| from + n)
    }

    /// Applies one mutation from the menu at a random spot.
    fn mutate(rng: &mut SmallRng, line: &mut Vec<u8>) {
        let at = below(rng, line.len() + 1);
        match rng.gen_range(0..7) {
            // A flipped bit.
            0 if !line.is_empty() => {
                let i = below(rng, line.len());
                line[i] ^= 1 << rng.gen_range(0..8);
            }
            // Truncation: a crash mid-append.
            1 => line.truncate(at),
            // Nesting past the parser's depth cap.
            2 => {
                let depth = 100 + below(rng, 200);
                line.splice(at..at, std::iter::repeat_n(b'[', depth));
            }
            // A value replaced by an oversized number or a non-JSON
            // float literal.
            3 | 4 => {
                let literal = pick(
                    rng,
                    &[
                        b"1e999",
                        b"-1e999",
                        b"1e-400",
                        b"184467440737095516160000",
                        b"99999999999999999999999999999999999999",
                        b"NaN",
                        b"Infinity",
                        b"-Infinity",
                    ],
                );
                let colons = positions(line, b":");
                if colons.is_empty() {
                    line.splice(at..at, literal.iter().copied());
                } else {
                    let start = colons[below(rng, colons.len())] + 1;
                    let end = value_end(line, start);
                    line.splice(start..end, literal.iter().copied());
                }
            }
            // A duplicated key, carrying the same or a later-mutated
            // value.
            5 => {
                let keys = positions(line, b",\"");
                if !keys.is_empty() {
                    let start = keys[below(rng, keys.len())];
                    let end = value_end(line, start + 1);
                    let pair = line[start..end].to_vec();
                    line.splice(start..start, pair);
                }
            }
            // Bytes that are not UTF-8: a stray byte, a truncated
            // sequence, an encoded surrogate, a code point past U+10FFFF.
            _ => {
                let junk = pick(
                    rng,
                    &[b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"],
                );
                line.splice(at..at, junk.iter().copied());
            }
        }
    }

    /// A copy of `seed` with one to three mutations.
    fn mutant(rng: &mut SmallRng, seed: &[u8]) -> Vec<u8> {
        let mut line = seed.to_vec();
        for _ in 0..=rng.gen_range(0..3) {
            mutate(rng, &mut line);
        }
        line
    }

    /// Lines the store reader counts: every line that is not UTF-8
    /// whitespace.
    fn non_blank_lines(file: &[u8]) -> u64 {
        file.split(|&b| b == b'\n')
            .filter(|line| std::str::from_utf8(line).map_or(true, |t| !t.trim().is_empty()))
            .count() as u64
    }

    /// Whether `file` has a line that is exactly `seed`.
    fn holds(file: &[u8], seed: &[u8]) -> bool {
        file.split(|&b| b == b'\n').any(|line| line == seed)
    }

    /// A store file: mutants of `seed`, with intact copies (so dedup
    /// runs) and blank lines mixed in.
    fn store_file(rng: &mut SmallRng, seed: &[u8]) -> Vec<u8> {
        let mut file = Vec::new();
        for _ in 0..LINES_PER_FILE {
            match rng.gen_range(0..8) {
                0 => file.extend_from_slice(seed),
                1 => file.extend_from_slice(b" \t"),
                _ => file.extend(mutant(rng, seed)),
            }
            file.push(b'\n');
        }
        file
    }

    #[test]
    fn mutated_store_lines_are_counted_never_fatal() {
        let explorer = Explorer::with_defaults();
        let registry_path = temp_path("registry");
        let geometry_path = temp_path("geometry");
        // One well-formed line of each format, written by the stores.
        let registry = RunRegistry::open(&registry_path).expect("registry opens");
        let config = MemoryConfig::edram_77k();
        let (char_key, array) = (
            DesignPointKey::of_config(&config),
            explorer.characterize(&config),
        );
        let record_char = |registry: &RunRegistry| {
            registry
                .record(7, &char_key, "cryomem", &array)
                .expect("record appends")
        };
        record_char(&registry);
        let store = GeometryStore::open(&geometry_path).expect("store opens");
        let stacked = MemoryConfig::envm_3d(MemoryTechnology::Pcm, Tentpole::Optimistic, 4);
        let geometry = OrgGeometry::solve(&stacked.to_base_spec(explorer.node()));
        let geom_key = DesignPointKey::geometry_of(&stacked);
        let record_geom =
            |store: &GeometryStore| store.record(&geom_key, &geometry).expect("record appends");
        record_geom(&store);
        let char_seed = std::fs::read(&registry_path).expect("registry written");
        let geom_seed = std::fs::read(&geometry_path).expect("store written");
        let (char_seed, geom_seed) = (char_seed.trim_ascii_end(), geom_seed.trim_ascii_end());

        let mut rng = SmallRng::seed_from_u64(SEED);
        for _ in 0..FILES {
            let file = store_file(&mut rng, char_seed);
            std::fs::write(&registry_path, &file).expect("fuzz file written");
            let registry = RunRegistry::open(&registry_path).expect("open reads any contents");
            let stats = registry
                .replay_into(&explorer)
                .expect("replay reads any contents");
            assert_eq!(
                stats.replayed + stats.duplicates + stats.skipped,
                non_blank_lines(&file),
                "every line is counted once: {stats:?} for {}",
                String::from_utf8_lossy(&file)
            );
            // The replay's dedup set and the one a first `len` scans
            // are the same set.
            let scanned = RunRegistry::open(&registry_path).expect("open reads any contents");
            assert_eq!(registry.len(), scanned.len(), "{stats:?}");
            assert_eq!(registry.len() as u64, stats.replayed, "{stats:?}");
            let wrote = record_char(&registry);
            assert_eq!(record_char(&scanned), wrote, "both sets agree on the seed");
            assert!(
                !(wrote && holds(&file, char_seed)),
                "re-recording the intact seed record appends nothing"
            );

            let file = store_file(&mut rng, geom_seed);
            std::fs::write(&geometry_path, &file).expect("fuzz file written");
            let store = GeometryStore::open(&geometry_path).expect("open reads any contents");
            let stats = store
                .warm_into(&explorer, std::slice::from_ref(&stacked))
                .expect("warm-start reads any contents");
            assert!(
                stats.replayed <= 1,
                "one config restores one geometry: {stats:?}"
            );
            assert!(stats.duplicates + stats.skipped <= non_blank_lines(&file));
            let scanned = GeometryStore::open(&geometry_path).expect("open reads any contents");
            assert_eq!(store.len(), scanned.len(), "{stats:?}");
            let wrote = record_geom(&store);
            assert_eq!(record_geom(&scanned), wrote, "both sets agree on the seed");
            assert!(
                !(wrote && holds(&file, geom_seed)),
                "re-recording the intact seed record appends nothing"
            );
        }
        let _ = std::fs::remove_file(&registry_path);
        let _ = std::fs::remove_file(&geometry_path);
    }

    #[test]
    fn mutated_request_lines_get_typed_answers() {
        let seeds: [&[u8]; 5] = [
            br#"{"cmd":"characterize","tech":"edram","temp":77,"id":"c"}"#,
            br#"{"cmd":"evaluate","tech":"pcm","tentpole":"pess","dies":8,"bench":"namd","id":7}"#,
            br#"{"cmd":"search","tech":"pcm","dies":4,"max_latency":1.1,"max_area":10.0,"min_lifetime":5,"max_power":0.5}"#,
            br#"{"cmd":"sweep","deadline_ms":5000,"id":"s\"1"}"#,
            br#"{"cmd":"status"}"#,
        ];
        let mut rng = SmallRng::seed_from_u64(SEED);
        for i in 0..REQUESTS {
            let line = mutant(&mut rng, seeds[i % seeds.len()]);
            let line = String::from_utf8_lossy(&line);
            match parse_request(&line) {
                // The id fragment is spliced into the response verbatim.
                Ok(parsed) => assert!(
                    parsed
                        .id
                        .as_deref()
                        .is_none_or(|id| json::parse(id).is_ok()),
                    "{line}"
                ),
                Err(message) => assert!(
                    json::parse(&render_parse_error(&message)).is_ok(),
                    "the error response for {line:?} must be JSON"
                ),
            }
        }
    }
}
