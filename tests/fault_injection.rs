//! Fault injection: drive the CLI and the library with adversarial
//! inputs and assert typed, panic-free failure.
//!
//! The contract under test (ISSUE 3 tentpole): no combination of CLI
//! arguments or environment variables can reach a panic — every
//! invalid input is either a typed [`coldtall::core::Error`] (library)
//! or an `error: ...` line on stderr with exit code 1 (CLI) — and no
//! evaluation the explorer produces ever carries a NaN field.

use std::process::Command;

use coldtall::cell::{MemoryTechnology, Tentpole};
use coldtall::core::{Error, Explorer, MemoryConfig};
use coldtall::units::Kelvin;

mod support;

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
        &[
            "evaluate",
            "--backend",
            "cryomem",
            "--tech",
            "pcm",
            "--dies",
            "4",
        ],
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
        let (ok, out, err) = run_with_env(
            &["recommend", "--bench", "povray"],
            &[("COLDTALL_THREADS", threads)],
        );
        assert!(
            ok,
            "COLDTALL_THREADS={threads} must not break recommend: {err}"
        );
        assert!(out.contains("77K"), "output unchanged under bad env");
        assert!(
            !err.contains("panicked"),
            "COLDTALL_THREADS={threads} reached a panic: {err}"
        );
        let (ok, out, err) = run_with_env(
            &["replicate", "variation_study"],
            &[("COLDTALL_THREADS", threads)],
        );
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
    assert!(
        err.contains("error: unknown benchmark 'doom'"),
        "stderr: {err}"
    );
    assert!(!err.contains("panicked"));
}

#[test]
fn kelvin_rejects_every_non_physical_temperature() {
    for bad in [
        0.0,
        -1.0,
        -273.15,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ] {
        assert!(
            Kelvin::try_new(bad).is_err(),
            "Kelvin::try_new({bad}) must fail"
        );
    }
    assert!(Kelvin::try_new(f64::MIN_POSITIVE).is_ok(), "tiny but legal");
}

/// The stack height is the one piece of array geometry that outside
/// input names, so every front end rejects an impossible one with a
/// typed error before any panicking array builder sees it: the config
/// front end returns `InvalidDieCount`, and each CLI command that takes
/// `--dies` words it on stderr and exits 1.
#[test]
fn spec_builders_reject_bad_geometry_without_panicking() {
    for dies in [0u8, 9, 16, 255] {
        let err = MemoryConfig::try_design_point("pcm", "optimistic", dies, Kelvin::REFERENCE)
            .expect_err("an impossible stack must be typed");
        assert_eq!(err, Error::InvalidDieCount { dies });
        let flag = dies.to_string();
        for command in ["characterize", "evaluate", "search"] {
            let args = [command, "--tech", "pcm", "--dies", &flag];
            assert_graceful_failure(&args);
            let (_, _, err) = run_with_env(&args, &[]);
            assert!(
                err.starts_with(&format!(
                    "error: --dies: the study stacks 1, 2, 4, or 8 dies, got {dies}\n"
                )),
                "coldtall {args:?}: {err}"
            );
        }
    }
    // The happy path still works after all those failed requests.
    let tall = MemoryConfig::try_design_point("pcm", "optimistic", 8, Kelvin::REFERENCE)
        .expect("8 dies is a study stack");
    assert_eq!(tall.dies(), 8);
    let (ok, out, err) = run_with_env(&["characterize", "--tech", "pcm", "--dies", "8"], &[]);
    assert!(ok, "characterize --dies 8 must succeed: {err}");
    assert!(!out.is_empty());
}

#[test]
fn config_and_benchmark_lookups_are_typed() {
    for dies in [0u8, 3, 6, 12, 200] {
        let err = MemoryConfig::try_design_point("pcm", "optimistic", dies, Kelvin::REFERENCE)
            .expect_err("a die count outside 1/2/4/8 must be typed");
        assert_eq!(err, Error::InvalidDieCount { dies });
    }
    for name in ["", "flash", "dram4", "SRAM ", "🦀"] {
        assert!(
            MemoryConfig::parse_technology(name).is_err(),
            "tech {name:?}"
        );
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

/// A design point no backend claims — SRAM above the 400 K span, a
/// 2-die 1T1C-eDRAM stack — is a typed [`Error::NoBackend`] from the
/// dispatch rule, plan compilation and every fallible one-cell entry,
/// never a panic.
///
/// [`Error::NoBackend`]: coldtall::core::Error::NoBackend
#[test]
fn unclaimed_points_are_no_backend_on_the_one_cell_entries() {
    use coldtall::core::{Error, SweepPlan};
    let explorer = Explorer::with_defaults();
    for config in [
        MemoryConfig::volatile_2d(MemoryTechnology::Sram, Kelvin::new(500.0)),
        MemoryConfig::envm_3d(MemoryTechnology::Edram1T1C, Tentpole::Optimistic, 2),
    ] {
        let label = config.label();
        let err = explorer.backends().resolve(&config).unwrap_err();
        assert!(matches!(err, Error::NoBackend { .. }), "{label}: {err}");
        assert!(
            err.to_string().contains("no characterization backend"),
            "{label}: {err}"
        );
        let err = SweepPlan::new(vec![MemoryConfig::sram_350k(), config.clone()])
            .compile(explorer.backends())
            .unwrap_err();
        assert!(matches!(err, Error::NoBackend { .. }), "{label}: {err}");
        let err = explorer.try_evaluate(&config, "namd").unwrap_err();
        assert!(matches!(err, Error::NoBackend { .. }), "{label}: {err}");
        let err = explorer.try_characterize(&config).unwrap_err();
        assert!(matches!(err, Error::NoBackend { .. }), "{label}: {err}");
    }
    assert_eq!(
        explorer.cached_characterizations(),
        0,
        "nothing was published"
    );
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
/// run identical; a failure reproduces from the seed alone. No mutated
/// line may panic: a store line replays or counts as skipped, and a
/// request line gets a typed answer. Requests drawn from a menu of
/// field values reach both frontends, which must agree.
mod fuzz {
    use super::support;
    use coldtall::array::OrgGeometry;
    use coldtall::cell::{MemoryTechnology, Tentpole};
    use coldtall::core::{Backend, DesignPointKey, Explorer, MemoryConfig};
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
    /// Requests drawn for both frontends.
    const DRAWN: usize = 3000;
    /// The commands and fields a drawn request picks from, with names
    /// neither frontend knows.
    const COMMANDS: [&str; 6] = [
        "characterize",
        "evaluate",
        "sweep",
        "search",
        "status",
        "teleport",
    ];
    const FIELDS: [&str; 11] = [
        "tech",
        "tentpole",
        "dies",
        "temp",
        "bench",
        "temps",
        "max_latency",
        "max_area",
        "min_lifetime",
        "max_power",
        "benhc",
    ];
    /// Values of a text field.
    const TEXTS: [&str; 12] = [
        "sram", "stt-ram", "pcm", "pess", "hopeful", "mcf", "doom", "study", "77:400", "4", "",
        "a\"b",
    ];
    /// Values of a numeric field: the spellings JSON's number grammar
    /// reads, and the ones it refuses.
    const NUMBERS: [&str; 30] = [
        "4", "4.0", "2", "8", "3", "0", "-0", "255", "256", "2.5", "-1", "77", "77.5", "1e2",
        "1.1", "1e-400", "1e400", "-1e400", "+4", "inf", "-inf", "nan", "NaN", "0x10", "four", "",
        " 4", "true", "null", "[4]",
    ];

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
                .record(7, &char_key, Backend::CryoMem, &array)
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
        // Each drawn value spelled as CLI text and as its JSON literal:
        // both frontends build the same request, or both refuse. A field
        // is drawn once per request: both frontends refuse a repeat
        // before the table reads it.
        let mut built = 0;
        for _ in 0..DRAWN {
            let cmd = COMMANDS[below(&mut rng, COMMANDS.len())];
            let mut fields: Vec<(&str, &str)> = Vec::new();
            for _ in 0..below(&mut rng, 4) {
                let field = FIELDS[below(&mut rng, FIELDS.len())];
                let menu: &[&str] = if support::NUMERIC_FIELDS.contains(&field) {
                    &NUMBERS
                } else {
                    &TEXTS
                };
                let value = menu[below(&mut rng, menu.len())];
                if fields.iter().all(|&(drawn, _)| drawn != field) {
                    fields.push((field, value));
                }
            }
            let cli = support::cli_request(cmd, &fields);
            let line = support::wire_line(cmd, &fields);
            match (&cli, parse_request(&line)) {
                (Ok(cli), Ok(wire)) => {
                    assert_eq!(*cli, wire.request, "{line}");
                    built += 1;
                }
                (Err(_), Err(_)) => {}
                (_, wire) => panic!("{cmd} {fields:?}: the CLI builds {cli:?}, {line} {wire:?}"),
            }
        }
        assert!(
            (DRAWN / 5..DRAWN * 4 / 5).contains(&built),
            "{built} of {DRAWN} drawn requests built: the menu must mix both outcomes"
        );
    }
}
