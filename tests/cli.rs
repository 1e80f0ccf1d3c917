//! Integration tests of the `coldtall` command-line tool.

use std::process::Command;

fn run(args: &[&str]) -> (bool, String, String) {
    run_with_env(args, &[])
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let (ok, out, _err) = run(&[]);
    assert!(!ok);
    assert!(out.contains("USAGE"));
}

#[test]
fn help_succeeds() {
    let (ok, out, _) = run(&["help"]);
    assert!(ok);
    assert!(out.contains("characterize"));
}

#[test]
fn list_shows_suite_and_configs() {
    let (ok, out, _) = run(&["list"]);
    assert!(ok);
    assert!(out.contains("mcf"));
    assert!(out.contains("povray"));
    assert!(out.contains("77K 3T-eDRAM"));
}

#[test]
fn characterize_cryo_edram() {
    let (ok, out, _) = run(&["characterize", "--tech", "edram", "--temp", "77"]);
    assert!(ok);
    assert!(out.contains("77K 3T-eDRAM"));
    assert!(out.contains("read latency"));
}

#[test]
fn evaluate_stacked_pcm_on_mcf() {
    let (ok, out, _) = run(&[
        "evaluate", "--bench", "mcf", "--tech", "pcm", "--dies", "8",
    ]);
    assert!(ok);
    assert!(out.contains("8-die PCM"));
    assert!(out.contains("viable"));
}

#[test]
fn recommend_quiet_workload_goes_cryogenic() {
    let (ok, out, _) = run(&["recommend", "--bench", "povray"]);
    assert!(ok);
    assert!(out.contains("77K"), "povray recommendation: {out}");
}

#[test]
fn replicate_table2_prints_three_bands() {
    let (ok, out, _) = run(&["replicate", "table2"]);
    assert!(ok);
    assert!(out.contains("<5e4"));
    assert!(out.contains(">8e6"));
}

/// `coldtall replicate` prints the concatenated goldens in manifest
/// order whatever the thread count, and `--check` agrees.
#[test]
fn replicate_prints_every_golden_byte() {
    let goldens: String = coldtall_bench::ARTIFACTS
        .iter()
        .map(|(name, _)| std::fs::read_to_string(format!("results/{name}.txt")).expect("golden"))
        .collect();
    for threads in ["1", "4"] {
        let (ok, out, err) = run_with_env(&["replicate"], &[("COLDTALL_THREADS", threads)]);
        assert!(ok && out == goldens, "COLDTALL_THREADS={threads}: {err}");
    }
    let (ok, out, err) = run(&["replicate", "--check"]);
    assert!(ok && out == "19 artifacts match results/\n", "{err}");
}

/// `replicate --csv` prints every generator's CSV, in manifest order,
/// and refuses to be combined with `--check`.
#[test]
fn replicate_csv_prints_every_generator_csv() {
    let (ok, out, err) = run(&["replicate", "--csv"]);
    let csv: String = coldtall_bench::ARTIFACTS
        .iter()
        .map(|(_, generate)| generate().to_csv())
        .collect();
    assert!(ok && out == csv, "{err}");
    let (ok, _, err) = run(&["replicate", "--csv", "--check"]);
    assert!(!ok && err.contains("--csv and --check cannot be combined"), "{err}");
}

#[test]
fn backends_command_lists_capabilities() {
    let (ok, out, _) = run(&["backends"]);
    assert!(ok);
    assert!(out.contains("cryomem"), "output: {out}");
    assert!(out.contains("destiny"), "output: {out}");
    assert!(out.contains("60-400 K"), "temperature span shown: {out}");
    assert!(out.contains("1/2/4/8"), "Destiny die counts shown: {out}");
    assert!(out.contains("priority"), "resolution priority shown: {out}");
    // CryoMEM outranks Destiny on their single-die SRAM overlap.
    let priority = |name: &str| -> i32 {
        out.lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split_whitespace().nth(1))
            .unwrap_or_else(|| panic!("no priority cell for {name}: {out}"))
            .parse()
            .unwrap()
    };
    assert!(priority("cryomem") > priority("destiny"), "output: {out}");
}

/// ISSUE 9: single-die SRAM is claimed by both default backends; the
/// priority policy resolves it to CryoMEM. A `--backend` pin never
/// overrides that policy — pinning the losing claimant exits 1, while
/// pinning the winner succeeds.
#[test]
fn backend_pin_on_the_overlap_point_asserts_the_policy_winner() {
    let (ok, out, _) = run(&["characterize", "--tech", "sram", "--backend", "cryomem"]);
    assert!(ok);
    assert!(out.contains("backend           : cryomem"), "output: {out}");

    let (ok, _, err) = run(&["characterize", "--tech", "sram", "--backend", "destiny"]);
    assert!(!ok);
    assert!(
        err.contains("does not serve") && err.contains("cryomem"),
        "stderr: {err}"
    );
}

#[test]
fn backend_pin_matches_and_mismatches() {
    // A correct pin succeeds and the resolved backend is reported.
    let (ok, out, _) = run(&["characterize", "--tech", "edram", "--temp", "77", "--backend", "cryomem"]);
    assert!(ok);
    assert!(out.contains("backend           : cryomem"), "output: {out}");

    // Without a pin, the resolved backend is still reported.
    let (ok, out, _) = run(&["characterize", "--tech", "pcm", "--dies", "4"]);
    assert!(ok);
    assert!(out.contains("backend           : destiny"), "output: {out}");

    // A pin that contradicts the registry's resolution is an error.
    let (ok, _, err) = run(&["characterize", "--tech", "pcm", "--backend", "cryomem"]);
    assert!(!ok);
    assert!(
        err.contains("does not serve") && err.contains("destiny"),
        "stderr: {err}"
    );

    // An unknown backend name is an error, not a silent default.
    let (ok, _, err) = run(&["evaluate", "--backend", "nvsim"]);
    assert!(!ok);
    assert!(err.contains("unknown backend 'nvsim'"), "stderr: {err}");
}

#[test]
fn bad_inputs_are_reported() {
    let (ok, _, err) = run(&["evaluate", "--bench", "doom"]);
    assert!(!ok);
    assert!(err.contains("unknown benchmark"));

    let (ok, _, err) = run(&["characterize", "--tech", "flash"]);
    assert!(!ok);
    assert!(err.contains("unknown technology"));

    let (ok, _, err) = run(&["characterize", "--dies", "3", "--tech", "pcm"]);
    assert!(!ok);
    assert!(err.contains("--dies"));

    let (ok, _, err) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(err.contains("unknown command"));
}

/// 64-bit FNV-1a over `bytes`: pins stdout without committing
/// multi-kilobyte fixtures, as `tests/serve.rs` pins wire bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Fixed invocations and the `(byte length, FNV-1a)` of their stdout.
/// The values were taken from the build whose commands each built
/// their own explorer; running every command through
/// `RequestHandler` must reproduce them exactly.
const STDOUT_PINS: &[(&str, usize, u64)] = &[
    ("list", 2290, 0x2bed_d8cc_3f39_2b97),
    ("backends", 291, 0x9327_ac55_f91e_a607),
    (
        "characterize --tech edram --temp 77",
        346,
        0xa51f_dfb6_be3f_a6be,
    ),
    (
        "characterize --tech pcm --dies 4 --backend destiny",
        352,
        0x80cc_5b6f_96e7_9d68,
    ),
    (
        "evaluate --bench mcf --tech pcm --dies 8",
        266,
        0x39c0_7c55_a744_c408,
    ),
    ("recommend --bench povray", 73, 0xa22f_b1a6_a329_0b2e),
    (
        "recommend --bench mcf --max-area 5",
        82,
        0x7f85_b105_d446_4b0f,
    ),
    ("sweep", 2547, 0x48bc_f179_ccee_7951),
    ("search --objective power", 2092, 0xbd1f_1eca_d288_b60f),
    (
        "search --tech stt-ram --temps 77:400",
        1264,
        0xefb9_9086_9459_8af2,
    ),
    (
        "search --max-latency 1.0 --max-area 5 --objective area",
        801,
        0xcb7b_252e_1811_e370,
    ),
];

#[test]
fn cli_stdout_bytes_are_pinned() {
    for &(command, len, hash) in STDOUT_PINS {
        let args: Vec<&str> = command.split(' ').collect();
        let (ok, out, err) = run(&args);
        assert!(ok, "coldtall {command}: {err}");
        assert_eq!(
            (out.len(), fnv1a(out.as_bytes())),
            (len, hash),
            "stdout moved for coldtall {command}:\n{out}"
        );
    }
}

/// The serve request line for CLI `args`: the command is `cmd`,
/// `--dies` and `--temp` are numbers, and every other flag is a
/// string field of the same name.
fn wire_line(args: &[&str]) -> String {
    let mut fields = vec![format!("\"cmd\":\"{}\"", args[0])];
    for pair in args[1..].chunks(2) {
        let key = pair[0].trim_start_matches("--");
        let value = match key {
            "dies" | "temp" => pair[1].to_string(),
            _ => format!("\"{}\"", pair[1]),
        };
        fields.push(format!("\"{key}\":{value}"));
    }
    format!("{{{}}}", fields.join(","))
}

/// One table of inputs through both frontends: the binary, and
/// `parse_request` -> `RequestHandler::handle` -> `render_response`.
/// Both must succeed, naming the same configuration (and, for a
/// characterization, the same backend), or both must fail with the
/// CLI's `error:` line containing the wire's error text. Every study
/// point, spelled the way a user types it, characterizes on both.
#[test]
fn cli_and_wire_answer_alike() {
    use coldtall::core::{Explorer, MemoryConfig, RequestHandler};
    use coldtall::obs::json::Value;
    use coldtall::serve::{parse_request, render_parse_error, render_response};

    // Each row with the label a success must carry, where it is known.
    let mut rows: Vec<(String, Option<String>)> = [
        // The study's stacked SRAM is modeled at 350 K only.
        "characterize --tech sram --dies 2",
        "characterize --tech sram --dies 4",
        "characterize --tech sram --dies 8",
        "evaluate --tech sram --dies 2 --bench mcf",
        "characterize --tech sram --dies 4 --temp 77",
        "characterize --temp 0",
        "characterize --temp 20",
        "characterize --tech pcm --tentpole hopeful",
        "characterize --tech pcm --dies 3",
        "characterize --tech edram --dies 8",
        "evaluate --bench doom",
        "search --tech edram --dies 8",
        "search --temps 300:100",
        "search --temps 390:400",
        "search --temps 500",
        "search --temps banana",
    ]
    .map(|row| (row.to_string(), None))
    .to_vec();
    for config in MemoryConfig::study_set() {
        let row = format!(
            "characterize --tech {} --tentpole {} --dies {} --temp {}",
            config.technology().name().to_lowercase(),
            config.tentpole(),
            config.dies(),
            config.temperature().get()
        );
        rows.push((row, Some(config.label())));
    }

    let metrics = coldtall::obs::Registry::new();
    let handler = RequestHandler::new(
        Explorer::with_registry(
            coldtall::tech::ProcessNode::ptm_22nm_hp(),
            coldtall::array::Objective::EnergyDelayProduct,
            &metrics,
        ),
        &metrics,
        None,
    );
    let text = |value: Option<&Value>| match value {
        Some(Value::String(s)) => Some(s.clone()),
        _ => None,
    };
    let mut disagreements = Vec::new();
    for (row, expected) in &rows {
        let args: Vec<&str> = row.split(' ').collect();
        let (cli_ok, out, err) = run(&args);
        let line = wire_line(&args);
        let response = match parse_request(&line) {
            Ok(parsed) => render_response(
                parsed.request.kind(),
                None,
                &handler.handle(&parsed.request),
            ),
            Err(message) => render_parse_error(&message),
        };
        let wire = coldtall::obs::json::parse(&response).expect("responses are JSON");
        let agree = match (cli_ok, wire.get("ok") == Some(&Value::Bool(true))) {
            (true, true) => {
                let result = wire.get("result");
                let label = text(result.and_then(|r| r.get("label")))
                    .or_else(|| text(result.and_then(|r| r.get("row")?.get("config"))));
                let backend = text(result.and_then(|r| r.get("backend")));
                let backend_line = |b| format!("  backend           : {b}\n");
                label.is_some_and(|l| {
                    out.starts_with(&l) && expected.as_ref().is_none_or(|e| *e == l)
                }) && backend.is_none_or(|b| out.contains(&backend_line(b)))
            }
            (false, false) => text(wire.get("error")).is_some_and(|message| {
                err.lines()
                    .any(|l| l.starts_with("error: ") && l.contains(&message))
            }),
            _ => false,
        };
        if !agree {
            disagreements.push(format!(
                "coldtall {row}\n  cli: {out:.80}{err}  wire: {response:.200}"
            ));
        }
    }
    assert!(
        disagreements.is_empty(),
        "the frontends disagree on {} inputs:\n{}",
        disagreements.len(),
        disagreements.join("\n")
    );
}

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

#[test]
fn sweep_summarizes_the_full_study() {
    let (ok, out, _) = run(&["sweep"]);
    assert!(ok);
    assert!(out.contains("713 rows"), "sweep summary: {out}");
    assert!(out.contains("31 configurations x 23 benchmarks"));
    assert!(out.contains("77K 3T-eDRAM"));
}

#[test]
fn warm_start_skips_a_non_utf8_store_line() {
    let mut path = std::env::temp_dir();
    path.push(format!("coldtall-cli-warm-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let store = path.to_str().expect("temp path is UTF-8");
    let (ok, plain, _) = run(&["sweep"]);
    assert!(ok);

    let (ok, cold, err) = run(&["sweep", "--warm-start", store]);
    assert!(ok, "{err}");
    assert_eq!(cold, plain);
    assert!(err.contains("recorded 29 new geometries"), "{err}");
    let mut bytes = std::fs::read(&path).expect("store written");
    assert_eq!(bytes.iter().filter(|&&b| b == b'\n').count(), 29);

    // A line that is not UTF-8 is skipped and counted, never fatal.
    bytes.extend_from_slice(b"\xff\n");
    std::fs::write(&path, &bytes).expect("junk appended");
    let (ok, warm, err) = run(&["sweep", "--warm-start", store]);
    assert!(ok, "a non-UTF-8 store line must not fail the sweep: {err}");
    assert_eq!(
        warm, plain,
        "the warmed sweep prints the plain sweep's bytes"
    );
    assert!(
        err.contains("restored 29 geometries (0 duplicates, 1 skipped)"),
        "{err}"
    );
    assert_eq!(
        std::fs::read(&path).expect("store still there"),
        bytes,
        "every geometry was restored, so nothing is re-appended"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn search_reports_the_frontier_and_work_avoidance() {
    let (ok, out, _) = run(&["search", "--objective", "power"]);
    assert!(ok);
    assert!(out.contains("frontier points over 713 rows"), "search summary: {out}");
    assert!(out.contains("skipped ("), "work-avoidance accounting: {out}");
    assert!(out.contains("best by power:"), "objective pick: {out}");
    // The study set holds a refresh-dead plane (350 K 3T-eDRAM), so
    // the search must report a nonzero skip count.
    assert!(
        !out.contains(" 0 skipped ("),
        "the search must provably skip points on the study set: {out}"
    );
}

#[test]
fn search_constraint_caps_parse_and_screen() {
    let (ok, out, _) = run(&[
        "search",
        "--max-latency",
        "1.0",
        "--max-area",
        "5",
        "--objective",
        "area",
    ]);
    assert!(ok);
    assert!(out.contains("best by area:"), "objective pick: {out}");
    assert!(
        !out.contains("3T-eDRAM"),
        "a 5 mm^2 area cap excludes the 7.54 mm^2 cryogenic eDRAM: {out}"
    );
}

/// The cryo-NVM quick-start from the README: search STT-RAM across
/// the 77-400 K ladder (ISSUE 9). The range form expands over every
/// study temperature inside the bounds.
#[test]
fn search_temps_range_walks_the_cryo_nvm_region() {
    let (ok, out, _) = run(&["search", "--tech", "stt-ram", "--temps", "77:400"]);
    assert!(ok);
    // 2 tentpoles x 4 die counts x 8 ladder temperatures x 23 benchmarks.
    assert!(
        out.contains("over 1472 rows"),
        "the full cryo-STT region searches: {out}"
    );
    assert!(out.contains("STT-RAM"), "frontier holds STT-RAM points: {out}");

    // A sub-range narrows the ladder: 77-130 K keeps 77 and 127 K only.
    let (ok, out, _) = run(&["search", "--tech", "stt-ram", "--temps", "77:130"]);
    assert!(ok);
    assert!(out.contains("over 368 rows"), "two ladder temperatures: {out}");

    // An inverted or out-of-span range is a typed error.
    let (ok, _, err) = run(&["search", "--temps", "300:100"]);
    assert!(!ok);
    assert!(err.contains("60 <= lo <= hi <= 400"), "stderr: {err}");

    // A range holding no ladder temperature names the ladder span.
    let (ok, _, err) = run(&["search", "--temps", "390:400"]);
    assert!(!ok);
    assert!(err.contains("no study temperature"), "stderr: {err}");
}

#[test]
fn search_rejects_bad_regions_objectives_and_flags() {
    // Unknown objective names are typed errors, not defaults.
    let (ok, _, err) = run(&["search", "--objective", "speed"]);
    assert!(!ok);
    assert!(err.contains("unknown objective 'speed'"), "stderr: {err}");

    // A region filter matching nothing is an empty-region error.
    let (ok, _, err) = run(&["search", "--tech", "edram", "--dies", "8"]);
    assert!(!ok);
    assert!(err.contains("contains no design points"), "stderr: {err}");

    // An infeasible-everywhere region is a clean error, not a panic
    // or an empty table.
    let (ok, _, err) = run(&["search", "--tech", "edram", "--temps", "350"]);
    assert!(!ok);
    assert!(err.contains("is feasible"), "stderr: {err}");

    // The strict option grammar applies: unknown flags, missing
    // values, duplicates, and stray positionals are all refused.
    let (ok, _, err) = run(&["search", "--objectiv", "power"]);
    assert!(!ok);
    assert!(err.contains("unknown option '--objectiv'"), "stderr: {err}");
    let (ok, _, err) = run(&["search", "--temps"]);
    assert!(!ok);
    assert!(err.contains("missing value for '--temps'"), "stderr: {err}");
    let (ok, _, err) = run(&["search", "--dies=2", "--dies", "4"]);
    assert!(!ok);
    assert!(err.contains("duplicate option '--dies'"), "stderr: {err}");
    let (ok, _, err) = run(&["search", "study"]);
    assert!(!ok);
    assert!(err.contains("unexpected argument 'study'"), "stderr: {err}");
}

#[test]
fn metrics_are_absent_by_default() {
    let (ok, _, err) = run(&["list"]);
    assert!(ok);
    assert!(err.is_empty(), "no telemetry without --metrics: {err}");
}

#[test]
fn metrics_text_reports_cache_pool_and_spans() {
    let (ok, out, err) = run(&["sweep", "--metrics"]);
    assert!(ok);
    assert!(out.contains("713 rows"), "command output still on stdout");
    for needle in ["cache.hits", "cache.misses", "pool.tasks", "# spans", "characterize"] {
        assert!(err.contains(needle), "metrics text misses {needle}: {err}");
    }
}

#[test]
fn metrics_json_is_parseable_with_required_keys() {
    let (ok, _, err) = run(&["sweep", "--metrics=json"]);
    assert!(ok);
    let parsed = coldtall::obs::json::parse(&err)
        .unwrap_or_else(|e| panic!("--metrics=json stderr is not valid JSON ({e}):\n{err}"));
    let counters = parsed.get("counters").expect("counters section");
    for key in ["cache.hits", "cache.misses", "cache.inserts", "pool.tasks", "sweep.rows"] {
        assert!(counters.get(key).is_some(), "counters missing {key}");
    }
    assert!(
        counters.get("cache.hits").unwrap().as_f64().unwrap() > 0.0,
        "a full sweep must hit the characterization cache"
    );
    let spans = parsed.get("spans").expect("spans section");
    for key in ["characterize", "evaluate", "sweep"] {
        assert!(spans.get(key).is_some(), "spans missing {key}");
    }
    assert!(parsed.get("gauges").is_some(), "gauges section present");
}

/// Regression (ISSUE 3): the old `flag()` scanner silently ignored a
/// trailing option with no value and skipped unknown options entirely,
/// so typos like `--benhc mcf` ran the default benchmark without a
/// word. Strict parsing reports each malformed form on stderr.
#[test]
fn malformed_options_are_rejected_not_ignored() {
    // Trailing option with no value.
    let (ok, _, err) = run(&["characterize", "--tech", "edram", "--temp"]);
    assert!(!ok);
    assert!(err.contains("missing value for '--temp'"), "stderr: {err}");

    // Option whose "value" is the next option.
    let (ok, _, err) = run(&["evaluate", "--bench", "--tech", "pcm"]);
    assert!(!ok);
    assert!(err.contains("missing value for '--bench'"), "stderr: {err}");

    // Misspelled option names must not fall through to defaults.
    let (ok, _, err) = run(&["evaluate", "--benhc", "mcf"]);
    assert!(!ok);
    assert!(err.contains("unknown option '--benhc'"), "stderr: {err}");

    // Options valid for one command are rejected on another.
    let (ok, _, err) = run(&["recommend", "--tech", "pcm"]);
    assert!(!ok);
    assert!(err.contains("unknown option '--tech'"), "stderr: {err}");

    // Stray positional arguments are errors, not noise.
    let (ok, _, err) = run(&["list", "extra"]);
    assert!(!ok);
    assert!(err.contains("unexpected argument 'extra'"), "stderr: {err}");

    // Repeating an option is ambiguous, so it is refused.
    let (ok, _, err) = run(&["characterize", "--temp", "77", "--temp", "300"]);
    assert!(!ok);
    assert!(err.contains("duplicate option '--temp'"), "stderr: {err}");
}

/// `--key=value` parses identically to `--key value`.
#[test]
fn equals_form_options_are_accepted() {
    let (ok, out, _) = run(&["characterize", "--tech=edram", "--temp=77"]);
    assert!(ok);
    assert!(out.contains("77K 3T-eDRAM"));

    let (ok2, out2, _) = run(&["evaluate", "--bench=mcf", "--tech=pcm", "--dies=8"]);
    assert!(ok2);
    assert!(out2.contains("8-die PCM"));
}

/// Regression (ISSUE 3): an invalid `COLDTALL_THREADS` used to be
/// silently replaced by auto-detection. The run must still succeed,
/// but a one-time warning now lands on stderr. An invalid
/// `COLDTALL_CACHE_CAP` used to be dropped without a word by every
/// command but `serve`; it warns the same way.
#[test]
fn invalid_threads_env_warns_once_and_falls_back() {
    for (var, bad) in [
        ("COLDTALL_THREADS", "abc"),
        ("COLDTALL_THREADS", "0"),
        ("COLDTALL_THREADS", "-2"),
        ("COLDTALL_THREADS", "1.5"),
        ("COLDTALL_CACHE_CAP", "abc"),
    ] {
        let (ok, out, err) = run_with_env(&["sweep"], &[(var, bad)]);
        assert!(ok, "sweep must survive {var}={bad}");
        assert!(out.contains("713 rows"), "results unaffected by bad env");
        let warning = format!("ignoring invalid {var}");
        assert!(
            err.contains(&warning),
            "{var}={bad} must warn on stderr, got: {err}"
        );
        assert_eq!(
            err.matches(&warning).count(),
            1,
            "warning must fire exactly once per process"
        );
    }
}

/// A valid thread override stays silent (stderr is reserved for
/// diagnostics, and there is nothing to diagnose).
#[test]
fn valid_threads_env_is_silent() {
    let (ok, _, err) = run_with_env(&["sweep"], &[("COLDTALL_THREADS", "2")]);
    assert!(ok);
    assert!(err.is_empty(), "no warning for a valid override: {err}");
}

/// The acceptance contract of the observability layer: exported
/// counter values are bit-identical between a 1- and a 4-thread run of
/// the inline full-study sweep and of the pooled Monte-Carlo study.
/// (Gauges and span timings are explicitly run-dependent and excluded.)
#[test]
fn metrics_counters_identical_across_thread_counts() {
    for (command, pool_tasks) in [("sweep", 0.0), ("replicate variation_study", 360.0)] {
        let counters = |threads| {
            let args: Vec<&str> = command.split(' ').chain(["--metrics=json"]).collect();
            let (ok, _, err) = run_with_env(&args, &[("COLDTALL_THREADS", threads)]);
            assert!(ok, "{command}: {err}");
            let metrics = coldtall::obs::json::parse(&err).expect("metrics parse");
            metrics.get("counters").cloned().expect("counters section")
        };
        let (counters1, counters4) = (counters("1"), counters("4"));
        assert_eq!(
            counters1, counters4,
            "{command}: counters must be deterministic under any thread count"
        );
        let tasks = counters1.get("pool.tasks").and_then(|v| v.as_f64());
        assert_eq!(tasks, Some(pool_tasks), "{command}");
    }
}

/// Regression (ISSUE 8): `coldtall sweep | head -1` used to panic with
/// "failed printing to stdout: Broken pipe" because Rust ignores
/// `SIGPIPE` and `println!` turns `EPIPE` into a panic. The consumer
/// hanging up early is a satisfied consumer: the command must exit 0
/// with no panic, and skip the `--metrics` report (nobody is
/// listening to the pipeline anymore).
#[test]
fn sweep_into_closed_pipe_exits_cleanly() {
    for command in ["sweep", "replicate fig7"] {
        // The child's stdout is a pipe whose read end is closed before
        // it starts: every write it attempts fails with EPIPE, however
        // little it prints.
        let (reader, writer) = std::io::pipe().expect("pipe opens");
        drop(reader);
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_coldtall"))
            .args(command.split(' '))
            .arg("--metrics")
            .stdout(writer)
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&output.stderr);
        assert!(
            output.status.success(),
            "{command}: a broken pipe must exit 0, got {:?}; stderr: {err}",
            output.status
        );
        assert!(
            !err.contains("panicked"),
            "{command}: no panic on EPIPE: {err}"
        );
        assert!(
            !err.contains("cache."),
            "{command}: metrics are skipped once the consumer is gone: {err}"
        );
    }
}
