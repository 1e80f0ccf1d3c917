//! The line-delimited JSON wire protocol.
//!
//! One request per line in, one response per line out — over TCP or
//! stdin alike. Requests parse into the typed
//! [`coldtall_core::Request`]; responses render from the typed
//! [`coldtall_core::ResponsePayload`]. The daemon and the direct
//! library path share this renderer, which is what makes a served
//! response *bit-identical* to a local call: both print the same
//! payload through the same code.
//!
//! Request grammar (unknown fields are rejected, not ignored — a typo
//! like `"benhc"` must never silently default):
//!
//! ```json
//! {"cmd":"characterize","tech":"pcm","tentpole":"optimistic","dies":4,"temp":350}
//! {"cmd":"evaluate","tech":"sram","temp":77,"bench":"namd"}
//! {"cmd":"sweep"}
//! {"cmd":"search","tech":"pcm","max_latency":1.1,"max_area":10.0}
//! {"cmd":"status"}
//! ```
//!
//! Every request may carry `"id"` (string or number, echoed verbatim
//! in the response) and `"deadline_ms"` (per-request budget). Design
//! point fields default to the 350 K 2D SRAM baseline.
//!
//! Responses are `{"ok":true,"cmd":...,"result":{...}}` or
//! `{"ok":false,"cmd":...,"error":"..."}`. Every number is printed by
//! the crate's number kernel, byte for byte what `Display` prints:
//! floats as their shortest round-trip decimal, counts as integers.
//! Non-finite floats (the infinite-latency sentinel) render as the JSON
//! strings `"inf"`, `"-inf"` — JSON numbers cannot carry them.

use std::fmt::Write as _;

use coldtall_array::ArrayCharacterization;
use coldtall_core::{
    Constraints, DesignPoint, Error, LlcEvaluation, Request, ResponsePayload, StatusReport,
};
use coldtall_obs::json::{self, Value};

use crate::num;

/// A parsed request line: the typed request plus its envelope fields.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedRequest {
    /// The typed request.
    pub request: Request,
    /// Client-chosen correlation id, echoed verbatim (already rendered
    /// as a JSON fragment: a quoted string or a bare number).
    pub id: Option<String>,
    /// Per-request deadline in milliseconds.
    pub deadline_ms: Option<u64>,
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a human-readable message for malformed JSON, an unknown
/// `cmd`, unknown fields, or out-of-range field values. The caller
/// wraps it in an error response; parsing never panics on any input.
pub fn parse_request(line: &str) -> Result<ParsedRequest, String> {
    let value = json::parse(line)?;
    let Value::Object(fields) = &value else {
        return Err("request must be a JSON object".to_string());
    };
    let cmd = match fields.get("cmd") {
        Some(Value::String(cmd)) => cmd.as_str(),
        Some(_) => return Err("'cmd' must be a string".to_string()),
        None => return Err("missing 'cmd' field".to_string()),
    };
    let allowed: &[&str] = match cmd {
        "characterize" => &["cmd", "id", "deadline_ms", "tech", "tentpole", "dies", "temp"],
        "evaluate" => &[
            "cmd",
            "id",
            "deadline_ms",
            "tech",
            "tentpole",
            "dies",
            "temp",
            "bench",
        ],
        "sweep" | "status" => &["cmd", "id", "deadline_ms"],
        "search" => &[
            "cmd",
            "id",
            "deadline_ms",
            "tech",
            "dies",
            "max_latency",
            "max_area",
            "min_lifetime",
            "max_power",
        ],
        other => return Err(format!("unknown cmd '{other}'")),
    };
    for key in fields.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(format!("unknown field '{key}' for cmd '{cmd}'"));
        }
    }
    let id = match fields.get("id") {
        None => None,
        Some(Value::String(s)) => Some(format!("\"{}\"", escape(s))),
        Some(Value::Number(n)) if n.is_finite() => {
            let mut id = String::new();
            num::push_f64(&mut id, *n);
            Some(id)
        }
        Some(_) => return Err("'id' must be a string or a finite number".to_string()),
    };
    let deadline_ms = match fields.get("deadline_ms") {
        None => None,
        Some(v) => Some(non_negative_int(v, "deadline_ms")?),
    };
    let request = match cmd {
        "characterize" => Request::Characterize {
            point: design_point(fields)?,
        },
        "evaluate" => Request::Evaluate {
            point: design_point(fields)?,
            benchmark: match fields.get("bench") {
                Some(Value::String(s)) => s.clone(),
                Some(_) => return Err("'bench' must be a string".to_string()),
                None => "namd".to_string(),
            },
        },
        "sweep" => Request::Sweep,
        "status" => Request::Status,
        "search" => {
            let tech = match fields.get("tech") {
                None => None,
                Some(Value::String(s)) => Some(s.clone()),
                Some(_) => return Err("'tech' must be a string".to_string()),
            };
            let dies = match fields.get("dies") {
                None => None,
                Some(v) => Some(u8_field(v, "dies")?),
            };
            let mut constraints = Constraints::none();
            if let Some(v) = fields.get("max_latency") {
                constraints.max_relative_latency = finite_f64(v, "max_latency")?;
            }
            if let Some(v) = fields.get("max_area") {
                constraints.max_area_mm2 = Some(finite_f64(v, "max_area")?);
            }
            if let Some(v) = fields.get("min_lifetime") {
                constraints.min_lifetime_years = finite_f64(v, "min_lifetime")?;
            }
            if let Some(v) = fields.get("max_power") {
                constraints.max_relative_power = Some(finite_f64(v, "max_power")?);
            }
            Request::Search {
                tech,
                dies,
                constraints,
            }
        }
        _ => unreachable!("cmd validated above"),
    };
    Ok(ParsedRequest {
        request,
        id,
        deadline_ms,
    })
}

/// The design-point envelope fields, defaulting to the 350 K SRAM
/// baseline.
fn design_point(
    fields: &std::collections::BTreeMap<String, Value>,
) -> Result<DesignPoint, String> {
    let mut point = DesignPoint::baseline();
    if let Some(v) = fields.get("tech") {
        match v {
            Value::String(s) => point.tech = s.clone(),
            _ => return Err("'tech' must be a string".to_string()),
        }
    }
    if let Some(v) = fields.get("tentpole") {
        match v {
            Value::String(s) => point.tentpole = s.clone(),
            _ => return Err("'tentpole' must be a string".to_string()),
        }
    }
    if let Some(v) = fields.get("dies") {
        point.dies = u8_field(v, "dies")?;
    }
    if let Some(v) = fields.get("temp") {
        point.temperature_kelvin = finite_f64(v, "temp")?;
    }
    Ok(point)
}

fn finite_f64(value: &Value, field: &str) -> Result<f64, String> {
    match value.as_f64() {
        Some(n) if n.is_finite() => Ok(n),
        _ => Err(format!("'{field}' must be a finite number")),
    }
}

fn non_negative_int(value: &Value, field: &str) -> Result<u64, String> {
    match value.as_f64() {
        Some(n) if n.is_finite() && n >= 0.0 && n.fract() == 0.0 && n <= 2.0_f64.powi(53) => {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Ok(n as u64)
        }
        _ => Err(format!("'{field}' must be a non-negative integer")),
    }
}

fn u8_field(value: &Value, field: &str) -> Result<u8, String> {
    let n = non_negative_int(value, field)?;
    u8::try_from(n).map_err(|_| format!("'{field}' is out of range"))
}

/// Escapes a string for embedding in a JSON string literal.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s);
    out
}

/// Appends `s` to `out` escaped for a JSON string literal (without the
/// surrounding quotes). Unescaped runs are copied whole, so a string
/// with nothing to escape — every label, benchmark and backend name the
/// engine produces — costs one scan and one `push_str`.
pub(crate) fn push_escaped(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        if !matches!(byte, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{byte:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// A [`std::fmt::Write`] sink that escapes everything written through
/// it into the wrapped buffer, so `Display` values (feasibility
/// verdicts, error messages) render escaped without an intermediate
/// `String`.
struct Escaping<'a>(&'a mut String);

impl std::fmt::Write for Escaping<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        push_escaped(self.0, s);
        Ok(())
    }
}

/// Appends an `f64` as a JSON fragment: finite values as numbers
/// (the shortest round-trip digits, exactly as `Display` prints them),
/// non-finite sentinels as the strings `"inf"`, `"-inf"`, `"nan"`.
fn push_num(out: &mut String, n: f64) {
    if n.is_finite() {
        num::push_f64(out, n);
    } else if n.is_nan() {
        out.push_str("\"nan\"");
    } else if n > 0.0 {
        out.push_str("\"inf\"");
    } else {
        out.push_str("\"-inf\"");
    }
}

/// Renders one response line (no trailing newline) for a handled
/// request. The daemon and the bit-identity tests both call this, so a
/// served response equals a locally rendered one byte for byte.
#[must_use]
pub fn render_response(
    cmd: &str,
    id: Option<&str>,
    outcome: &Result<ResponsePayload, Error>,
) -> String {
    // Sweep responses are the large ones (hundreds of rows of roughly
    // 350 bytes); reserving up front spares the doubling copies.
    let rows = match outcome {
        Ok(ResponsePayload::Sweep { rows, .. }) => rows.len(),
        _ => 0,
    };
    let mut out = String::with_capacity(256 + rows * 384);
    out.push_str(if outcome.is_ok() {
        "{\"ok\":true,\"cmd\":\""
    } else {
        "{\"ok\":false,\"cmd\":\""
    });
    push_escaped(&mut out, cmd);
    out.push('"');
    if let Some(id) = id {
        out.push_str(",\"id\":");
        out.push_str(id);
    }
    match outcome {
        Ok(payload) => {
            out.push_str(",\"result\":");
            render_payload(&mut out, payload);
            out.push('}');
        }
        Err(error) => {
            out.push_str(",\"error\":\"");
            let _ = write!(Escaping(&mut out), "{error}");
            out.push_str("\"}");
        }
    }
    out
}

/// Renders one parse-failure response line (no trailing newline).
#[must_use]
pub fn render_parse_error(message: &str) -> String {
    let mut out = String::with_capacity(48 + message.len());
    out.push_str("{\"ok\":false,\"cmd\":\"invalid\",\"error\":\"");
    push_escaped(&mut out, message);
    out.push_str("\"}");
    out
}

fn render_payload(out: &mut String, payload: &ResponsePayload) {
    match payload {
        ResponsePayload::Characterization {
            label,
            backend,
            plan_hash,
            characterization,
        } => {
            out.push_str("{\"label\":\"");
            push_escaped(out, label);
            out.push_str("\",\"backend\":\"");
            push_escaped(out, backend);
            let _ = write!(
                out,
                "\",\"plan\":\"{plan_hash:016x}\",\"characterization\":"
            );
            render_characterization(out, characterization);
            out.push('}');
        }
        ResponsePayload::Evaluation { plan_hash, row } => {
            let _ = write!(out, "{{\"plan\":\"{plan_hash:016x}\",\"row\":");
            render_row(out, row);
            out.push('}');
        }
        ResponsePayload::Sweep { plan_hash, rows } => {
            let _ = write!(out, "{{\"plan\":\"{plan_hash:016x}\",\"rows\":");
            num::push_u64(out, rows.len() as u64);
            out.push_str(",\"evaluations\":[");
            for (i, row) in rows.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_row(out, row);
            }
            out.push_str("]}");
        }
        ResponsePayload::Search {
            region,
            plan_hash,
            outcome,
        } => {
            out.push_str("{\"region\":\"");
            push_escaped(out, region);
            let _ = write!(out, "\",\"plan\":\"{plan_hash:016x}\",\"frontier\":[");
            for (i, row) in outcome.frontier.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_row(out, row);
            }
            let stats = &outcome.stats;
            out.push_str("],\"stats\":");
            push_counts(
                out,
                &[
                    ("rows_total", stats.rows_total),
                    ("points_evaluated", stats.points_evaluated),
                    ("points_skipped", stats.points_skipped),
                    ("skipped_infeasible", stats.skipped_infeasible),
                    ("skipped_pruned", stats.skipped_pruned),
                    ("regions_expanded", stats.regions_expanded),
                    ("regions_pruned", stats.regions_pruned),
                    ("regions_refined", stats.regions_refined),
                    ("bounds_computed", stats.bounds_computed),
                ],
            );
            out.push_str(",\"pruned_regions\":");
            num::push_u64(out, outcome.pruned.len() as u64);
            out.push('}');
        }
        ResponsePayload::Status(status) => render_status(out, status),
    }
}

fn render_status(out: &mut String, status: &StatusReport) {
    push_counts(
        out,
        &[
            ("cached_characterizations", status.cached_characterizations as u64),
            ("cached_geometries", status.cached_geometries as u64),
            ("cache_hits", status.cache_hits),
            ("cache_misses", status.cache_misses),
            ("cache_rejected", status.cache_rejected),
            ("cache_approx_bytes", status.cache_approx_bytes),
            ("geometry_solves", status.geometry_solves),
            ("requests_served", status.requests_served),
        ],
    );
}

/// Appends a JSON object of counts, its keys needing no escaping.
fn push_counts(out: &mut String, fields: &[(&str, u64)]) {
    for (i, (key, value)) in fields.iter().enumerate() {
        out.push_str(if i == 0 { "{\"" } else { ",\"" });
        out.push_str(key);
        out.push_str("\":");
        num::push_u64(out, *value);
    }
    out.push('}');
}

/// Renders an [`ArrayCharacterization`] as a JSON object of raw SI
/// numbers (seconds, joules, watts, square meters).
fn render_characterization(out: &mut String, a: &ArrayCharacterization) {
    out.push_str("{\"read_latency_s\":");
    push_num(out, a.read_latency.get());
    out.push_str(",\"write_latency_s\":");
    push_num(out, a.write_latency.get());
    out.push_str(",\"read_energy_j\":");
    push_num(out, a.read_energy.get());
    out.push_str(",\"write_energy_j\":");
    push_num(out, a.write_energy.get());
    out.push_str(",\"leakage_power_w\":");
    push_num(out, a.leakage_power.get());
    out.push_str(",\"refresh_power_w\":");
    push_num(out, a.refresh_power.get());
    out.push_str(",\"refresh_busy_fraction\":");
    push_num(out, a.refresh_busy_fraction);
    out.push_str(",\"retention_s\":");
    match a.retention {
        Some(r) => push_num(out, r.get()),
        None => out.push_str("null"),
    }
    out.push_str(",\"footprint_m2\":");
    push_num(out, a.footprint.get());
    out.push_str(",\"total_silicon_m2\":");
    push_num(out, a.total_silicon.get());
    out.push_str(",\"array_efficiency\":");
    push_num(out, a.array_efficiency);
    out.push_str(",\"organization\":[");
    num::push_u64(out, a.organization.rows().into());
    out.push(',');
    num::push_u64(out, a.organization.cols().into());
    out.push_str("],\"dies\":");
    num::push_u64(out, a.dies.into());
    out.push_str(",\"transfer_bits\":");
    push_num(out, a.transfer_bits);
    out.push_str(",\"read_cycle_s\":");
    push_num(out, a.read_cycle_time.get());
    out.push_str(",\"write_cycle_s\":");
    push_num(out, a.write_cycle_time.get());
    out.push('}');
}

fn render_row(out: &mut String, row: &LlcEvaluation) {
    out.push_str("{\"config\":\"");
    push_escaped(out, &row.config_label);
    out.push_str("\",\"benchmark\":\"");
    push_escaped(out, row.benchmark);
    out.push_str("\",\"device_power_w\":");
    push_num(out, row.device_power.get());
    out.push_str(",\"wall_power_w\":");
    push_num(out, row.wall_power.get());
    out.push_str(",\"relative_power\":");
    push_num(out, row.relative_power);
    out.push_str(",\"relative_latency\":");
    push_num(out, row.relative_latency);
    out.push_str(if row.slowdown {
        ",\"slowdown\":true,\"feasibility\":\""
    } else {
        ",\"slowdown\":false,\"feasibility\":\""
    });
    let _ = write!(Escaping(out), "{}", row.feasibility);
    out.push_str("\",\"footprint_mm2\":");
    push_num(out, row.footprint_mm2);
    out.push_str(",\"lifetime_years\":");
    push_num(out, row.lifetime_years);
    out.push_str(",\"bandwidth_utilization\":");
    push_num(out, row.bandwidth_utilization);
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_request_grammar() {
        let parsed = parse_request(
            r#"{"cmd":"characterize","tech":"pcm","tentpole":"pess","dies":8,"temp":350}"#,
        )
        .unwrap();
        assert!(matches!(
            &parsed.request,
            Request::Characterize { point } if point.tech == "pcm" && point.dies == 8
        ));
        assert_eq!(parsed.id, None);

        let parsed =
            parse_request(r#"{"cmd":"evaluate","bench":"mcf","id":7,"deadline_ms":500}"#).unwrap();
        assert!(matches!(
            &parsed.request,
            Request::Evaluate { benchmark, .. } if benchmark == "mcf"
        ));
        assert_eq!(parsed.id.as_deref(), Some("7"));
        assert_eq!(parsed.deadline_ms, Some(500));

        let parsed = parse_request(r#"{"cmd":"search","tech":"stt","max_latency":1.2}"#).unwrap();
        let Request::Search {
            tech, constraints, ..
        } = &parsed.request
        else {
            panic!("expected a search request");
        };
        assert_eq!(tech.as_deref(), Some("stt"));
        assert!((constraints.max_relative_latency - 1.2).abs() < 1e-12);

        assert!(matches!(
            parse_request(r#"{"cmd":"sweep"}"#).unwrap().request,
            Request::Sweep
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"status","id":"abc"}"#).unwrap().request,
            Request::Status
        ));
    }

    #[test]
    fn rejects_malformed_and_unknown_inputs() {
        for bad in [
            "",
            "not json",
            "[1,2]",
            r#"{"tech":"sram"}"#,
            r#"{"cmd":"teleport"}"#,
            r#"{"cmd":"sweep","tech":"sram"}"#,
            r#"{"cmd":"characterize","benhc":"namd"}"#,
            r#"{"cmd":"characterize","dies":"four"}"#,
            r#"{"cmd":"characterize","dies":2.5}"#,
            r#"{"cmd":"characterize","temp":"cold"}"#,
            r#"{"cmd":"evaluate","bench":7}"#,
            r#"{"cmd":"search","max_area":"big"}"#,
            r#"{"cmd":"status","deadline_ms":-1}"#,
            r#"{"cmd":"status","id":[1]}"#,
        ] {
            assert!(parse_request(bad).is_err(), "accepted bad request {bad:?}");
        }
    }

    #[test]
    fn responses_are_valid_json_and_echo_ids() {
        let status = ResponsePayload::Status(StatusReport {
            cached_characterizations: 3,
            cached_geometries: 2,
            cache_hits: 10,
            cache_misses: 4,
            cache_rejected: 0,
            cache_approx_bytes: 1234,
            geometry_solves: 2,
            requests_served: 14,
        });
        let line = render_response("status", Some("\"abc\""), &Ok(status));
        let value = coldtall_obs::json::parse(&line).expect("response must be valid JSON");
        assert_eq!(value.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(value.get("id"), Some(&Value::String("abc".to_string())));
        assert_eq!(
            value.get("result").and_then(|r| r.get("cache_hits")).and_then(Value::as_f64),
            Some(10.0)
        );

        let err = render_response(
            "evaluate",
            None,
            &Err(Error::UnknownBenchmark {
                name: "doom".to_string(),
            }),
        );
        let value = coldtall_obs::json::parse(&err).unwrap();
        assert_eq!(value.get("ok"), Some(&Value::Bool(false)));
        assert!(matches!(
            value.get("error"),
            Some(Value::String(m)) if m.contains("doom")
        ));

        let invalid = render_parse_error("missing 'cmd' field");
        assert!(coldtall_obs::json::parse(&invalid).is_ok());
    }

    fn num(n: f64) -> String {
        let mut out = String::new();
        push_num(&mut out, n);
        out
    }

    #[test]
    fn non_finite_floats_render_as_strings() {
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(-0.0), "-0");
        assert_eq!(num(1e21), "1000000000000000000000");
        assert_eq!(num(-2.5e-3), "-0.0025");
        assert_eq!(num(f64::INFINITY), "\"inf\"");
        assert_eq!(num(f64::NEG_INFINITY), "\"-inf\"");
        assert_eq!(num(f64::NAN), "\"nan\"");
    }

    #[test]
    fn escape_handles_quotes_and_control_characters() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    /// `push_escaped` appends to what is already in the buffer; a clean
    /// string (the fast path) is copied through untouched, multi-byte
    /// UTF-8 included.
    #[test]
    fn push_escaped_copies_clean_strings_through() {
        let mut out = String::from("prefix:");
        push_escaped(&mut out, "edram 77K x4 | µ-tier");
        assert_eq!(out, "prefix:edram 77K x4 | µ-tier");
        push_escaped(&mut out, "");
        assert_eq!(out, "prefix:edram 77K x4 | µ-tier");
    }

    #[test]
    fn push_escaped_escapes_quotes_backslashes_and_controls() {
        let mut out = String::new();
        push_escaped(&mut out, "say \"hi\"\\path");
        assert_eq!(out, "say \\\"hi\\\"\\\\path");

        let mut out = String::new();
        push_escaped(&mut out, "a\tb\rc\nd\u{0}e\u{1f}f\u{7f}");
        assert_eq!(out, "a\\tb\\rc\\nd\\u0000e\\u001ff\u{7f}");

        // Escapes at both ends and back to back, around multi-byte text.
        let mut out = String::new();
        push_escaped(&mut out, "\"é\\\"");
        assert_eq!(out, "\\\"é\\\\\\\"");
    }

    /// Every control character escapes to exactly what the previous
    /// per-`char` escaper produced, so the wire bytes cannot move.
    #[test]
    fn push_escaped_matches_a_per_char_reference() {
        fn reference(s: &str) -> String {
            let mut out = String::new();
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out
        }
        let all: String = (0u32..0x80)
            .filter_map(char::from_u32)
            .chain("é∑😀".chars())
            .collect();
        assert_eq!(escape(&all), reference(&all));
        for c in all.chars() {
            let s = format!("x{c}y");
            assert_eq!(escape(&s), reference(&s), "{c:?}");
        }
    }

    #[test]
    fn error_messages_render_escaped() {
        let line = render_response(
            "evaluate",
            Some("1"),
            &Err(Error::UnknownBenchmark {
                name: "do\"om\n".to_string(),
            }),
        );
        let value = coldtall_obs::json::parse(&line).expect("escaped error is valid JSON");
        assert!(matches!(
            value.get("error"),
            Some(Value::String(m)) if m.contains("do\"om\n")
        ));
    }
}
