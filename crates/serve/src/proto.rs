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
//! Request grammar: `cmd` names the request, and every other field is
//! read by [`Request::from_fields`], the field table the CLI's flags
//! go through too. It holds each command's fields and their defaults
//! (the 350 K 2D SRAM design point, `namd`, no search filter or cap).
//! Unknown fields are rejected, not ignored — a typo like `"benhc"`
//! must never silently default:
//!
//! ```json
//! {"cmd":"characterize","tech":"pcm","tentpole":"optimistic","dies":4,"temp":350}
//! {"cmd":"evaluate","tech":"sram","temp":77,"bench":"namd"}
//! {"cmd":"sweep"}
//! {"cmd":"search","tech":"pcm","max_latency":1.1,"max_area":10.0}
//! {"cmd":"search","tech":"stt-ram","temps":"77:400"}
//! {"cmd":"status"}
//! ```
//!
//! A field's value is a JSON string or number. A numeric field also
//! takes a string that holds one JSON number (`"temp":"77"`), as the
//! CLI reads `--temp 77`. Every request may carry `"id"` (string or
//! number, echoed verbatim in the response) and `"deadline_ms"`
//! (per-request budget). A search's `"temps"` is the CLI's `--temps`
//! selector as a string: `"study"`, a kelvin value (`"77"`), or a
//! `"lo:hi"` range of the study ladder.
//!
//! Responses are `{"ok":true,"cmd":...,"result":{...}}` or
//! `{"ok":false,"cmd":...,"error":"..."}`. Every number is printed by
//! the crate's number kernel, byte for byte what `Display` prints:
//! floats as their shortest round-trip decimal, counts as integers.
//! Non-finite floats (the infinite-latency sentinel) render as the JSON
//! strings `"inf"`, `"-inf"` — JSON numbers cannot carry them.

use std::fmt::Write as _;
use std::ops::Range;

use coldtall_array::ArrayCharacterization;
use coldtall_core::{
    Error, EvalArena, Feasibility, FieldError, FieldProblem, FieldValue, LlcEvaluation, Request,
    ResponsePayload, StatusReport,
};
use coldtall_obs::json::{self, escape, push_escaped, Value};

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

/// Parses one request line: the JSON envelope here, the request's
/// fields by [`Request::from_fields`].
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
    let pairs: Vec<(&str, FieldValue<'_>)> = fields
        .iter()
        .filter(|(key, _)| !matches!(key.as_str(), "cmd" | "id" | "deadline_ms"))
        .map(|(key, value)| match value {
            Value::String(text) => (key.as_str(), FieldValue::Text(text)),
            // No field takes a boolean, null, array or object, and every
            // field refuses NaN as it would refuse those.
            _ => (
                key.as_str(),
                FieldValue::Number(value.as_f64().unwrap_or(f64::NAN)),
            ),
        })
        .collect();
    let request = Request::from_fields(cmd, &pairs).map_err(|error| field_error(cmd, &error))?;
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
        Some(Value::Number(n)) if n.fract() == 0.0 && (0.0..=2.0_f64.powi(53)).contains(n) =>
        {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Some(*n as u64)
        }
        Some(_) => return Err("'deadline_ms' must be a non-negative integer".to_string()),
    };
    Ok(ParsedRequest {
        request,
        id,
        deadline_ms,
    })
}

/// A refused request field, worded for the wire.
fn field_error(cmd: &str, error: &FieldError) -> String {
    let field = &error.field;
    match error.problem {
        FieldProblem::UnknownCommand => format!("unknown cmd '{field}'"),
        FieldProblem::Unknown => format!("unknown field '{field}' for cmd '{cmd}'"),
        FieldProblem::NotText => format!("'{field}' must be a string"),
        FieldProblem::NotFinite => format!("'{field}' must be a finite number"),
        FieldProblem::NotDieCount => format!("'{field}' must be an integer from 0 to 255"),
        FieldProblem::Negative => format!("'{field}' must not be negative"),
    }
}

/// A [`std::fmt::Write`] sink that escapes everything written through
/// it into the wrapped buffer, so an error message's `Display` renders
/// escaped without an intermediate `String`.
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
    let mut out = String::with_capacity(outcome.as_ref().map_or(256, payload_capacity));
    push_envelope(&mut out, outcome.is_ok(), cmd, id);
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

/// Renders a payload's `result` object alone: the bytes
/// [`render_response`] writes after `"result":`.
pub(crate) fn render_result(payload: &ResponsePayload) -> String {
    let mut out = String::with_capacity(payload_capacity(payload));
    render_payload(&mut out, payload);
    out
}

/// Renders a successful response line (no trailing newline) around a
/// `result` object [`render_result`] rendered: byte for byte what
/// [`render_response`] renders for that payload. The line is allocated
/// with one byte to spare, so the caller's newline costs no copy of the
/// result.
pub(crate) fn render_ok_response(cmd: &str, id: Option<&str>, result: &str) -> String {
    // The envelope's 36 fixed bytes (`{"ok":true,"cmd":""`, `,"id":`,
    // `,"result":` and the closing brace) plus the newline.
    let len = 37 + cmd.len() + id.map_or(0, str::len) + result.len();
    let mut out = String::with_capacity(len);
    push_envelope(&mut out, true, cmd, id);
    out.push_str(",\"result\":");
    out.push_str(result);
    out.push('}');
    out
}

/// The capacity to reserve for a payload's rendering. Sweep responses
/// are the large ones (hundreds of rows of roughly 350 bytes);
/// reserving up front spares the doubling copies.
fn payload_capacity(payload: &ResponsePayload) -> usize {
    let rows = match payload {
        ResponsePayload::Sweep { arena, .. } => arena.rows(),
        _ => 0,
    };
    256 + rows * 384
}

/// Appends a response's opening: the `ok` flag, the `cmd`, and the
/// echoed `id` if any.
fn push_envelope(out: &mut String, ok: bool, cmd: &str, id: Option<&str>) {
    out.push_str(if ok {
        "{\"ok\":true,\"cmd\":\""
    } else {
        "{\"ok\":false,\"cmd\":\""
    });
    push_escaped(out, cmd);
    out.push('"');
    if let Some(id) = id {
        out.push_str(",\"id\":");
        out.push_str(id);
    }
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
            RowWriter::default().push(out, &RowFields::from(row));
            out.push('}');
        }
        ResponsePayload::Sweep { plan_hash, arena } => {
            let _ = write!(out, "{{\"plan\":\"{plan_hash:016x}\",\"rows\":");
            num::push_u64(out, arena.rows() as u64);
            out.push_str(",\"evaluations\":[");
            render_arena_rows(out, arena);
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
            let mut writer = RowWriter::default();
            for (i, row) in outcome.frontier.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                writer.push(out, &RowFields::from(row));
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
            (
                "cached_characterizations",
                status.cached_characterizations as u64,
            ),
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

/// One evaluation row's wire fields, read from an [`EvalArena`]'s
/// columns or borrowed from an [`LlcEvaluation`].
struct RowFields<'a> {
    /// The row's configuration plane, for a row read from an arena.
    plane: Option<usize>,
    config: &'a str,
    /// The row's benchmark column, for a row read from an arena.
    column: Option<usize>,
    benchmark: &'a str,
    device_power_w: f64,
    wall_power_w: f64,
    relative_power: f64,
    relative_latency: f64,
    slowdown: bool,
    feasibility: Feasibility,
    footprint_mm2: f64,
    lifetime_years: f64,
    bandwidth_utilization: f64,
}

impl<'a> From<&'a LlcEvaluation> for RowFields<'a> {
    fn from(row: &'a LlcEvaluation) -> Self {
        Self {
            plane: None,
            config: &row.config_label,
            column: None,
            benchmark: row.benchmark,
            device_power_w: row.device_power.get(),
            wall_power_w: row.wall_power.get(),
            relative_power: row.relative_power,
            relative_latency: row.relative_latency,
            slowdown: row.slowdown,
            feasibility: row.feasibility,
            footprint_mm2: row.footprint_mm2,
            lifetime_years: row.lifetime_years,
            bandwidth_utilization: row.bandwidth_utilization,
        }
    }
}

/// Writes the sweep's rows straight from the arena's columns, in
/// (configuration x benchmark) order.
fn render_arena_rows(out: &mut String, arena: &EvalArena) {
    let columns = arena.benchmark_count();
    let mut writer = RowWriter::new(columns);
    for (plane, config) in arena.config_labels().iter().enumerate() {
        for (column, &benchmark) in arena.benchmark_names().iter().enumerate() {
            let index = plane * columns + column;
            if index > 0 {
                out.push(',');
            }
            let fields = RowFields {
                plane: Some(plane),
                config,
                column: Some(column),
                benchmark,
                device_power_w: arena.device_power_watts()[index],
                wall_power_w: arena.wall_power_watts()[index],
                relative_power: arena.relative_power()[index],
                relative_latency: arena.relative_latency()[index],
                slowdown: arena.slowdown()[index],
                feasibility: arena.feasibility()[index],
                footprint_mm2: arena.footprint_mm2()[index],
                lifetime_years: arena.lifetime_years()[index],
                bandwidth_utilization: arena.bandwidth_utilization()[index],
            };
            writer.push(out, &fields);
        }
    }
}

/// Writes evaluation rows into one response. [`RowWriter::push`] is the
/// one place the row's JSON keys and field order live: the sweep, the
/// search frontier and the `evaluate` row all go through it.
///
/// Text the response already holds is copied with
/// `String::extend_from_within` rather than escaped or formatted again:
///
/// * an arena plane's label is escaped once, by the plane's first row;
/// * an arena column's benchmark name is escaped once per response;
/// * a footprint bit-equal to the last footprint written copies that
///   text (the footprint repeats down each plane);
/// * a wall power bit-equal to the row's device power copies the device
///   power's text (wherever the cooling factor is 1).
///
/// Bit-equal floats print the same bytes, so each copy is exactly what
/// formatting would have written.
#[derive(Default)]
struct RowWriter {
    /// The plane whose escaped label was written last, and where.
    label: Option<(usize, Range<usize>)>,
    /// Where each arena column's escaped benchmark name was written.
    benchmarks: Vec<Option<Range<usize>>>,
    /// The bits of the last footprint written, and where its text is.
    footprint: Option<(u64, Range<usize>)>,
}

impl RowWriter {
    /// A writer for rows read from an arena with `columns` benchmarks.
    fn new(columns: usize) -> Self {
        Self {
            benchmarks: vec![None; columns],
            ..Self::default()
        }
    }

    /// Appends one row as a JSON object.
    fn push(&mut self, out: &mut String, row: &RowFields<'_>) {
        out.push_str("{\"config\":\"");
        match (&self.label, row.plane) {
            (Some((plane, text)), Some(row_plane)) if *plane == row_plane => {
                out.extend_from_within(text.clone());
            }
            _ => {
                let text = written(out, |out| push_escaped(out, row.config));
                self.label = row.plane.map(|plane| (plane, text));
            }
        }
        out.push_str("\",\"benchmark\":\"");
        match row
            .column
            .and_then(|column| self.benchmarks.get_mut(column))
        {
            Some(Some(text)) => out.extend_from_within(text.clone()),
            slot => {
                let text = written(out, |out| push_escaped(out, row.benchmark));
                if let Some(slot) = slot {
                    *slot = Some(text);
                }
            }
        }
        out.push_str("\",\"device_power_w\":");
        let device = written(out, |out| push_num(out, row.device_power_w));
        out.push_str(",\"wall_power_w\":");
        if row.wall_power_w.to_bits() == row.device_power_w.to_bits() {
            out.extend_from_within(device);
        } else {
            push_num(out, row.wall_power_w);
        }
        out.push_str(",\"relative_power\":");
        push_num(out, row.relative_power);
        out.push_str(",\"relative_latency\":");
        push_num(out, row.relative_latency);
        out.push_str(if row.slowdown {
            ",\"slowdown\":true,\"feasibility\":\""
        } else {
            ",\"slowdown\":false,\"feasibility\":\""
        });
        // No verdict holds a character that needs escaping.
        out.push_str(row.feasibility.as_str());
        out.push_str("\",\"footprint_mm2\":");
        let bits = row.footprint_mm2.to_bits();
        match &self.footprint {
            Some((last, text)) if *last == bits => out.extend_from_within(text.clone()),
            _ => {
                let text = written(out, |out| push_num(out, row.footprint_mm2));
                self.footprint = Some((bits, text));
            }
        }
        out.push_str(",\"lifetime_years\":");
        push_num(out, row.lifetime_years);
        out.push_str(",\"bandwidth_utilization\":");
        push_num(out, row.bandwidth_utilization);
        out.push('}');
    }
}

/// Runs `write` on `out` and returns where its text landed.
fn written(out: &mut String, write: impl FnOnce(&mut String)) -> Range<usize> {
    let start = out.len();
    write(out);
    start..out.len()
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
        // An integer-valued die count is a die count, as on the CLI.
        let parsed = parse_request(r#"{"cmd":"characterize","dies":4.0}"#).unwrap();
        assert!(matches!(
            &parsed.request,
            Request::Characterize { point } if point.dies == 4
        ));

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
            tech,
            temps,
            constraints,
            ..
        } = &parsed.request
        else {
            panic!("expected a search request");
        };
        assert_eq!(tech.as_deref(), Some("stt"));
        assert_eq!(temps.as_deref(), None);
        assert!((constraints.max_relative_latency - 1.2).abs() < 1e-12);
        let parsed = parse_request(r#"{"cmd":"search","temps":"77:400"}"#).unwrap();
        assert!(matches!(
            &parsed.request,
            Request::Search { temps: Some(t), .. } if t == "77:400"
        ));

        assert!(matches!(
            parse_request(r#"{"cmd":"sweep"}"#).unwrap().request,
            Request::Sweep
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"status","id":"abc"}"#)
                .unwrap()
                .request,
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
            r#"{"cmd":"search","temps":77}"#,
            r#"{"cmd":"status","deadline_ms":-1}"#,
            r#"{"cmd":"status","id":[1]}"#,
            r#"{"cmd":"search","max_latency":-1}"#,
            r#"{"cmd":"search","max_area":-0.5}"#,
            r#"{"cmd":"search","min_lifetime":-1}"#,
            r#"{"cmd":"search","max_power":-1e-9}"#,
            r#"{"cmd":"characterize","dies":2,"dies":4}"#,
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
            value
                .get("result")
                .and_then(|r| r.get("cache_hits"))
                .and_then(Value::as_f64),
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

    /// The sweep renders straight from the arena's columns and copies
    /// text it already wrote. Parsed back, every row must equal the
    /// arena's own row: label, benchmark, slowdown and verdict text, and
    /// each float bit for bit, with `"inf"` for the sentinels. The three
    /// arenas take each side of the wall-power rule: the study set
    /// mostly reuses the device power's text, every 77 K row has a
    /// cooled wall power, and the cryo-STT region mixes both.
    #[test]
    fn sweep_rows_round_trip_from_the_arena() {
        use coldtall_core::{Explorer, MemoryConfig};
        use coldtall_units::Kelvin;

        let explorer = Explorer::with_defaults();
        let sweep = |configs: &[MemoryConfig]| {
            let plan = explorer.plan_sweep(configs).expect("configs resolve");
            let mut arena = EvalArena::new();
            explorer.run(&plan, &mut arena);
            arena
        };
        let study = MemoryConfig::study_set();
        let cold: Vec<MemoryConfig> = study
            .iter()
            .map(|c| c.clone().at_temperature(Kelvin::LN2))
            .collect();
        let region = MemoryConfig::cryo_stt_study_set();
        for (name, arena) in [
            ("study", sweep(&study)),
            ("study at 77 K", sweep(&cold)),
            ("cryo-STT region", sweep(&region)),
        ] {
            let rows = arena.rows();
            let wall_is_device = (0..rows)
                .filter(|&i| {
                    arena.wall_power_watts()[i].to_bits() == arena.device_power_watts()[i].to_bits()
                })
                .count();
            let infinite = arena
                .relative_latency()
                .iter()
                .filter(|l| l.is_infinite())
                .count();
            match name {
                "study" => assert_eq!((rows, wall_is_device, infinite), (713, 667, 31)),
                "study at 77 K" => assert_eq!((rows, wall_is_device), (713, 0)),
                _ => {
                    assert_eq!(rows, 1_472);
                    assert!(
                        0 < wall_is_device && wall_is_device < rows,
                        "{wall_is_device}"
                    );
                }
            }

            let payload = ResponsePayload::Sweep {
                plan_hash: 0,
                arena: std::sync::Arc::new(arena.clone()),
            };
            let line = render_response("sweep", None, &Ok(payload));
            let value = coldtall_obs::json::parse(&line).expect("the sweep is valid JSON");
            let result = value.get("result").expect("a result");
            assert_eq!(
                result.get("rows").and_then(Value::as_f64),
                Some(rows as f64)
            );
            let Some(Value::Array(evaluations)) = result.get("evaluations") else {
                panic!("{name}: no evaluations array");
            };
            assert_eq!(evaluations.len(), rows, "{name}");
            let bits = |field: &Value| match field {
                Value::Number(n) => n.to_bits(),
                Value::String(s) if s == "inf" => f64::INFINITY.to_bits(),
                other => panic!("{name}: not a wire float: {other:?}"),
            };
            for (i, wire) in evaluations.iter().enumerate() {
                let row = arena.row(i);
                let Value::Object(fields) = wire else {
                    panic!("{name}: row {i} is not an object");
                };
                assert_eq!(fields.len(), 11, "{name}: row {i} keys");
                let text = |key: &str| match &fields[key] {
                    Value::String(s) => s.clone(),
                    other => panic!("{name}: row {i} {key} is {other:?}"),
                };
                assert_eq!(text("config"), row.config_label, "{name}: row {i}");
                assert_eq!(text("benchmark"), row.benchmark, "{name}: row {i}");
                assert_eq!(
                    text("feasibility"),
                    row.feasibility.to_string(),
                    "{name}: row {i}"
                );
                assert_eq!(
                    fields["slowdown"],
                    Value::Bool(row.slowdown),
                    "{name}: row {i}"
                );
                for (key, expected) in [
                    ("device_power_w", row.device_power.get()),
                    ("wall_power_w", row.wall_power.get()),
                    ("relative_power", row.relative_power),
                    ("relative_latency", row.relative_latency),
                    ("footprint_mm2", row.footprint_mm2),
                    ("lifetime_years", row.lifetime_years),
                    ("bandwidth_utilization", row.bandwidth_utilization),
                ] {
                    assert_eq!(
                        bits(&fields[key]),
                        expected.to_bits(),
                        "{name}: row {i} {key}"
                    );
                }
            }
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
