//! The static dashboard: HTML/SVG pages generated from the run
//! registry's warmed cache and the live metrics registry.
//!
//! `coldtall serve --render <dir>` replays the registry, runs the study
//! sweep and the default-constraint search from the warmed cache, and
//! writes four self-contained pages — no JavaScript, no external
//! assets, so the output can be dropped on any static file host:
//!
//! * `index.html` — status summary and links,
//! * `pareto.html` — power-vs-latency scatter with the Pareto frontier
//!   highlighted, plus the frontier table,
//! * `search.html` — branch-and-bound prune accounting,
//! * `latency.html` — request-span latency percentiles and the full
//!   metrics text dump.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use coldtall_core::{
    Constraints, Error, LlcEvaluation, Request, RequestHandler, ResponsePayload,
};
use coldtall_obs::Registry;

/// Escapes text for an HTML context.
fn html(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

/// Wraps a page body in the shared chrome.
fn page(title: &str, body: &str) -> String {
    format!(
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\
         <title>{title}</title><style>\
         body{{font:14px/1.5 system-ui,sans-serif;margin:2rem auto;max-width:60rem;\
         padding:0 1rem;color:#1a1a2e}}\
         h1{{font-size:1.4rem}}table{{border-collapse:collapse;width:100%}}\
         th,td{{border:1px solid #ccd;padding:.3rem .6rem;text-align:right}}\
         th{{background:#eef}}td:first-child,th:first-child{{text-align:left}}\
         nav a{{margin-right:1rem}}pre{{background:#f4f4f8;padding:1rem;overflow-x:auto}}\
         svg{{background:#fbfbfe;border:1px solid #ccd}}\
         </style></head><body>\
         <nav><a href=\"index.html\">status</a><a href=\"pareto.html\">pareto</a>\
         <a href=\"search.html\">search</a><a href=\"latency.html\">latency</a></nav>\
         <h1>{title}</h1>\n{body}\n</body></html>\n",
        title = html(title),
    )
}

/// Renders the dashboard into `dir`, returning the written paths.
///
/// Runs the study sweep and the default-constraint search through
/// `handler` (warming from whatever cache state it holds), then lays
/// the results out as static pages.
///
/// # Errors
///
/// Returns directory-creation and file-write failures, and any typed
/// [`Error`] from the sweep or search wrapped as
/// [`io::ErrorKind::InvalidData`].
pub fn render_dashboard(
    dir: &Path,
    handler: &RequestHandler,
    metrics: &Registry,
) -> io::Result<Vec<PathBuf>> {
    fs::create_dir_all(dir)?;
    let wrap = |e: Error| io::Error::new(io::ErrorKind::InvalidData, e.to_string());
    let sweep = handler.handle(&Request::Sweep).map_err(wrap)?;
    let search = handler
        .handle(&Request::Search {
            tech: None,
            dies: None,
            temps: None,
            constraints: Constraints::default(),
        })
        .map_err(wrap)?;
    let ResponsePayload::Sweep { rows, .. } = &sweep else {
        unreachable!("sweep returns a sweep payload");
    };
    let ResponsePayload::Search {
        region,
        outcome,
        plan_hash,
    } = &search
    else {
        unreachable!("search returns a search payload");
    };

    let mut written = Vec::new();
    for (name, contents) in [
        ("index.html", index_page(handler, rows.len(), *plan_hash)),
        ("pareto.html", pareto_page(rows, &outcome.frontier)),
        ("search.html", search_page(region, outcome)),
        ("latency.html", latency_page(metrics)),
    ] {
        let path = dir.join(name);
        fs::write(&path, contents)?;
        written.push(path);
    }
    Ok(written)
}

fn index_page(handler: &RequestHandler, sweep_rows: usize, plan_hash: u64) -> String {
    let status = handler.status();
    let mut body = String::new();
    let _ = write!(
        body,
        "<p>Study plan <code>{plan_hash:016x}</code> &mdash; {sweep_rows} sweep rows.</p>\
         <table><tr><th>metric</th><th>value</th></tr>"
    );
    for (name, value) in [
        ("cached characterizations", status.cached_characterizations as u64),
        ("cached geometries", status.cached_geometries as u64),
        ("cache hits", status.cache_hits),
        ("cache misses", status.cache_misses),
        ("cache rejected (admission cap)", status.cache_rejected),
        ("cache approx bytes", status.cache_approx_bytes),
        ("geometry solves", status.geometry_solves),
        ("requests served", status.requests_served),
    ] {
        let _ = write!(body, "<tr><td>{}</td><td>{value}</td></tr>", html(name));
    }
    body.push_str("</table>");
    page("coldtall serve — status", &body)
}

/// Scatter of wall power vs relative latency over serviceable sweep
/// rows, with the constrained Pareto frontier highlighted.
fn pareto_page(rows: &[LlcEvaluation], frontier: &[LlcEvaluation]) -> String {
    const W: f64 = 640.0;
    const H: f64 = 400.0;
    const M: f64 = 45.0;
    let serviceable: Vec<&LlcEvaluation> = rows
        .iter()
        .filter(|r| r.relative_latency.is_finite() && r.relative_power.is_finite())
        .collect();
    let bound = |f: fn(&LlcEvaluation) -> f64, init: (f64, f64)| {
        serviceable
            .iter()
            .fold(init, |(lo, hi), r| (lo.min(f(r)), hi.max(f(r))))
    };
    let (x_lo, x_hi) = bound(|r| r.relative_latency, (f64::INFINITY, f64::NEG_INFINITY));
    let (y_lo, y_hi) = bound(|r| r.relative_power, (f64::INFINITY, f64::NEG_INFINITY));
    let span = |lo: f64, hi: f64| if hi > lo { hi - lo } else { 1.0 };
    let sx = |v: f64| M + (v - x_lo) / span(x_lo, x_hi) * (W - 2.0 * M);
    let sy = |v: f64| H - M - (v - y_lo) / span(y_lo, y_hi) * (H - 2.0 * M);

    let mut svg = String::new();
    let _ = write!(
        svg,
        "<svg viewBox=\"0 0 {W} {H}\" width=\"{W}\" height=\"{H}\" \
         xmlns=\"http://www.w3.org/2000/svg\">\
         <line x1=\"{M}\" y1=\"{y0}\" x2=\"{x1}\" y2=\"{y0}\" stroke=\"#889\"/>\
         <line x1=\"{M}\" y1=\"{M}\" x2=\"{M}\" y2=\"{y0}\" stroke=\"#889\"/>\
         <text x=\"{xc}\" y=\"{yl}\" text-anchor=\"middle\" font-size=\"12\">\
         relative LLC latency (vs 350 K SRAM)</text>\
         <text x=\"12\" y=\"{ym}\" font-size=\"12\" \
         transform=\"rotate(-90 12 {ym})\" text-anchor=\"middle\">relative wall power</text>",
        y0 = H - M,
        x1 = W - M,
        xc = W / 2.0,
        yl = H - 8.0,
        ym = H / 2.0,
    );
    for row in &serviceable {
        let _ = write!(
            svg,
            "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"3\" fill=\"#9aa\" fill-opacity=\"0.6\">\
             <title>{} / {}</title></circle>",
            sx(row.relative_latency),
            sy(row.relative_power),
            html(&row.config_label),
            html(row.benchmark),
        );
    }
    for row in frontier {
        let _ = write!(
            svg,
            "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"4.5\" fill=\"#c22\">\
             <title>{} / {}</title></circle>",
            sx(row.relative_latency),
            sy(row.relative_power),
            html(&row.config_label),
            html(row.benchmark),
        );
    }
    svg.push_str("</svg>");

    let mut body = format!(
        "<p>{} serviceable rows of {}; {} frontier points (red).</p>{svg}\
         <h2>Frontier</h2><table><tr><th>configuration</th><th>benchmark</th>\
         <th>rel. latency</th><th>rel. power</th><th>footprint mm&sup2;</th>\
         <th>lifetime yr</th></tr>",
        serviceable.len(),
        rows.len(),
        frontier.len(),
    );
    for row in frontier {
        let _ = write!(
            body,
            "<tr><td>{}</td><td>{}</td><td>{:.4}</td><td>{:.4}</td>\
             <td>{:.2}</td><td>{:.1}</td></tr>",
            html(&row.config_label),
            html(row.benchmark),
            row.relative_latency,
            row.relative_power,
            row.footprint_mm2,
            row.lifetime_years,
        );
    }
    body.push_str("</table>");
    page("coldtall serve — Pareto frontier", &body)
}

fn search_page(region: &str, outcome: &coldtall_core::SearchOutcome) -> String {
    let stats = &outcome.stats;
    let mut body = format!(
        "<p>Region <code>{}</code> under the study's default constraints.</p>\
         <table><tr><th>stat</th><th>value</th></tr>",
        html(region)
    );
    for (name, value) in [
        ("grid rows total", stats.rows_total),
        ("points evaluated", stats.points_evaluated),
        ("points skipped", stats.points_skipped),
        ("&nbsp;&nbsp;skipped: provably infeasible", stats.skipped_infeasible),
        ("&nbsp;&nbsp;skipped: pruned by bound", stats.skipped_pruned),
        ("regions expanded", stats.regions_expanded),
        ("regions pruned", stats.regions_pruned),
        ("regions refined", stats.regions_refined),
        ("bounds computed", stats.bounds_computed),
    ] {
        let _ = write!(body, "<tr><td>{name}</td><td>{value}</td></tr>");
    }
    let _ = write!(
        body,
        "</table><p>{} pruned regions retained for bound auditing; \
         frontier holds {} rows.</p>",
        outcome.pruned.len(),
        outcome.frontier.len()
    );
    page("coldtall serve — search prune accounting", &body)
}

fn latency_page(metrics: &Registry) -> String {
    let mut body = String::from(
        "<table><tr><th>span</th><th>count</th><th>p50</th><th>p95</th>\
         <th>p99</th><th>max</th></tr>",
    );
    for name in ["serve.request", "characterize", "evaluate", "sweep"] {
        let hist = metrics.span(name);
        let us = |ns: u64| format!("{:.1} µs", ns as f64 / 1e3);
        let _ = write!(
            body,
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
            html(name),
            hist.count(),
            us(hist.quantile(0.50)),
            us(hist.quantile(0.95)),
            us(hist.quantile(0.99)),
            us(hist.max()),
        );
    }
    let _ = write!(
        body,
        "</table><h2>Full metrics</h2><pre>{}</pre>",
        html(&metrics.render_text())
    );
    page("coldtall serve — request latency", &body)
}

/// Quick structural sanity: every page is ASCII-clean HTML whose links
/// resolve within the directory. (Full rendering is covered by the
/// integration tests; this keeps the generator honest in isolation.)
#[cfg(test)]
mod tests {
    use super::*;
    use coldtall_core::Explorer;

    #[test]
    fn renders_all_four_pages() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("coldtall-dash-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);

        let metrics = Registry::new();
        let handler = RequestHandler::new(Explorer::with_defaults(), &metrics, None);
        let written = render_dashboard(&dir, &handler, &metrics).unwrap();
        assert_eq!(written.len(), 4);
        for path in &written {
            let contents = fs::read_to_string(path).unwrap();
            assert!(contents.starts_with("<!DOCTYPE html>"), "{path:?}");
            assert!(contents.contains("</html>"), "{path:?}");
        }
        let pareto = fs::read_to_string(dir.join("pareto.html")).unwrap();
        assert!(pareto.contains("<svg"), "scatter plot missing");
        assert!(pareto.contains("frontier points"), "frontier count missing");
        let index = fs::read_to_string(dir.join("index.html")).unwrap();
        assert!(index.contains("cached characterizations"));

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn html_escaping_covers_the_metacharacters() {
        assert_eq!(html("a<b>&\"c\""), "a&lt;b&gt;&amp;&quot;c&quot;");
    }
}
