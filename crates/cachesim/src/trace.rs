//! Access-trace record and replay.
//!
//! A trace is a newline-delimited text format, one access per line:
//!
//! ```text
//! <core> <R|W|I> <hex address>
//! ```
//!
//! Traces decouple workload generation from simulation: a stream can be
//! recorded once (e.g. from the synthetic generators, or converted from
//! an external simulator's output) and replayed through any hierarchy
//! configuration.

use std::io::{BufRead, Write};

use crate::access::{AccessKind, MemoryAccess};
use crate::hierarchy::Hierarchy;

/// Error raised when parsing a trace line fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number of the offending record.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseTraceError {}

/// Serializes accesses into the trace text format.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
///
/// # Examples
///
/// ```
/// use coldtall_cachesim::{trace, MemoryAccess};
///
/// let mut out = Vec::new();
/// trace::write_trace(&mut out, [MemoryAccess::data_read(0, 0x40)]).unwrap();
/// assert_eq!(String::from_utf8(out).unwrap(), "0 R 0x40\n");
/// ```
pub fn write_trace<W: Write>(
    mut writer: W,
    accesses: impl IntoIterator<Item = MemoryAccess>,
) -> std::io::Result<()> {
    for a in accesses {
        let kind = match a.kind {
            AccessKind::InstructionFetch => 'I',
            AccessKind::DataRead => 'R',
            AccessKind::DataWrite => 'W',
        };
        writeln!(writer, "{} {kind} {:#x}", a.core, a.address)?;
    }
    Ok(())
}

/// Parses a trace from a reader.
///
/// Blank lines and lines starting with `#` are skipped.
///
/// # Errors
///
/// Returns [`ParseTraceError`] on the first malformed record; I/O errors
/// are reported as parse errors carrying the line number.
pub fn read_trace<R: BufRead>(reader: R) -> Result<Vec<MemoryAccess>, ParseTraceError> {
    let mut out = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line_no = idx + 1;
        let line = line.map_err(|e| ParseTraceError {
            line: line_no,
            message: e.to_string(),
        })?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let err = |message: &str| ParseTraceError {
            line: line_no,
            message: message.to_string(),
        };
        let core: u8 = parts
            .next()
            .ok_or_else(|| err("missing core"))?
            .parse()
            .map_err(|_| err("bad core"))?;
        let kind = match parts.next().ok_or_else(|| err("missing kind"))? {
            "R" => AccessKind::DataRead,
            "W" => AccessKind::DataWrite,
            "I" => AccessKind::InstructionFetch,
            other => {
                return Err(ParseTraceError {
                    line: line_no,
                    message: format!("unknown access kind '{other}'"),
                })
            }
        };
        let addr_str = parts.next().ok_or_else(|| err("missing address"))?;
        let address = addr_str
            .strip_prefix("0x")
            .or_else(|| addr_str.strip_prefix("0X"))
            .ok_or_else(|| err("address must be hex (0x...)"))
            .and_then(|hex| u64::from_str_radix(hex, 16).map_err(|_| err("bad hex address")))?;
        if parts.next().is_some() {
            return Err(err("trailing tokens"));
        }
        out.push(MemoryAccess {
            core,
            address,
            kind,
        });
    }
    Ok(out)
}

/// Replays a trace through a hierarchy.
pub fn replay(hierarchy: &mut Hierarchy, trace: &[MemoryAccess]) {
    for &access in trace {
        hierarchy.access(access);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CpuConfig;

    #[test]
    fn round_trip() {
        let accesses = vec![
            MemoryAccess::data_read(0, 0x1000),
            MemoryAccess::data_write(3, 0x2040),
            MemoryAccess::fetch(7, 0x400000),
        ];
        let mut buf = Vec::new();
        write_trace(&mut buf, accesses.iter().copied()).unwrap();
        let parsed = read_trace(buf.as_slice()).unwrap();
        assert_eq!(parsed, accesses);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = "# header\n\n0 R 0x40\n  \n1 W 0x80\n";
        let parsed = read_trace(text.as_bytes()).unwrap();
        assert_eq!(parsed.len(), 2);
    }

    #[test]
    fn malformed_lines_carry_position() {
        let text = "0 R 0x40\n9 Q 0x80\n";
        let err = read_trace(text.as_bytes()).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("unknown access kind"));
    }

    #[test]
    fn rejects_decimal_addresses() {
        let err = read_trace("0 R 64\n".as_bytes()).unwrap_err();
        assert!(err.message.contains("hex"));
    }

    #[test]
    fn replay_drives_the_hierarchy() {
        let trace = vec![
            MemoryAccess::data_read(0, 0x0),
            MemoryAccess::data_read(0, 0x0),
        ];
        let mut h = Hierarchy::new(CpuConfig::skylake_desktop());
        replay(&mut h, &trace);
        assert_eq!(h.llc_stats().read_accesses, 1);
    }
}
